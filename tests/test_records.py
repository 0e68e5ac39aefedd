"""The shared array-record layout, its one reader, and what every reader of
an artifact or input file does with damaged bytes."""

import ast
import struct
from pathlib import Path

import numpy as np
import pytest

import deviceprint
from deviceprint import audio, gmm, mfcc, nn, pipeline
from deviceprint.errors import FormatError, PipelineError

RNG = np.random.default_rng(1700)
COEFFS = RNG.standard_normal((3, 4))
UBM = gmm.DiagGmm(np.array([0.25, 0.75]), RNG.standard_normal((2, 3)),
                  RNG.uniform(0.5, 2.0, (2, 3)))
TENSOR = RNG.uniform(0.0, 1.0, (3, 2, 4))
STATE = {"conv.w": RNG.standard_normal((2, 1, 3)),
         "fc.b": RNG.standard_normal(2), "scale": np.float64(0.5)}


def _f8(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return struct.pack(f"<{arr.size}d", *arr.ravel())


def _checkpoint_bytes(arrays):
    raw = b"STRL1" + struct.pack("<i", len(arrays))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        raw += struct.pack("<i", len(name)) + name.encode()
        raw += struct.pack(f"<{1 + arr.ndim}i", arr.ndim, *arr.shape)
        raw += _f8(arr)
    return raw


# format -> (write the sample to a path, read a path, the sample's bytes)
FORMATS = {
    "mfcc": (lambda path: mfcc.save_mfcc(path, mfcc.MfccMatrix(COEFFS)),
             mfcc.load_mfcc,
             b"MFCC1" + struct.pack("<ii", 3, 4) + _f8(COEFFS)),
    "dgmm": (lambda path: gmm.save_gmm(path, UBM), gmm.load_gmm,
             b"DGMM1" + struct.pack("<ii", 2, 3) + _f8(UBM.weights)
             + _f8(UBM.means) + _f8(UBM.variances)),
    "sgmm": (lambda path: gmm.save_sgmm(path, gmm.SgmmTensor(TENSOR, 2, 10,
                                                             4.0)),
             gmm.load_sgmm,
             b"SGMM1" + struct.pack("<iii", 3, 2, 4) + _f8(TENSOR)),
    "ckpt": (lambda path: nn.save_checkpoint(path, STATE), nn.load_checkpoint,
             _checkpoint_bytes(STATE)),
}


@pytest.mark.parametrize("kind", FORMATS)
def test_writer_bytes_follow_the_documented_layout(tmp_path, kind):
    write, read, expected = FORMATS[kind]
    path = tmp_path / f"x.{kind}"
    write(path)
    assert path.read_bytes() == expected
    read(path)


def _damaged(kind):
    """name -> the sample's bytes damaged in one way each reader refuses."""
    raw = FORMATS[kind][2]
    cases = {"bad_magic": b"X" + raw[1:], "truncated": raw[:-1],
             "header_only": raw[:7], "trailing": raw + b"\x00"}
    if kind != "ckpt":
        n_extents = {"mfcc": 2, "dgmm": 2, "sgmm": 3}[kind]
        for value in (0, -1):
            cases[f"extent_{value}"] = (raw[:5] + struct.pack("<i", value)
                                        + raw[9:])
            cases[f"last_extent_{value}"] = (
                raw[:5 + 4 * (n_extents - 1)] + struct.pack("<i", value)
                + raw[5 + 4 * n_extents:])
        # a layout the reader accepts, holding values the artifact's own
        # check refuses: a non-finite cepstrum, mixture weights off the
        # simplex, a tensor entry above 1
        cases["values"] = {
            "mfcc": raw[:-8] + struct.pack("<d", np.nan),
            "dgmm": raw[:13] + struct.pack("<d", 0.5) + raw[21:],
            "sgmm": raw[:-8] + struct.pack("<d", 1.5)}[kind]
    else:
        # the first name's bytes made invalid UTF-8, its length kept
        cases["name_not_utf8"] = raw[:13] + b"\xff" + raw[14:]
        cases["negative_rank"] = (b"STRL1" + struct.pack("<ii", 1, 1) + b"a"
                                  + struct.pack("<i", -1))
    return cases


@pytest.mark.parametrize("kind, case", [
    (kind, case) for kind in FORMATS for case in _damaged(kind)])
def test_damaged_record_raises_format_error_naming_the_path(tmp_path, kind,
                                                            case):
    path = tmp_path / f"damaged.{kind}"
    path.write_bytes(_damaged(kind)[case])
    with pytest.raises(FormatError) as caught:
        FORMATS[kind][1](path)
    assert str(caught.value).startswith(f"{path}: ")


def test_only_the_record_and_riff_modules_pack_bytes():
    package = Path(deviceprint.__file__).parent
    importers = set()
    for source in package.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "struct" in names:
                importers.add(source.relative_to(package).as_posix())
    assert importers == {"atomic.py", "audio.py"}


# --- mutation suite: damaged bytes end in a PipelineError, never in another
# exception ------------------------------------------------------------------

def _write_wav(path):
    clip = audio.AudioClip(np.sin(np.arange(160) / 7.0) * 0.5, 8000)
    path.write_bytes(audio.wav_bytes(clip))


def _write_manifest(path):
    audio.write_manifest(audio.CorpusManifest(
        [audio.ManifestEntry(f"device0{d}_00{c}.wav", f"device0{d}",
                             "train" if c else "test")
         for d in range(2) for c in range(3)], 16000, 7), path)


def _write_config(path):
    cfg = pipeline.PipelineConfig({"gmm.components": 8, "train.epochs": 3})
    path.write_text(cfg.canonical_text())


def _write_arch(path):
    path.write_text("input_dims = 12/8/5\n"
                    "labels = device00,device01,device02\n")


# reader -> (write a valid file, read it)
READERS = {
    "read_wav": (_write_wav, audio.read_wav),
    "read_manifest": (_write_manifest, audio.read_manifest),
    "load_config": (_write_config, pipeline.load_config),
    "load_mfcc": FORMATS["mfcc"][:2],
    "load_gmm": FORMATS["dgmm"][:2],
    "load_sgmm": FORMATS["sgmm"][:2],
    "load_checkpoint": FORMATS["ckpt"][:2],
    "read_arch": (_write_arch, pipeline._read_arch),
}
RECORD_READERS = {"load_mfcc", "load_gmm", "load_sgmm", "load_checkpoint"}
MUTATIONS_PER_KIND = 100


def _mutations(raw, rng):
    """(kind, bytes): truncations, single byte flips and appended bytes."""
    for _ in range(MUTATIONS_PER_KIND):
        yield "truncate", raw[:rng.integers(0, len(raw))]
    for _ in range(MUTATIONS_PER_KIND):
        flipped = bytearray(raw)
        flipped[rng.integers(0, len(raw))] ^= int(rng.integers(1, 256))
        yield "flip", bytes(flipped)
    for _ in range(MUTATIONS_PER_KIND):
        yield "append", raw + rng.bytes(int(rng.integers(1, 17)))


@pytest.mark.parametrize("reader", READERS)
def test_mutated_file_raises_only_pipeline_errors(tmp_path, reader):
    write, read = READERS[reader]
    valid = tmp_path / "valid"
    write(valid)
    read(valid)
    path = tmp_path / "mutated"
    rng = np.random.default_rng(list(READERS).index(reader))
    for kind, raw in _mutations(valid.read_bytes(), rng):
        path.write_bytes(raw)
        try:
            read(path)
        except PipelineError:
            continue
        except Exception as exc:
            pytest.fail(f"{reader} raised {type(exc).__name__} on a {kind} "
                        f"mutation: {exc}")
        # the array records have no slack: every truncation and every
        # appended byte is refused
        assert not (reader in RECORD_READERS and kind != "flip"), (
            f"{reader} accepted a {kind} mutation")
