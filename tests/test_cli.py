import hashlib
import itertools
import multiprocessing
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from deviceprint import atomic, audio, gmm, mfcc, model, nn, pipeline
from deviceprint.cli import main
from deviceprint.errors import (CacheError, ConfigError, DataError,
                                DependencyError, FormatError, ShapeError)

TINY = """
corpus.devices = 3
corpus.clips = 6
corpus.train_fraction = 0.67
corpus.clip_seconds = 2.5
corpus.seed = 7
gmm.components = 8
gmm.seed = 7
train.lr = 0.003
train.epochs = 3
train.batch = 8
train.seed = 7
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    cfg = pipeline.parse_config_text(TINY)
    cfg.set("paths.workdir", str(tmp_path / "work"))
    return cfg


def _cfg_file(tmp_path, cfg):
    path = tmp_path / "pipeline.cfg"
    path.write_text(cfg.canonical_text())
    return str(path)


def test_config_defaults_contract():
    cfg = pipeline.PipelineConfig()
    assert cfg.get("corpus.devices") == 5
    assert cfg.get("corpus.clips") == 40
    n_train = round(cfg.get("corpus.clips") * cfg.get("corpus.train_fraction"))
    assert (n_train, cfg.get("corpus.clips") - n_train) == (30, 10)


def test_config_round_trip():
    cfg = pipeline.parse_config_text(TINY)
    again = pipeline.parse_config_text(cfg.canonical_text())
    assert again == cfg
    assert again.canonical_text() == cfg.canonical_text()


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        pipeline.parse_config_text("corpus.devices = 3\nbogus.key = 1\n")
    with pytest.raises(ConfigError):
        pipeline.parse_config_text("corpus.devices = not_a_number\n")


def test_config_value_kinds():
    cfg = pipeline.parse_config_text(
        "arch.channels = 4/8/16\ndsp.include_c0 = false\n"
        "ablate.frame_grid = 256:64,128:32\n")
    assert cfg.get("arch.channels") == (4, 8, 16)
    assert cfg.get("dsp.include_c0") is False
    assert cfg.get("ablate.frame_grid") == ((256.0, 64.0), (128.0, 32.0))


def test_synth_counts_and_idempotence(tiny_cfg, capsys):
    pipeline.stage_synth(tiny_cfg)
    out = capsys.readouterr().out
    assert "wrote 18 clips" in out
    assert "3 train / 2 test" not in out  # 4/2 split at 0.67
    assert "4 train / 2 test" in out
    pipeline.stage_synth(tiny_cfg)
    assert "up to date" in capsys.readouterr().out


def test_mfcc_counts_match_manifest(tiny_cfg, capsys):
    pipeline.stage_synth(tiny_cfg)
    manifest = pipeline.stage_mfcc(tiny_cfg)
    out = capsys.readouterr().out
    assert "18 extracted" in out
    files = sorted((tiny_cfg.workdir / "mfcc").glob("*.mfcc"))
    assert len(files) == len(manifest.entries)
    # cepstra and .hash per clip
    assert len(list((tiny_cfg.workdir / "mfcc").iterdir())) == 18 * 2
    # re-extraction is byte-identical and skipped as up to date
    payloads = {f.name: f.read_bytes() for f in files}
    pipeline.stage_mfcc(tiny_cfg)
    assert "18 up to date" in capsys.readouterr().out
    for f in files:
        assert f.read_bytes() == payloads[f.name]


def test_missing_dependency_errors_name_missing_stage(tiny_cfg):
    from deviceprint.errors import DependencyError
    with pytest.raises(DependencyError, match="synth"):
        pipeline.stage_mfcc(tiny_cfg)
    pipeline.stage_synth(tiny_cfg, log=lambda *a: None)
    with pytest.raises(DependencyError, match="mfcc"):
        pipeline.stage_train_ubm(tiny_cfg, log=lambda *a: None)
    pipeline.stage_mfcc(tiny_cfg, log=lambda *a: None)
    with pytest.raises(DependencyError, match="train-ubm"):
        pipeline.stage_sgmm(tiny_cfg, log=lambda *a: None)
    pipeline.stage_train_ubm(tiny_cfg, log=lambda *a: None)
    pipeline.stage_sgmm(tiny_cfg, log=lambda *a: None)
    with pytest.raises(DependencyError, match="train"):
        pipeline.stage_eval(tiny_cfg, log=lambda *a: None)


def test_train_ubm_log_and_determinism(tmp_path, capsys):
    bytes_by_run = []
    for run in ("a", "b"):
        cfg = pipeline.parse_config_text(TINY)
        cfg.set("paths.workdir", str(tmp_path / run))
        pipeline.stage_synth(cfg, log=lambda *a: None)
        pipeline.stage_mfcc(cfg, log=lambda *a: None)
        out_path = pipeline.stage_train_ubm(cfg)
        bytes_by_run.append(out_path.read_bytes())
    log = capsys.readouterr().out
    lls = [float(line.rsplit(" ", 1)[1]) for line in log.splitlines()
           if "total log-likelihood" in line]
    assert len(lls) >= 2
    assert np.all(np.diff(np.array(lls).reshape(2, -1), axis=1) >= -1e-8)
    assert bytes_by_run[0] == bytes_by_run[1]


def test_ubm_single_component_quick(tiny_cfg, capsys):
    tiny_cfg.set("gmm.components", 1)
    pipeline.stage_synth(tiny_cfg, log=lambda *a: None)
    pipeline.stage_mfcc(tiny_cfg, log=lambda *a: None)
    pipeline.stage_train_ubm(tiny_cfg)
    out = capsys.readouterr().out
    assert "G=1" in out


def test_full_chain_and_eval_consistency(tiny_cfg, capsys, monkeypatch):
    for stage in (pipeline.stage_synth, pipeline.stage_mfcc,
                  pipeline.stage_train_ubm, pipeline.stage_sgmm,
                  pipeline.stage_train):
        stage(tiny_cfg, log=lambda *a: None)
    metrics = pipeline.stage_eval(tiny_cfg, log=lambda *a: None)
    kv_text = (tiny_cfg.workdir / "eval" / "metrics.kv").read_text()
    kv = dict(line.split("=") for line in kv_text.splitlines())
    assert float(kv["accuracy"]) == metrics.accuracy
    csv_rows = (tiny_cfg.workdir / "eval" / "confusion.csv").read_text()
    total = sum(int(v) for row in csv_rows.strip().splitlines()
                for v in row.split(","))
    assert total == 6  # test clips
    # training is hash-gated: a rerun is a no-op that loads no tensor
    def no_load(path):
        raise AssertionError(f"up-to-date train stage loaded {path}")

    monkeypatch.setattr(gmm, "load_sgmm", no_load)
    pipeline.stage_train(tiny_cfg)
    assert "up to date" in capsys.readouterr().out


def test_ablate_rows_per_cell(tiny_cfg, capsys):
    tiny_cfg.set("ablate.frame_grid", ((256.0, 64.0), (128.0, 64.0)))
    pipeline.stage_synth(tiny_cfg, log=lambda *a: None)
    rows = pipeline.stage_ablate(tiny_cfg)
    assert len(rows) == 2
    assert (tiny_cfg.workdir / "ablate" / "ablate.csv").read_text().count(
        "\n") == 3


def test_ablate_requires_a_current_synth(tiny_cfg):
    # a corpus made under another seed is not the one the config names
    pipeline.stage_synth(tiny_cfg, log=lambda *a: None)
    tiny_cfg.set("corpus.seed", 8)
    with pytest.raises(DependencyError, match="`synth`"):
        pipeline.stage_ablate(tiny_cfg, log=lambda *a: None)
    assert not (tiny_cfg.workdir / "ablate").exists()


def test_cli_main_error_paths(tmp_path, capsys):
    code = main(["mfcc", "--workdir", str(tmp_path / "nowhere")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error [mfcc]" in err and "synth" in err


def test_cli_main_synth_device_override(tmp_path, capsys):
    cfg = pipeline.parse_config_text(TINY)
    cfg.set("corpus.clips", 2)
    cfg.set("corpus.clip_seconds", 0.5)
    path = _cfg_file(tmp_path, cfg)
    code = main(["synth", "--config", path, "--workdir",
                 str(tmp_path / "w"), "--devices", "4", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote 8 clips" in out
    assert "device03" in out


def test_cli_gradcheck_exit_zero(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 10 and "FAIL" not in out


def _build_tensors(cfg):
    for stage in (pipeline.stage_synth, pipeline.stage_mfcc,
                  pipeline.stage_train_ubm, pipeline.stage_sgmm):
        stage(cfg, log=lambda *a: None)


def test_small_sample_stage(tiny_cfg, capsys):
    _build_tensors(tiny_cfg)
    # each clip's outputs and its .hash sidecar
    assert len(list((tiny_cfg.workdir / "sgmm").iterdir())) == 18 * (
        len(pipeline.STAGES["sgmm"].outputs) + 1)
    metrics = pipeline.stage_small_sample(tiny_cfg, 3, log=lambda *a: None)
    assert 0.0 <= metrics.accuracy <= 1.0
    assert (tiny_cfg.workdir / "small_sample" / "metrics.kv").exists()


def test_config_views_match_dataclass_defaults():
    cfg = pipeline.PipelineConfig()
    assert cfg.frame_config() == mfcc.FrameConfig()
    assert cfg.mel_config() == mfcc.MelConfig()
    assert cfg.gmm_config() == model.GmmConfig()
    assert cfg.train_config() == model.TrainConfig()
    assert (model.ArchitectureConfig((12, 8, 5), 5, **cfg.arch_kwargs())
            == model.ArchitectureConfig((12, 8, 5), 5))
    # the shipped protocol, which every stage digest covers
    assert len(pipeline.CONFIG_SCHEMA) == 33
    assert cfg.section_text("train") == (
        "train.lr = 0.002\ntrain.decay_every = 100\n"
        "train.decay_factor = 0.1\ntrain.epochs = 250\n"
        "train.batch = 16\ntrain.seed = 0")


def test_sample_rate_mismatch_same_error_on_both_paths(tiny_cfg):
    pipeline.stage_synth(tiny_cfg, log=lambda *a: None)
    manifest_path = tiny_cfg.workdir / "corpus" / "manifest.tsv"
    manifest_path.write_text(
        manifest_path.read_text().replace("sr=16000", "sr=8000", 1))
    with pytest.raises(DataError) as staged:
        pipeline.stage_mfcc(tiny_cfg, log=lambda *a: None)
    with pytest.raises(DataError) as in_memory:
        model.run_recognition(audio.read_manifest(manifest_path),
                              tiny_cfg.frame_config(), tiny_cfg.mel_config(),
                              tiny_cfg.gmm_config(), tiny_cfg.train_config())
    assert type(staged.value) is type(in_memory.value)
    assert "sample rate 16000" in str(staged.value)


def test_small_sample_stage_matches_protocol(tiny_cfg, monkeypatch):
    _build_tensors(tiny_cfg)

    def no_read(path):
        raise AssertionError(f"small-sample stage decoded {path}")

    # the stage reads the cached cepstra, never the clips
    monkeypatch.setattr(pipeline, "read_wav", no_read)
    monkeypatch.setattr(model, "read_wav", no_read)
    staged = pipeline.stage_small_sample(tiny_cfg, 3, log=lambda *a: None)
    monkeypatch.undo()
    in_memory = model.small_sample_protocol(
        audio.read_manifest(tiny_cfg.workdir / "corpus" / "manifest.tsv"), 3,
        tiny_cfg.frame_config(), tiny_cfg.mel_config(), tiny_cfg.gmm_config(),
        tiny_cfg.train_config(), select_seed=tiny_cfg.get("train.seed"),
        **tiny_cfg.arch_kwargs()).metrics
    assert staged.kv_records() == in_memory.kv_records()
    assert np.array_equal(staged.confusion, in_memory.confusion)


def test_small_sample_stage_reads_only_the_cached_tensors(tiny_cfg,
                                                          monkeypatch):
    _build_tensors(tiny_cfg)

    def no_call(*args, **kwargs):
        raise AssertionError("small-sample stage redid an upstream stage")

    for module, name in ((model, "train_ubm"), (model, "extract_sgmm"),
                         (gmm, "extract_sgmm"), (mfcc, "load_mfcc")):
        monkeypatch.setattr(module, name, no_call)
    metrics = pipeline.stage_small_sample(tiny_cfg, 3, log=lambda *a: None)
    assert 0.0 <= metrics.accuracy <= 1.0


def test_cli_train_ubm_rejects_zero_em_iters(tmp_path, capsys):
    cfg = pipeline.parse_config_text(TINY)
    cfg.set("gmm.em_iters", 0)
    path = _cfg_file(tmp_path, cfg)
    work = tmp_path / "w"
    for command in ("synth", "mfcc"):
        assert main([command, "--config", path, "--workdir", str(work)]) == 0
    capsys.readouterr()
    assert main(["train-ubm", "--config", path, "--workdir", str(work)]) == 1
    assert "error [train-ubm]" in capsys.readouterr().err
    assert not (work / "ubm" / "ubm.dgmm.hash").exists()


@pytest.mark.parametrize("keep", ["header", "test"])
def test_cli_train_ubm_refuses_a_manifest_without_train_clips(
        trained_cfg, tmp_path, capsys, keep):
    # keep the header line and, for "test", the test split's entries
    manifest = trained_cfg.workdir / "corpus" / "manifest.tsv"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for i, line in enumerate(lines)
                                if i == 0 or keep in line.split()))
    path = _cfg_file(tmp_path, trained_cfg)
    assert main(["train-ubm", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [train-ubm]: ") and "train clips" in err
    assert "Traceback" not in err
    assert not (trained_cfg.workdir / "ubm.hash").exists()


@pytest.mark.parametrize("n_train", ["-1", "0"])
def test_cli_small_sample_refuses_a_train_count_below_one(
        trained_cfg, tmp_path, capsys, n_train):
    path = _cfg_file(tmp_path, trained_cfg)
    assert main(["small-sample", "--config", path, "--n-train", n_train]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [small-sample]: ") and "n_train" in err
    assert "Traceback" not in err
    assert not (trained_cfg.workdir / "small_sample").exists()


def test_config_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"corpus.devices = 3\n# \xff\n")
    with pytest.raises(ConfigError):
        pipeline.load_config(path)
    assert main(["synth", "--config", str(path), "--workdir",
                 str(tmp_path / "w")]) == 1
    assert "error [synth]" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_config_unreadable(tmp_path, capsys, name):
    path = tmp_path / name
    with pytest.raises(ConfigError):
        pipeline.load_config(path)
    assert main(["synth", "--config", str(path), "--workdir",
                 str(tmp_path / "w")]) == 1
    assert "error [synth]:" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


# a stage's record is the `.hash` sidecar of its output directory: synth's
# vouches for corpus/ as a whole, the manifest's sidecar for the manifest
@pytest.mark.parametrize("target", ["manifest", "record"])
def test_undecodable_hash_sidecar_rebuilds(tiny_cfg, capsys, target):
    pipeline.stage_synth(tiny_cfg)
    corpus = tiny_cfg.workdir / "corpus"
    path = corpus / "manifest.tsv" if target == "manifest" else corpus
    side = pipeline._sidecar(path)
    digest = side.read_text().strip()
    side.write_bytes(b"\xff\xfe" + digest.encode())
    assert not pipeline._fresh(path, digest)
    if target == "record":
        with pytest.raises(DependencyError, match="`synth`"):
            pipeline.stage_mfcc(tiny_cfg, log=lambda *a: None)
    capsys.readouterr()
    pipeline.stage_synth(tiny_cfg)
    assert ("wrote 18 clips" if target == "manifest"
            else "synth: up to date") in capsys.readouterr().out
    assert pipeline._fresh(path, digest)


@pytest.mark.parametrize("built, side", [
    (False, "corpus/manifest.tsv.hash"), (True, "corpus/manifest.tsv.hash"),
    (False, "corpus.hash"), (True, "corpus.hash"),
], ids=["fresh", "built", "fresh_record", "built_record"])
def test_cli_reports_unusable_hash_sidecar(tmp_path, capsys, built, side):
    # a directory in the sidecar's or the record's place: the stage fails
    # before its work
    cfg = pipeline.parse_config_text(TINY)
    cfg.set("corpus.clips", 2)
    cfg.set("corpus.clip_seconds", 0.5)
    path = _cfg_file(tmp_path, cfg)
    work = tmp_path / "w"
    side = work / side
    if built:
        assert main(["synth", "--config", path, "--workdir", str(work)]) == 0
        side.unlink()
    side.mkdir(parents=True)
    stamps = {f: f.stat().st_mtime_ns for f in work.rglob("*.wav")}
    capsys.readouterr()
    assert main(["synth", "--config", path, "--workdir", str(work)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [synth]: ") and str(side) in err
    assert {f: f.stat().st_mtime_ns for f in work.rglob("*.wav")} == stamps


def test_mark_reports_unwritable_sidecar(tmp_path):
    (tmp_path / "out.bin.hash").mkdir()
    with pytest.raises(CacheError, match="out.bin.hash"):
        pipeline._mark(tmp_path / "out.bin", "digest")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin.hash"]


# --- eval checks the train chain's records, then the checkpoint's arch.txt ---

@pytest.fixture(scope="module")
def trained_tiny(tmp_path_factory):
    cfg = pipeline.parse_config_text(TINY)
    cfg.set("paths.workdir", str(tmp_path_factory.mktemp("trained") / "work"))
    for stage in (pipeline.stage_synth, pipeline.stage_mfcc,
                  pipeline.stage_train_ubm, pipeline.stage_sgmm,
                  pipeline.stage_train):
        stage(cfg, log=lambda *a: None)
    return cfg.workdir


@pytest.fixture()
def trained_cfg(trained_tiny, tmp_path):
    """A copy of a TINY workdir built through `train`."""
    cfg = pipeline.parse_config_text(TINY)
    cfg.set("paths.workdir", str(tmp_path / "work"))
    shutil.copytree(trained_tiny, cfg.workdir)
    return cfg


def _no_build(arch, seed=0):
    raise AssertionError("eval built a network for a stale checkpoint")


def test_eval_loads_only_test_tensors(trained_cfg, monkeypatch):
    loaded = []
    load = gmm.load_sgmm

    def recording_load(path):
        loaded.append(path)
        return load(path)

    monkeypatch.setattr(gmm, "load_sgmm", recording_load)
    pipeline.stage_eval(trained_cfg, log=lambda *a: None)
    manifest = audio.read_manifest(
        trained_cfg.workdir / "corpus" / "manifest.tsv")
    test_stems = {Path(e.path).stem for e in manifest.for_split("test")}
    assert sorted(Path(p).stem for p in loaded) == sorted(test_stems)
    assert len(loaded) == 6


@pytest.mark.parametrize("key, value", [
    ("labels", "device00,device02,device01"),
    ("input_dims", "12/16/24"),
])
def test_eval_rejects_edited_arch(trained_cfg, monkeypatch, key, value):
    arch = trained_cfg.workdir / "model" / "arch.txt"
    lines = [f"{key} = {value}" if line.startswith(key + " ") else line
             for line in arch.read_text().splitlines()]
    arch.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(model, "build_model", _no_build)
    with pytest.raises(DataError, match="train"):
        pipeline.stage_eval(trained_cfg, log=lambda *a: None)


def test_eval_rejects_sgmm_rebuilt_without_train(trained_cfg, monkeypatch):
    # the train record holds the gmm.* lines its tensors were made under
    trained_cfg.set("gmm.components", 4)
    for stage in (pipeline.stage_train_ubm, pipeline.stage_sgmm):
        stage(trained_cfg, log=lambda *a: None)
    monkeypatch.setattr(model, "build_model", _no_build)
    with pytest.raises(DependencyError) as caught:
        pipeline.stage_eval(trained_cfg, log=lambda *a: None)
    assert "`train` has not completed" in str(caught.value)
    assert "gmm.components = 4" in str(caught.value)
    assert not (trained_cfg.workdir / "eval").exists()


@pytest.mark.parametrize("text", [
    b"", b"input_dims = 12/8\nlabels = a,b,c\n",
    b"input_dims = 12/8/x\nlabels = a,b,c\n",
    b"input_dims: 12/8/24\n", b"\xff\xfe",
], ids=["empty", "two_dims", "bad_extent", "no_equals", "not_utf8"])
def test_eval_rejects_malformed_arch(trained_cfg, text):
    (trained_cfg.workdir / "model" / "arch.txt").write_bytes(text)
    with pytest.raises(FormatError):
        pipeline.stage_eval(trained_cfg, log=lambda *a: None)


def test_eval_opens_nothing_under_a_stale_train_record(trained_cfg,
                                                      monkeypatch):
    trained_cfg.set("train.epochs", 4)
    monkeypatch.setattr(pipeline, "_read_arch", _forbidden)
    monkeypatch.setattr(pipeline, "load_checkpoint", _forbidden)
    monkeypatch.setattr(gmm, "load_sgmm", _forbidden)
    with pytest.raises(DependencyError) as caught:
        pipeline.stage_eval(trained_cfg, log=lambda *a: None)
    assert "`train` has not completed" in str(caught.value)
    assert "train.epochs = 4" in str(caught.value)


def test_arch_of_an_older_build_evaluates_the_same(trained_cfg):
    # older builds also wrote n_classes and the arch.* lines, which the
    # train record holds; eval reads past them
    work = trained_cfg.workdir
    pipeline.stage_eval(trained_cfg, log=lambda *a: None)
    metrics = (work / "eval" / "metrics.kv").read_bytes()
    arch = work / "model" / "arch.txt"
    dims, labels = arch.read_text().splitlines()
    assert dims.startswith("input_dims = ") and labels.startswith("labels = ")
    arch.write_text(f"{dims}\nn_classes = 3\n{labels}\n"
                    f"{trained_cfg.section_text('arch')}\n")
    lines = []
    pipeline.stage_train(trained_cfg, log=lines.append)
    assert lines == [f"train: up to date ({work / 'model' / 'model.ckpt'})"]
    pipeline.stage_eval(trained_cfg, log=lambda *a: None)
    assert (work / "eval" / "metrics.kv").read_bytes() == metrics


def test_eval_requires_a_current_train_chain(trained_cfg):
    # the tensors keep their shape, so only the stage records show that
    # they were made under another relevance
    trained_cfg.set("gmm.relevance", 9.0)
    with pytest.raises(DependencyError) as caught:
        pipeline.stage_eval(trained_cfg, log=lambda *a: None)
    assert "`train-ubm`" in str(caught.value)
    assert "gmm.relevance = 9" in str(caught.value)
    assert not (trained_cfg.workdir / "eval").exists()


@pytest.mark.parametrize("name", ["arch.txt", "model.ckpt"])
def test_unreadable_train_output_is_retrained(trained_cfg, name):
    (trained_cfg.workdir / "model" / name).write_bytes(b"\xff\xfe")
    with pytest.raises(FormatError):
        pipeline.stage_eval(trained_cfg, log=lambda *a: None)
    lines = []
    pipeline.stage_train(trained_cfg, log=lines.append)
    assert lines[0].startswith("train: 3 epochs")
    pipeline.stage_eval(trained_cfg, log=lambda *a: None)


def test_eval_requires_arch(trained_cfg):
    (trained_cfg.workdir / "model" / "arch.txt").unlink()
    with pytest.raises(DependencyError, match="train"):
        pipeline.stage_eval(trained_cfg, log=lambda *a: None)


def test_cli_eval_reports_stale_checkpoint(trained_cfg, tmp_path, capsys):
    arch = trained_cfg.workdir / "model" / "arch.txt"
    arch.write_text(arch.read_text().replace("device00", "device09"))
    path = _cfg_file(tmp_path, trained_cfg)
    assert main(["eval", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [eval]: ") and "train" in err


@pytest.mark.parametrize("key, value", [("arch.attention", False),
                                        ("arch.hidden", 16)])
def test_eval_rejects_checkpoint_of_another_network(trained_cfg, monkeypatch,
                                                    key, value):
    # the train record holds the arch.* section; attention has no arrays,
    # so only that record shows a flip
    trained_cfg.set(key, value)
    monkeypatch.setattr(model, "build_model", _no_build)
    with pytest.raises(DependencyError) as caught:
        pipeline.stage_eval(trained_cfg, log=lambda *a: None)
    changed = next(line for line in
                   trained_cfg.section_text("arch").splitlines()
                   if line.startswith(key + " = "))
    assert "`train` has not completed" in str(caught.value)
    assert changed in str(caught.value)
    assert not (trained_cfg.workdir / "eval").exists()


def test_stray_meta_files_of_an_older_build_are_ignored(trained_cfg,
                                                       tmp_path):
    # builds that wrote a .sgmm.meta text sidecar beside every tensor left
    # them in the workdir; nothing reads them, however malformed
    path = _cfg_file(tmp_path, trained_cfg)
    work = trained_cfg.workdir
    results = {}
    for garbage in (False, True):
        if garbage:
            for tensor in (work / "sgmm").glob("*.sgmm"):
                tensor.with_suffix(".sgmm.meta").write_text("t=abc r=4.0")
        lines = []
        pipeline.stage_sgmm(trained_cfg, log=lines.append)
        pipeline.stage_train(trained_cfg, log=lines.append)
        assert lines == ["sgmm: 0 extracted, 18 up to date (18 clips)",
                         f"train: up to date ({work / 'model' / 'model.ckpt'})"]
        assert main(["eval", "--config", path]) == 0
        assert main(["small-sample", "--config", path, "--n-train", "3"]) == 0
        results[garbage] = [(work / kind / "metrics.kv").read_bytes()
                            for kind in ("eval", "small_sample")]
    assert len(list((work / "sgmm").glob("*.meta"))) == 18
    assert results[True] == results[False]


def _half(path):
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


def _append_byte(path):
    path.write_bytes(path.read_bytes() + b"\x00")


def _last_value(value):
    """Damage that keeps the layout: the file's last float64 becomes
    `value`, which its dataclass's own check refuses."""
    def damage(path):
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] + np.array(value, "<f8").tobytes())
    return damage


def _first_clip(split, kind):
    """(cfg -> the first `split` clip's artifact of per-clip stage kind)."""
    def artifact(cfg):
        manifest = audio.read_manifest(cfg.workdir / "corpus" / "manifest.tsv")
        return pipeline._clip_files(cfg, manifest.for_split(split)[:1],
                                    kind)[0]
    return artifact


@pytest.mark.parametrize("damage, artifact, command", [
    (_half, _first_clip("train", "mfcc"), "train-ubm"),
    (_half, _first_clip("train", "sgmm"), "train"),
    (_half, _first_clip("test", "sgmm"), "eval"),
    (_append_byte, lambda cfg: cfg.workdir / "model" / "model.ckpt", "eval"),
], ids=["mfcc_train_ubm", "sgmm_train", "test_sgmm_eval", "ckpt_eval"])
def test_cli_reports_a_damaged_artifact_under_a_current_sidecar(
        trained_cfg, tmp_path, capsys, damage, artifact, command):
    # the artifact's own sidecar keys its inputs, not its bytes, so the
    # stage that wrote it calls it up to date; its reader must refuse it
    target = artifact(trained_cfg)
    damage(target)
    path = _cfg_file(tmp_path, trained_cfg)
    assert main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]: ") and str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage, artifact, command, stage", [
    (_half, _first_clip("train", "mfcc"), "train-ubm", "mfcc"),
    (_half, _first_clip("train", "sgmm"), "train", "sgmm"),
    (_last_value(np.nan), _first_clip("train", "mfcc"), "train-ubm", "mfcc"),
    (_last_value(1.5), _first_clip("train", "sgmm"), "train", "sgmm"),
    (_last_value(np.nan), _first_clip("train", "sgmm"), "train", "sgmm"),
], ids=["mfcc", "sgmm", "mfcc_nan", "sgmm_out_of_range", "sgmm_nan"])
def test_damaged_artifact_is_rebuilt_by_the_stage_the_error_names(
        trained_cfg, tmp_path, capsys, damage, artifact, command, stage):
    path = _cfg_file(tmp_path, trained_cfg)
    metrics = trained_cfg.workdir / "eval" / "metrics.kv"
    assert main(["eval", "--config", path]) == 0
    undamaged = metrics.read_bytes()
    target = artifact(trained_cfg)
    damage(target)
    capsys.readouterr()
    assert main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]: {target}: ")
    assert err.rstrip().endswith(f"; rerun `{stage}`")
    lines = []
    getattr(pipeline, f"stage_{stage}")(trained_cfg, log=lines.append)
    assert lines == [f"{stage}: 1 extracted, 17 up to date (18 clips)"]
    for later in ("train-ubm", "sgmm", "train", "eval"):
        assert main([later, "--config", path]) == 0
    assert metrics.read_bytes() == undamaged


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_refuses_a_clip_length_that_is_not_finite(tiny_cfg, tmp_path,
                                                        capsys, value):
    tiny_cfg.set("corpus.clip_seconds", float(value))
    path = _cfg_file(tmp_path, tiny_cfg)
    assert main(["synth", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [synth]: ") and "clip_seconds" in err
    assert "Traceback" not in err
    assert not (tiny_cfg.workdir / "corpus").exists()


@pytest.mark.parametrize("key, value, command, record, says", [
    ("dsp.frame_len_ms", "inf", "mfcc", "mfcc.hash", "frame_len_ms"),
    ("gmm.em_tol", "nan", "train-ubm", "ubm.hash", "em_tol"),
    ("gmm.em_tol", "-1", "train-ubm", "ubm.hash", "em_tol"),
    ("gmm.relevance", "nan", "sgmm", "sgmm.hash", "relevance"),
    ("gmm.relevance", "inf", "sgmm", "sgmm.hash", "relevance"),
    ("train.lr", "nan", "train", "model.hash", "initial_lr"),
    ("train.lr", "inf", "train", "model.hash", "initial_lr"),
], ids=["frame_len_inf", "em_tol_nan", "em_tol_neg", "relevance_nan",
        "relevance_inf", "lr_nan", "lr_inf"])
def test_non_finite_config_value_is_refused_by_the_stage_that_reads_it(
        trained_cfg, tmp_path, capsys, key, value, command, record, says):
    # each check is written so that NaN fails it too; train-ubm, which
    # the gmm section also keys, reruns under the value first
    trained_cfg.set(key, float(value))
    path = _cfg_file(tmp_path, trained_cfg)
    if command == "sgmm":
        assert main(["train-ubm", "--config", path]) == 0
    capsys.readouterr()
    assert main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]: ") and says in err
    assert "Traceback" not in err
    assert not (trained_cfg.workdir / record).exists()


def _per_gate_layout(arrays):
    """A checkpoint's arrays in the older layout that stored each BiLSTM
    direction's weights per gate (`bilstm.fwd.w_ix`, ...): per direction,
    per gate in i, f, o, c order its input weights, recurrent weights and
    bias, then the i, f and o peepholes."""
    hid = arrays["bilstm.wp"].shape[2]
    slot = {"i": 0, "f": 1, "c": 2, "o": 3}  # column order of the blocks
    older = {}
    for name, value in arrays.items():
        if name == "bilstm.wx":
            for side, prefix in enumerate(("bilstm.fwd", "bilstm.bwd")):
                for g in "ifoc":
                    cols = slice(slot[g] * hid, (slot[g] + 1) * hid)
                    older[f"{prefix}.w_{g}x"] = arrays["bilstm.wx"][side, :, cols]
                    older[f"{prefix}.w_{g}h"] = arrays["bilstm.wh"][side, :, cols]
                    older[f"{prefix}.b_{g}"] = arrays["bilstm.b"][side, cols]
                for k, g in enumerate("ifo"):
                    older[f"{prefix}.w_{g}c"] = arrays["bilstm.wp"][side, k]
        elif not name.startswith("bilstm."):
            older[name] = value
    return older


def test_checkpoint_of_the_older_layout_is_retrained(trained_cfg, tmp_path,
                                                     capsys):
    # the sidecar keys train's inputs, not the checkpoint's layout, so eval
    # must drop it for the next train to rebuild the checkpoint
    path = _cfg_file(tmp_path, trained_cfg)
    metrics = trained_cfg.workdir / "eval" / "metrics.kv"
    assert main(["eval", "--config", path]) == 0
    undamaged = metrics.read_bytes()
    ckpt = trained_cfg.workdir / "model" / "model.ckpt"
    nn.save_checkpoint(ckpt, _per_gate_layout(nn.load_checkpoint(ckpt)))
    capsys.readouterr()
    assert main(["eval", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [eval]: ") and "rerun `train`" in err
    lines = []
    pipeline.stage_train(trained_cfg, log=lines.append)
    assert lines[0].startswith("train: 3 epochs")
    assert main(["eval", "--config", path]) == 0
    assert metrics.read_bytes() == undamaged


def test_eval_rejects_checkpoint_that_does_not_fit(trained_cfg):
    # the records are current, so only load_state sees that the arrays
    # are those of another network; the sidecar goes, so train retrains
    model_dir = trained_cfg.workdir / "model"
    dims, labels = pipeline._read_arch(model_dir / "arch.txt")
    other = model.build_model(model.ArchitectureConfig(dims, len(labels),
                                                       hidden=16))
    nn.save_checkpoint(model_dir / "model.ckpt", other.state_arrays())
    with pytest.raises(DataError) as caught:
        pipeline.stage_eval(trained_cfg, log=lambda *a: None)
    assert str(caught.value).endswith("rerun `train`")
    assert isinstance(caught.value.__cause__, ShapeError)
    assert not (model_dir / "model.ckpt.hash").exists()
    assert not (trained_cfg.workdir / "eval").exists()


@pytest.mark.parametrize("name", ["arch.txt", "history.csv"])
def test_train_retrains_when_an_output_is_missing(trained_cfg, name):
    # arch.txt and history.csv are outputs of train like the checkpoint,
    # so a current sidecar does not vouch for a model/ without them
    model_dir = trained_cfg.workdir / "model"
    before = {p.name: p.read_bytes() for p in model_dir.iterdir()}
    (model_dir / name).unlink()
    lines = []
    pipeline.stage_train(trained_cfg, log=lines.append)
    assert lines[0].startswith("train: 3 epochs")
    assert {p.name: p.read_bytes() for p in model_dir.iterdir()} == before
    pipeline.stage_eval(trained_cfg, log=lambda *a: None)


def test_train_retrains_when_the_labels_change(trained_cfg):
    # arch.txt records the labels, so they are one of train's inputs
    manifest = trained_cfg.workdir / "corpus" / "manifest.tsv"
    manifest.write_text(manifest.read_text().replace("\tdevice00\t",
                                                     "\tdevice09\t"))
    lines = []
    pipeline.stage_train(trained_cfg, log=lines.append)
    assert lines[0].startswith("train: 3 epochs")
    arch = (trained_cfg.workdir / "model" / "arch.txt").read_text()
    assert "labels = device01,device02,device09\n" in arch
    pipeline.stage_eval(trained_cfg, log=lambda *a: None)


# --- chained stage records and interrupted writes ---------------------------

def _quiet(*args):
    pass


def test_changed_dsp_section_stales_every_reader_of_the_cepstra(tiny_cfg):
    for stage in (pipeline.stage_synth, pipeline.stage_mfcc,
                  pipeline.stage_train_ubm, pipeline.stage_sgmm):
        stage(tiny_cfg, log=_quiet)
    tiny_cfg.set("dsp.n_filters", 20)
    for stage in (pipeline.stage_train_ubm, pipeline.stage_sgmm,
                  lambda cfg, log: pipeline.stage_small_sample(cfg, 3, log)):
        with pytest.raises(DependencyError) as caught:
            stage(tiny_cfg, log=_quiet)
        assert "`mfcc`" in str(caught.value)
        assert "dsp.n_filters = 20" in str(caught.value)
    pipeline.stage_mfcc(tiny_cfg, log=_quiet)
    lines = []
    pipeline.stage_train_ubm(tiny_cfg, log=lines.append)
    assert lines[0].startswith("train-ubm: G=8 on ")


def _interrupt_save_of(monkeypatch, victim):
    """mfcc.save_mfcc leaves half of victim's bytes in place and raises, as
    a writer killed mid-file would."""
    save = mfcc.save_mfcc

    def save_or_die(path, matrix):
        save(path, matrix)
        if path.name == victim:
            path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
            raise OSError("interrupted mid-write")

    monkeypatch.setattr(mfcc, "save_mfcc", save_or_die)


def _clip_names(cfg):
    manifest = audio.read_manifest(cfg.workdir / "corpus" / "manifest.tsv")
    return [Path(e.path).stem + ".mfcc" for e in manifest.entries]


def test_interrupted_mfcc_redoes_that_clip_and_the_ones_after(tiny_cfg,
                                                               monkeypatch):
    pipeline.stage_synth(tiny_cfg, log=_quiet)
    names = _clip_names(tiny_cfg)
    _interrupt_save_of(monkeypatch, names[7])
    with pytest.raises(OSError, match="interrupted"):
        pipeline.stage_mfcc(tiny_cfg, log=_quiet)
    monkeypatch.undo()
    saved, lines = [], []
    save = mfcc.save_mfcc
    monkeypatch.setattr(mfcc, "save_mfcc", lambda path, matrix: (
        saved.append(path.name), save(path, matrix)))
    pipeline.stage_mfcc(tiny_cfg, log=lines.append)
    assert saved == names[7:]
    assert lines == ["mfcc: 11 extracted, 7 up to date (18 clips)"]
    assert not list(tiny_cfg.workdir.rglob("*.tmp"))


def test_interrupted_rerun_under_other_config_is_not_trusted(tiny_cfg,
                                                             monkeypatch):
    # built under A, interrupted under B, then back to A: the half-written
    # clip's old sidecar must not vouch for it, and the clips B never
    # reached keep theirs
    for stage in (pipeline.stage_synth, pipeline.stage_mfcc,
                  pipeline.stage_train_ubm):
        stage(tiny_cfg, log=_quiet)
    mfcc_dir = tiny_cfg.workdir / "mfcc"
    built = {p.name: p.read_bytes() for p in mfcc_dir.glob("*.mfcc")}
    other = pipeline.PipelineConfig(dict(tiny_cfg.values))
    other.set("dsp.f_low", 100.0)
    _interrupt_save_of(monkeypatch, _clip_names(tiny_cfg)[7])
    with pytest.raises(OSError, match="interrupted"):
        pipeline.stage_mfcc(other, log=_quiet)
    monkeypatch.undo()
    monkeypatch.setattr(mfcc, "load_mfcc", _forbidden)
    with pytest.raises(DependencyError, match="`mfcc`"):
        pipeline.stage_train_ubm(tiny_cfg, log=_quiet)
    monkeypatch.undo()
    lines = []
    pipeline.stage_mfcc(tiny_cfg, log=lines.append)
    assert lines == ["mfcc: 8 extracted, 10 up to date (18 clips)"]
    assert {p.name: p.read_bytes() for p in mfcc_dir.glob("*.mfcc")} == built
    lines = []
    pipeline.stage_train_ubm(tiny_cfg, log=lines.append)
    assert lines[-1].startswith("train-ubm: up to date")
    assert not list(tiny_cfg.workdir.rglob("*.tmp"))


def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "ubm.dgmm"
    target.write_bytes(b"old bytes")
    write = Path.write_bytes

    def half_then_die(self, data):
        write(self, data[:len(data) // 2])
        raise OSError("interrupted mid-write")

    monkeypatch.setattr(Path, "write_bytes", half_then_die)
    with pytest.raises(OSError, match="interrupted"):
        atomic.write_atomic(target, b"new bytes, twice as long as the old")
    assert target.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [target]


# every stage the CLI runs, in chain order
CHAIN = ("synth", "mfcc", "train_ubm", "sgmm", "train", "eval")
KILLED = 75


def _file_digests(root):
    """sha256 of every file under root by relative path, leaving out the
    temp files that a killed write leaves behind."""
    return {path.relative_to(root): hashlib.sha256(path.read_bytes()).digest()
            for path in root.rglob("*")
            if path.is_file() and path.suffix != ".tmp"}


def _die_at_write(cfg, stage, n):
    """Run `stage` and call os._exit just before its nth os.replace, as a
    process killed mid-stage would; run it in a child process."""
    calls, replace = itertools.count(1), os.replace
    os.replace = lambda *args: (os._exit(KILLED) if next(calls) == n
                                else replace(*args))
    getattr(pipeline, f"stage_{stage}")(cfg, log=_quiet)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs forked child processes")
def test_a_stage_killed_at_a_write_is_completed_by_rerunning(tiny_cfg,
                                                             tmp_path,
                                                             monkeypatch):
    # a clean build keeps the workdir as each stage found it and counts
    # the stage's os.replace calls
    found, writes = {}, {}
    replace = os.replace
    for stage in CHAIN:
        found[stage] = tmp_path / f"before_{stage}"
        if tiny_cfg.workdir.exists():
            shutil.copytree(tiny_cfg.workdir, found[stage])
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace",
                          lambda *args: (calls.append(args), replace(*args)))
            getattr(pipeline, f"stage_{stage}")(tiny_cfg, log=_quiet)
        writes[stage] = len(calls)
    built = _file_digests(tiny_cfg.workdir)
    cfg = pipeline.PipelineConfig(dict(tiny_cfg.values))
    cfg.set("paths.workdir", str(tmp_path / "killed"))
    # kill each stage at its first, middle and last write, then rerun it
    # and every later stage: the workdir must equal the clean build's
    for i, stage in enumerate(CHAIN):
        for n in sorted({1, (writes[stage] + 1) // 2, writes[stage]}):
            shutil.rmtree(cfg.workdir, ignore_errors=True)
            if found[stage].exists():
                shutil.copytree(found[stage], cfg.workdir)
            child = multiprocessing.get_context("fork").Process(
                target=_die_at_write, args=(cfg, stage, n))
            child.start()
            child.join(timeout=60)
            child.kill()  # only if it hangs; exitcode then stays None
            assert child.exitcode == KILLED, (stage, n)
            for later in CHAIN[i:]:
                getattr(pipeline, f"stage_{later}")(cfg, log=_quiet)
            rebuilt = _file_digests(cfg.workdir)
            differ = sorted(str(path) for path in built.keys() | rebuilt.keys()
                            if built.get(path) != rebuilt.get(path))
            assert not differ, (stage, n, differ)


def _forbidden(*args, **kwargs):
    raise AssertionError("a stale stage's outputs were read")


# --- stdout belongs to the caller -------------------------------------------

def test_stages_and_training_print_nothing_but_their_log(tiny_cfg, capfd):
    # the benchmark reads its result from the last line of its stdout, so
    # nothing it runs may write there on its own, at the fd level included
    lines = []
    for stage in (pipeline.stage_synth, pipeline.stage_mfcc,
                  pipeline.stage_train_ubm, pipeline.stage_sgmm,
                  pipeline.stage_train, pipeline.stage_eval,
                  lambda cfg, log: pipeline.stage_small_sample(cfg, 3, log)):
        stage(tiny_cfg, log=lines.append)
    manifest = audio.read_manifest(tiny_cfg.workdir / "corpus" / "manifest.tsv")
    train_set = pipeline._feature_set(tiny_cfg, manifest,
                                      manifest.for_split("train"))
    net = model.build_model(model.fit_architecture(train_set, 3), seed=7)
    model.train(net, train_set, tiny_cfg.train_config())
    model.evaluate(net, train_set)
    assert lines
    assert capfd.readouterr().out == ""
