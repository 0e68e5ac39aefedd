"""Disk-staged pipeline: declarative config, content-hash gated stages.

Each stage is a thin cache around the per-step functions of `model`, the
ones `model.recognize` composes in memory. It names its outputs
deterministically, records a sidecar hash of its inputs, and skips work
when the hash matches, so reruns are no-ops and two runs from one seed
produce byte-identical artifacts. File I/O stays in this module.

Every library default lives in the dataclass that uses it; the schema
entries that feed one read their default from it.
"""

import dataclasses
import hashlib
from collections import Counter
from functools import partial
from pathlib import Path

from . import gmm as gmm_mod
from . import mfcc as mfcc_mod
from . import model as model_mod
from .audio import map_jobs, read_manifest, read_wav, synth_corpus
from .errors import (CacheError, ConfigError, DataError, DependencyError,
                     FormatError, ShapeError)
from .mfcc import FrameConfig, MelConfig
from .model import ArchitectureConfig, GmmConfig, TrainConfig
from .nn import load_checkpoint, save_checkpoint


def _feeds(kind, cls, name):
    """Schema entry of a key that feeds field `name` of dataclass `cls`."""
    default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
    return kind, default, cls, name


# section.key -> (type tag, default[, dataclass, field it feeds]). Order
# fixes the canonical rendering.
CONFIG_SCHEMA = {
    "corpus.devices": ("int", 5),
    "corpus.clips": ("int", 40),
    "corpus.train_fraction": ("float", 0.75),
    "corpus.sample_rate": ("int", 16000),
    "corpus.clip_seconds": ("float", 4.0),
    "corpus.noise_level": ("float", 0.04),
    "corpus.seed": ("int", 0),
    "dsp.frame_len_ms": _feeds("float", FrameConfig, "frame_len_ms"),
    "dsp.frame_shift_ms": _feeds("float", FrameConfig, "frame_shift_ms"),
    "dsp.f_low": _feeds("float", MelConfig, "f_low"),
    "dsp.f_high": _feeds("float", MelConfig, "f_high"),
    "dsp.n_filters": _feeds("int", MelConfig, "n_filters"),
    "dsp.n_ceps": _feeds("int", MelConfig, "n_ceps"),
    "dsp.include_c0": _feeds("bool", MelConfig, "include_c0"),
    "gmm.components": _feeds("int", GmmConfig, "n_components"),
    "gmm.seg_frames": _feeds("int", GmmConfig, "seg_frames"),
    "gmm.relevance": _feeds("float", GmmConfig, "relevance"),
    "gmm.em_iters": _feeds("int", GmmConfig, "em_iters"),
    "gmm.em_tol": _feeds("float", GmmConfig, "em_tol"),
    "gmm.seed": _feeds("int", GmmConfig, "seed"),
    "arch.channels": _feeds("intlist", ArchitectureConfig, "channels"),
    "arch.kernel_t": _feeds("int", ArchitectureConfig, "kernel_t"),
    "arch.hidden": _feeds("int", ArchitectureConfig, "hidden"),
    "arch.attention": _feeds("bool", ArchitectureConfig, "attention"),
    "train.lr": _feeds("float", TrainConfig, "initial_lr"),
    "train.decay_every": _feeds("int", TrainConfig, "lr_decay_every"),
    "train.decay_factor": _feeds("float", TrainConfig, "lr_decay_factor"),
    "train.epochs": _feeds("int", TrainConfig, "epochs"),
    "train.batch": _feeds("int", TrainConfig, "batch_size"),
    "train.seed": _feeds("int", TrainConfig, "seed"),
    "ablate.frame_grid": ("pairlist", ((256.0, 64.0),)),
    "ablate.band_grid": ("pairlist", ((0.0, 8000.0),)),
    "paths.workdir": ("str", "work"),
}


def _parse_value(kind, text):
    text = text.strip()
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "bool":
        if text.lower() in ("true", "yes", "1"):
            return True
        if text.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}")
    if kind == "intlist":
        return tuple(int(v) for v in text.split("/"))
    if kind == "pairlist":
        pairs = []
        for item in text.split(","):
            lo, hi = item.split(":")
            pairs.append((float(lo), float(hi)))
        return tuple(pairs)
    return text


def _render_value(kind, value):
    if kind == "bool":
        return "true" if value else "false"
    if kind == "intlist":
        return "/".join(str(v) for v in value)
    if kind == "pairlist":
        return ",".join(f"{lo:g}:{hi:g}" for lo, hi in value)
    if kind == "float":
        return f"{value:g}"
    return str(value)


class PipelineConfig:
    """Flat `section.key = value` configuration with full defaults."""

    def __init__(self, values=None):
        self.values = {k: spec[1] for k, spec in CONFIG_SCHEMA.items()}
        for key, val in (values or {}).items():
            self.set(key, val)

    def __eq__(self, other):
        return isinstance(other, PipelineConfig) and self.values == other.values

    def get(self, key):
        return self.values[key]

    def set(self, key, value):
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = value

    def canonical_text(self):
        lines = ["# pipeline configuration"]
        section = None
        for key, (kind, *_) in CONFIG_SCHEMA.items():
            sec = key.split(".")[0]
            if sec != section:
                lines.append("")
                section = sec
            lines.append(f"{key} = {_render_value(kind, self.values[key])}")
        return "\n".join(lines) + "\n"

    def section_text(self, section):
        keys = [k for k in CONFIG_SCHEMA if k.startswith(section + ".")]
        return "\n".join(
            f"{k} = {_render_value(CONFIG_SCHEMA[k][0], self.values[k])}"
            for k in keys)

    # typed views consumed by the library layer
    def _fields(self, cls):
        """The values of every key that feeds dataclass cls, by field."""
        return {spec[3]: self.values[key]
                for key, spec in CONFIG_SCHEMA.items()
                if len(spec) == 4 and spec[2] is cls}

    def frame_config(self):
        return FrameConfig(**self._fields(FrameConfig))

    def mel_config(self):
        return MelConfig(**self._fields(MelConfig))

    def gmm_config(self):
        return GmmConfig(**self._fields(GmmConfig))

    def train_config(self):
        return TrainConfig(**self._fields(TrainConfig))

    def arch_kwargs(self):
        return self._fields(ArchitectureConfig)

    @property
    def workdir(self):
        return Path(self.get("paths.workdir"))


def parse_config_text(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `section.key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(CONFIG_SCHEMA[key][0], value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
    return PipelineConfig(values)


def load_config(path=None):
    if path is None:
        return PipelineConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8 text") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config "
                          f"({exc.strerror or exc})") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Content-hash staging
# ---------------------------------------------------------------------------

def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _sidecar(path):
    path = Path(path)
    return path.with_suffix(path.suffix + ".hash")


def _fresh(path, digest):
    """True when path exists and its sidecar holds digest. An undecodable
    sidecar reads as stale, so the stage rebuilds; one that cannot be read
    at all (a directory, say) raises CacheError, even beside a missing
    output, so the stage fails before its work and not at `_mark`."""
    path = Path(path)
    side = _sidecar(path)
    if not side.exists():
        return False
    try:
        text = side.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return False
    except OSError as exc:
        raise CacheError(f"cannot read hash sidecar {side} "
                         f"({exc.strerror or exc})") from exc
    return path.exists() and text.strip() == digest


def _mark(path, digest):
    side = _sidecar(path)
    try:
        side.write_text(digest + "\n")
    except OSError as exc:
        raise CacheError(f"cannot write hash sidecar {side} "
                         f"({exc.strerror or exc})") from exc


def _file_digest(path):
    return _digest(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_synth(cfg, jobs=1, log=print):
    out_dir = cfg.workdir / "corpus"
    manifest_path = out_dir / "manifest.tsv"
    digest = _digest(cfg.section_text("corpus"))
    if _fresh(manifest_path, digest):
        log(f"synth: up to date ({manifest_path})")
        return manifest_path
    manifest = synth_corpus(cfg.get("corpus.devices"),
                            cfg.get("corpus.clips"),
                            cfg.get("corpus.train_fraction"),
                            cfg.get("corpus.sample_rate"),
                            cfg.get("corpus.seed"),
                            out_dir,
                            clip_seconds=cfg.get("corpus.clip_seconds"),
                            noise_level=cfg.get("corpus.noise_level"),
                            jobs=jobs)
    _mark(manifest_path, digest)
    log(f"synth: wrote {len(manifest.entries)} clips to {out_dir}")
    counts = Counter((e.device_id, e.split) for e in manifest.entries)
    for device in manifest.device_ids():
        log(f"  {device}: {counts[device, 'train']} train / "
            f"{counts[device, 'test']} test")
    log(f"synth: manifest {manifest_path}")
    return manifest_path


def _require(paths, stage):
    """paths, each of which must exist; `stage` is the one that writes them."""
    for path in paths:
        if not path.exists():
            raise DependencyError(f"missing {path}; run `{stage}` first")
    return paths


def _require_manifest(cfg):
    path = _require([cfg.workdir / "corpus" / "manifest.tsv"], "synth")[0]
    return read_manifest(path)


def _clip_files(cfg, entries, kind):
    """Every entry's artifact from the per-clip stage `kind` (mfcc, sgmm)."""
    return _require([cfg.workdir / kind / (Path(e.path).stem + "." + kind)
                     for e in entries], kind)


def _cached_per_clip(cfg, kind, sources, key, job, save, jobs, log):
    """The cache loop of the per-clip stages.

    A clip's output, named after its source under workdir/kind, is up to
    date when its sidecar holds the digest of key plus the source bytes.
    The other sources go through map_jobs(job, ...) and each result is
    saved and marked, in clip order.
    """
    out_dir = cfg.workdir / kind
    out_dir.mkdir(parents=True, exist_ok=True)
    pending = []
    for src in sources:
        out = out_dir / (src.stem + "." + kind)
        digest = _digest(*key, _file_digest(src))
        if not _fresh(out, digest):
            pending.append((src, out, digest))
    results = map_jobs(job, [src for src, _, _ in pending], jobs)
    for (_, out, digest), result in zip(pending, results):
        save(out, result)
        _mark(out, digest)
    log(f"{kind}: {len(pending)} extracted, "
        f"{len(sources) - len(pending)} up to date ({len(sources)} clips)")


# module-level jobs, so they can cross a process pool boundary
def _mfcc_job(wav_path, sample_rate, frame_cfg, mel_cfg):
    return model_mod.clip_mfcc(wav_path, read_wav(wav_path), sample_rate,
                               frame_cfg, mel_cfg)


def _sgmm_job(mfcc_path, ubm, gmm_cfg):
    return gmm_mod.extract_sgmm(ubm, mfcc_mod.load_mfcc(mfcc_path),
                                gmm_cfg.seg_frames, gmm_cfg.relevance)


def stage_mfcc(cfg, jobs=1, log=print):
    manifest = _require_manifest(cfg)
    wavs = _require([manifest.resolve(e) for e in manifest.entries], "synth")
    job = partial(_mfcc_job, sample_rate=manifest.sample_rate,
                  frame_cfg=cfg.frame_config(), mel_cfg=cfg.mel_config())
    _cached_per_clip(cfg, "mfcc", wavs, (cfg.section_text("dsp"),), job,
                     mfcc_mod.save_mfcc, jobs, log)
    return manifest


def _load_stage_mfcc(cfg, entries):
    return [mfcc_mod.load_mfcc(path, cfg.frame_config(), cfg.mel_config())
            for path in _clip_files(cfg, entries, "mfcc")]


def stage_train_ubm(cfg, log=print):
    manifest = _require_manifest(cfg)
    train_entries = manifest.for_split("train")
    digest = _digest(cfg.section_text("gmm"),
                     *[_file_digest(path) for path in
                       _clip_files(cfg, train_entries, "mfcc")],
                     len(train_entries))
    out = cfg.workdir / "ubm" / "ubm.dgmm"
    if _fresh(out, digest):
        log(f"train-ubm: up to date ({out})")
        return out
    feats = _load_stage_mfcc(cfg, train_entries)
    gmm_cfg = cfg.gmm_config()
    ubm = model_mod.train_ubm(feats, gmm_cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    gmm_mod.save_gmm(out, ubm)
    _mark(out, digest)
    diag = ubm.diagnostics
    n_frames = sum(f.n_frames for f in feats)
    log(f"train-ubm: G={gmm_cfg.n_components} on {n_frames} frames, "
        f"{diag['iterations']} iterations, "
        f"final log-likelihood/frame {diag['log_likelihoods'][-1] / n_frames:.4f}")
    for i, ll in enumerate(diag["log_likelihoods"], start=1):
        log(f"  iter {i}: total log-likelihood {ll:.2f}")
    return out


def stage_sgmm(cfg, jobs=1, log=print):
    manifest = _require_manifest(cfg)
    ubm_path = _require([cfg.workdir / "ubm" / "ubm.dgmm"], "train-ubm")[0]
    job = partial(_sgmm_job, ubm=gmm_mod.load_gmm(ubm_path),
                  gmm_cfg=cfg.gmm_config())
    _cached_per_clip(cfg, "sgmm", _clip_files(cfg, manifest.entries, "mfcc"),
                     (cfg.section_text("gmm"), _file_digest(ubm_path)), job,
                     gmm_mod.save_sgmm, jobs, log)
    return manifest


def _feature_set(cfg, manifest, split):
    """(tensor, label) pairs of one split, from the sgmm stage."""
    entries = manifest.for_split(split)
    tensors = [gmm_mod.load_sgmm(path)
               for path in _clip_files(cfg, entries, "sgmm")]
    return list(zip(tensors, model_mod.label_indices(manifest, entries)))


def _arch_text(arch, labels, arch_section):
    """arch.txt: the input dims, labels and `arch.*` section a checkpoint
    was trained with."""
    m, g, t = arch.input_dims
    return (f"input_dims = {m}/{g}/{t}\nn_classes = {arch.n_classes}\n"
            f"labels = {','.join(labels)}\n{arch_section}\n")


def _key_values(text):
    return dict(line.split(" = ", 1) for line in text.splitlines())


def _read_arch(path):
    """(input_dims, labels, {arch.* key: rendered value}) of an arch.txt
    written by `_arch_text`. A record written before the `arch.*` lines
    were added yields an empty dict."""
    try:
        fields = _key_values(path.read_text(encoding="utf-8"))
        dims = tuple(int(v) for v in fields["input_dims"].split("/"))
        n_classes = int(fields["n_classes"])
        labels = fields["labels"].split(",")
    except (UnicodeDecodeError, ValueError, KeyError) as exc:
        raise FormatError(f"{path}: malformed architecture record") from exc
    if len(dims) != 3 or n_classes != len(labels):
        raise FormatError(f"{path}: input_dims needs three extents and "
                          f"n_classes must count the labels")
    return dims, labels, {k: v for k, v in fields.items()
                          if k.startswith("arch.")}


def _arch_record(path):
    """`_read_arch` of path, or None when it is missing or unreadable."""
    try:
        return _read_arch(path)
    except (OSError, FormatError):
        return None


def _write_metrics(out_dir, metrics, log):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.txt").write_text(metrics.report() + "\n")
    (out_dir / "metrics.kv").write_text(metrics.kv_records() + "\n")
    (out_dir / "confusion.csv").write_text(metrics.confusion_csv() + "\n")
    log(metrics.report())


def stage_train(cfg, log=print):
    """Train and checkpoint the network, unless the checkpoint's digest
    (the `arch.*` and `train.*` sections and the train tensors' bytes)
    still holds.

    An up-to-date checkpoint whose arch.txt is missing, unreadable or does
    not record the current `arch.*` section gets its arch.txt rewritten
    from the train split's shapes, the labels and that section, all of
    which the digest vouches for, without training again. A record that
    names other labels retrains: the digest does not cover the labels.
    """
    manifest = _require_manifest(cfg)
    train_files = _clip_files(cfg, manifest.for_split("train"), "sgmm")
    arch_section = cfg.section_text("arch")
    digest = _digest(arch_section, cfg.section_text("train"),
                     *[_file_digest(path) for path in train_files])
    out = cfg.workdir / "model" / "model.ckpt"
    arch_path = out.parent / "arch.txt"
    label_order = manifest.device_ids()
    fresh = _fresh(out, digest)
    record = _arch_record(arch_path) if fresh else None
    if fresh and (record is None or record[1] == label_order):
        log(f"train: up to date ({out})")
        if record is None or record[2] != _key_values(arch_section):
            arch = model_mod.fit_architecture(
                _feature_set(cfg, manifest, "train"), len(label_order),
                **cfg.arch_kwargs())
            arch_path.write_text(_arch_text(arch, label_order, arch_section))
            log(f"train: rewrote {arch_path}")
        return out
    train_set = _feature_set(cfg, manifest, "train")
    arch = model_mod.fit_architecture(train_set, len(label_order),
                                      **cfg.arch_kwargs())
    net = model_mod.build_model(arch, seed=cfg.get("train.seed"))
    history = model_mod.train(net, train_set, cfg.train_config())
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, net.state_arrays())
    lines = ["epoch,lr,loss,train_acc"]
    lines += [f"{h['epoch']},{h['lr']},{h['loss']},{h['train_acc']}"
              for h in history]
    (out.parent / "history.csv").write_text("\n".join(lines) + "\n")
    arch_path.write_text(_arch_text(arch, label_order, arch_section))
    _mark(out, digest)
    log(f"train: {len(history)} epochs, final loss {history[-1]['loss']:.4f}, "
        f"train accuracy {history[-1]['train_acc']:.4f}")
    log(f"train: checkpoint {out}")
    return out


def stage_eval(cfg, log=print):
    """Evaluate the checkpoint on the test split, the only one it reads.

    The test tensors and the manifest's labels must match the arch.txt
    that `train` wrote with the checkpoint; they are checked before any
    network is built, and so is the `arch.*` section it recorded against
    the config's: a flipped `arch.attention` changes no array, so only
    the record shows it. The checkpoint must then fit the network array
    for array.
    """
    manifest = _require_manifest(cfg)
    ckpt, arch_path = _require([cfg.workdir / "model" / "model.ckpt",
                                cfg.workdir / "model" / "arch.txt"], "train")
    input_dims, label_order, trained_arch = _read_arch(arch_path)
    current_arch = _key_values(cfg.section_text("arch"))
    changed = [f"{key} = {value}" for key, value in trained_arch.items()
               if current_arch.get(key) != value]
    if changed:
        raise DataError(f"checkpoint was trained with {', '.join(changed)}, "
                        f"which the config no longer says; rerun `train`")
    if label_order != manifest.device_ids():
        raise DataError(f"checkpoint labels {','.join(label_order)} differ "
                        f"from the manifest's "
                        f"{','.join(manifest.device_ids())}; rerun `train`")
    test_set = _feature_set(cfg, manifest, "test")
    stale = sorted({t.data.shape for t, _ in test_set} - {input_dims})
    if stale:
        raise DataError(f"test tensors of shape {stale} do not match the "
                        f"checkpoint's input dims {input_dims}; "
                        f"rerun `train`")
    arch = ArchitectureConfig(input_dims, len(label_order),
                              **cfg.arch_kwargs())
    net = model_mod.build_model(arch, seed=cfg.get("train.seed"))
    try:
        net.load_state(load_checkpoint(ckpt))
    except (ConfigError, ShapeError) as exc:
        raise DataError(f"{ckpt} does not fit the configured network "
                        f"({exc}); rerun `train`") from exc
    metrics = model_mod.evaluate(net, test_set, label_order=label_order)
    _write_metrics(cfg.workdir / "eval", metrics, log)
    log(f"eval: accuracy {metrics.accuracy:.4f}")
    return metrics


def stage_ablate(cfg, log=print):
    manifest = _require_manifest(cfg)
    frame_cfgs = [FrameConfig(fl, fs) for fl, fs in cfg.get("ablate.frame_grid")]
    mel_cfgs = [dataclasses.replace(cfg.mel_config(), f_low=lo, f_high=hi)
                for lo, hi in cfg.get("ablate.band_grid")]
    rows = model_mod.ablate_frontend(frame_cfgs, mel_cfgs, manifest)
    out_dir = cfg.workdir / "ablate"
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_lines = ["frame_len_ms,frame_shift_ms,f_low,f_high,accuracy"]
    csv_lines += [f"{r['frame_len_ms']},{r['frame_shift_ms']},{r['f_low']},"
                  f"{r['f_high']},{r['accuracy']}" for r in rows]
    (out_dir / "ablate.csv").write_text("\n".join(csv_lines) + "\n")
    log(model_mod.format_ablation_table(rows))
    return rows


def stage_small_sample(cfg, n_train, log=print):
    manifest = _require_manifest(cfg)
    mfccs = dict(zip((e.path for e in manifest.entries),
                     _load_stage_mfcc(cfg, manifest.entries)))
    result = model_mod.recognize(
        manifest, mfccs, cfg.gmm_config(), cfg.train_config(),
        *model_mod.small_sample_split(manifest, n_train, cfg.get("train.seed")),
        **cfg.arch_kwargs())
    _write_metrics(cfg.workdir / "small_sample", result.metrics, log)
    log(f"small-sample: n={n_train}/class, accuracy "
        f"{result.metrics.accuracy:.4f}")
    return result.metrics


def stage_gradcheck(log=print):
    from .nn import gradcheck
    results = gradcheck.run_all()
    ok = True
    for name, err, passed in results:
        log(f"gradcheck {name:24s} max rel err {err:.3e} "
            f"{'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return ok
