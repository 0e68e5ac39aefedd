"""Disk-staged pipeline: declarative config, content-hash gated stages.

`STAGES` declares each cached stage once, a thin cache around the per-step
functions that `model.run_recognition` composes in memory, and `_run` runs
it; `small-sample` and `eval` read what those stages cached.
A stage's record (`<dir>.hash` beside its output directory) holds the
config lines of its chain, and it is the only place that says which
config built an artifact: every reader of the workdir calls
`_require_stage` before it opens a file, and gets the manifest back.
A unit is skipped when its `.hash` sidecar holds the digest of its inputs'
bytes and the config lines of its stage and every stage upstream, so
reruns are no-ops and one seed gives byte-identical artifacts. Writes:
every artifact goes to a temp file that `os.replace` moves into place; a
unit's sidecar is unlinked just before its outputs are replaced and is
written after them; the stage record, which later stages check, is last.
A sidecar vouches for its inputs, not for its outputs' bytes, so every
cached artifact is read through `_read_cached`: a reader that refuses the
file drops the sidecar and names the stage whose rerun rebuilds it.

Every library default lives in the dataclass that uses it; the schema
entries that feed one read their default from it.
"""

import dataclasses
import hashlib
from collections import Counter
from functools import cache
from pathlib import Path
from typing import NamedTuple

from . import gmm as gmm_mod
from . import mfcc as mfcc_mod
from . import model as model_mod
from .atomic import write_atomic
from .audio import read_manifest, read_wav, synth_corpus
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


def _parse_bool(text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# type tag -> (parse stripped text, render value)
_KINDS = {
    "int": (int, str),
    "float": (float, "{:g}".format),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "intlist": (lambda text: tuple(int(v) for v in text.split("/")),
                lambda v: "/".join(str(x) for x in v)),
    "pairlist": (lambda text: tuple((float(lo), float(hi)) for lo, hi in (
        item.split(":") for item in text.split(","))),
                 lambda v: ",".join(f"{lo:g}:{hi:g}" for lo, hi in v)),
    "str": (str, str),
}


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
        sections = dict.fromkeys(key.split(".")[0] for key in CONFIG_SCHEMA)
        return "# pipeline configuration\n" + "".join(
            f"\n{self.section_text(s)}\n" for s in sections)

    def section_text(self, section):
        return "\n".join(f"{k} = {_KINDS[kind][1](self.values[k])}"
                         for k, (kind, *_) in CONFIG_SCHEMA.items()
                         if k.startswith(section + "."))

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
            values[key] = _KINDS[CONFIG_SCHEMA[key][0]][0](value.strip())
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
# Content-hash staging: one runner over the STAGES table
# ---------------------------------------------------------------------------

def _digest(*chunks):
    return hashlib.sha256("\0".join(map(str, chunks)).encode()).hexdigest()


def _sidecar(path):
    return path.with_suffix(path.suffix + ".hash")


def _read_cache(side):
    """Text of a `.hash` sidecar: None, which reads as stale, when it is
    missing or undecodable; CacheError when it cannot be read at all."""
    try:
        return side.read_text(encoding="utf-8")
    except (FileNotFoundError, UnicodeDecodeError):
        return None
    except OSError as exc:
        raise CacheError(f"cannot read hash sidecar {side} "
                         f"({exc.strerror or exc})") from exc


def _fresh(path, digest):
    """True when path exists and its sidecar, read first, holds digest."""
    text = _read_cache(_sidecar(path))
    return text is not None and text.strip() == digest and path.exists()


def _mark(path, digest):
    side = _sidecar(path)
    try:
        write_atomic(side, digest + "\n")
    except OSError as exc:
        raise CacheError(f"cannot write hash sidecar {side} "
                         f"({exc.strerror or exc})") from exc


class _Stage(NamedTuple):
    sections: tuple  # config sections its step reads
    upstream: str    # the stage whose outputs it reads
    outputs: tuple   # paths under the workdir; "{stem}" makes them per clip
    inputs: object   # (cfg, manifest) -> per unit, a tuple of files or text
    step: object     # (cfg, manifest, pending, log) -> yields once per
                     # pending unit, in order, after writing its outputs


def _chain(name):
    """Stage `name` and every stage upstream of it, first stage first."""
    upstream = STAGES[name].upstream
    return (_chain(upstream) if upstream else []) + [name]


def _record(cfg, name):
    """(output directory, record: the sections of `name`'s chain)."""
    sections = dict.fromkeys(s for n in _chain(name)
                             for s in STAGES[n].sections)
    return ((cfg.workdir / STAGES[name].outputs[0]).parent,
            "\n".join(cfg.section_text(s) for s in sections))


def _require_stage(cfg, name):
    """The corpus manifest, once every stage of `name`'s chain has a
    current record; DependencyError naming the first stale one before."""
    for stage in _chain(name):
        out_dir, current = _record(cfg, stage)
        recorded = _read_cache(_sidecar(out_dir))
        if recorded is None or recorded.strip() != current:
            changed = [line for line in current.splitlines()
                       if recorded and line not in recorded.splitlines()]
            raise DependencyError(
                f"`{stage}` has not completed in {cfg.workdir} under "
                f"{', '.join(changed) or 'this config'}; run `{stage}`")
    return read_manifest(_require([cfg.workdir / STAGES["synth"].outputs[0]],
                                  "synth")[0])


def _run(cfg, name, log):
    """Bring stage `name` up to date, as the module docstring sets out; a
    per-clip unit's outputs are named after its last input. Returns a
    per-clip stage's manifest, else its one unit's first output."""
    stage, manifest = STAGES[name], None
    if stage.upstream:
        manifest = _require_stage(cfg, stage.upstream)
    out_dir, text = _record(cfg, name)
    recorded = _fresh(out_dir, text)
    per_clip = "{stem}" in stage.outputs[0]
    units = [(tuple(cfg.workdir / (out.format(stem=ins[-1].stem) if per_clip
                                   else out) for out in stage.outputs), ins)
             for ins in stage.inputs(cfg, manifest)]
    content = cache(lambda x: x if isinstance(x, str) else hashlib.sha256(
        _require([x], stage.upstream)[0].read_bytes()).hexdigest())
    digests = {outs[0]: _digest(text, *map(content, ins))
               for outs, ins in units}
    pending = [(outs, ins) for outs, ins in units if not (
        _fresh(outs[0], digests[outs[0]]) and all(map(Path.exists, outs)))]
    if pending:
        _sidecar(out_dir).unlink(missing_ok=True)
        steps = stage.step(cfg, manifest, pending, log)
        for outs, _ in pending:
            _sidecar(outs[0]).unlink(missing_ok=True)
            next(steps)
            _mark(outs[0], digests[outs[0]])
        next(steps, None)
    if per_clip:
        log(f"{name}: {len(pending)} extracted, {len(units) - len(pending)} "
            f"up to date ({len(units)} clips)")
    elif not pending:
        log(f"{name}: up to date ({units[0][0][0]})")
    if pending or not recorded:
        _mark(out_dir, text)
    return manifest if per_clip else units[0][0][0]


def _read_cached(stage, read, path, *args, unit=None):
    """read(path, *args) of an artifact that `stage` wrote. A FormatError
    first unlinks the `.hash` sidecar that vouches for the file, the one
    of its unit's first output `unit` (path itself by default), so that
    the next run of `stage` rebuilds it; the error then names `stage`."""
    try:
        return read(path, *args)
    except FormatError as exc:
        _sidecar(unit or path).unlink(missing_ok=True)
        raise FormatError(f"{exc}; rerun `{stage}`") from exc


def _require(paths, stage):
    """paths, each of which must exist; `stage` is the one that writes them."""
    for path in paths:
        if not path.exists():
            raise DependencyError(f"missing {path}; run `{stage}` first")
    return paths


def _clip_files(cfg, entries, kind):
    """Every entry's artifact from the per-clip stage `kind` (mfcc, sgmm)."""
    return _require([cfg.workdir / kind / (Path(e.path).stem + "." + kind)
                     for e in entries], kind)


def _feature_set(cfg, manifest, entries):
    """(tensor, label) pairs of the entries, from the sgmm stage."""
    tensors = [_read_cached("sgmm", gmm_mod.load_sgmm, path)
               for path in _clip_files(cfg, entries, "sgmm")]
    return list(zip(tensors, model_mod.label_indices(manifest, entries)))


def _fit(cfg, manifest, entries):
    """(network, history): the classifier trained on the entries' tensors."""
    train_set = _feature_set(cfg, manifest, entries)
    arch = model_mod.fit_architecture(train_set, len(manifest.device_ids()),
                                      **cfg.arch_kwargs())
    net = model_mod.build_model(arch, seed=cfg.get("train.seed"))
    return net, model_mod.train(net, train_set, cfg.train_config())


def _read_arch(path):
    """(input_dims, labels) of an arch.txt written by `train`. Other keys
    are ignored: older builds also wrote `n_classes` and the `arch.*`
    lines, which the `train` stage record holds."""
    try:
        fields = dict(line.split(" = ", 1) for line in
                      path.read_text(encoding="utf-8").splitlines())
        dims = tuple(int(v) for v in fields["input_dims"].split("/"))
        labels = fields["labels"].split(",")
    except (UnicodeDecodeError, ValueError, KeyError) as exc:
        raise FormatError(f"{path}: malformed architecture record") from exc
    if len(dims) != 3:
        raise FormatError(f"{path}: input_dims needs three extents")
    return dims, labels


def _write_metrics(out_dir, metrics, log):
    write_atomic(out_dir / "metrics.txt", metrics.report() + "\n")
    write_atomic(out_dir / "metrics.kv", metrics.kv_records() + "\n")
    write_atomic(out_dir / "confusion.csv", metrics.confusion_csv() + "\n")
    log(metrics.report())


def _synth_step(cfg, manifest, pending, log):
    (path,), _ = pending[0]
    manifest = synth_corpus(
        *map(cfg.get, ("corpus.devices", "corpus.clips",
                       "corpus.train_fraction", "corpus.sample_rate",
                       "corpus.seed")), path.parent,
        clip_seconds=cfg.get("corpus.clip_seconds"),
        noise_level=cfg.get("corpus.noise_level"))
    yield
    log(f"synth: wrote {len(manifest.entries)} clips to {path.parent}")
    counts = Counter((e.device_id, e.split) for e in manifest.entries)
    for device in manifest.device_ids():
        log(f"  {device}: {counts[device, 'train']} train / "
            f"{counts[device, 'test']} test")
    log(f"synth: manifest {path}")


# like synth_corpus, a per-clip step computes every pending clip before it
# writes the first: writing each one as soon as it is done measured slower
def _mfcc_step(cfg, manifest, pending, log):
    frame_cfg, mel_cfg = cfg.frame_config(), cfg.mel_config()
    cepstra = [model_mod.clip_mfcc(wav, read_wav(wav), manifest.sample_rate,
                                   frame_cfg, mel_cfg)
               for _, (wav,) in pending]
    for ((path,), _), result in zip(pending, cepstra):
        mfcc_mod.save_mfcc(path, result)
        yield


def _ubm_step(cfg, manifest, pending, log):
    (ubm_path,), mfcc_paths = pending[0]
    feats = [_read_cached("mfcc", mfcc_mod.load_mfcc, path,
                          cfg.frame_config(), cfg.mel_config())
             for path in mfcc_paths]
    gmm_cfg = cfg.gmm_config()
    ubm = model_mod.train_ubm(feats, gmm_cfg)
    gmm_mod.save_gmm(ubm_path, ubm)
    yield
    diag = ubm.diagnostics
    n_frames = sum(f.n_frames for f in feats)
    log(f"train-ubm: G={gmm_cfg.n_components} on {n_frames} frames, "
        f"{diag['iterations']} iterations, "
        f"final log-likelihood/frame {diag['log_likelihoods'][-1] / n_frames:.4f}")
    for i, ll in enumerate(diag["log_likelihoods"], start=1):
        log(f"  iter {i}: total log-likelihood {ll:.2f}")


def _sgmm_step(cfg, manifest, pending, log):
    _, (ubm_path, _) = pending[0]
    ubm = _read_cached("train-ubm", gmm_mod.load_gmm, ubm_path)
    gmm_cfg = cfg.gmm_config()
    tensors = [gmm_mod.extract_sgmm(
        ubm, _read_cached("mfcc", mfcc_mod.load_mfcc, src),
        gmm_cfg.seg_frames, gmm_cfg.relevance) for _, (_, src) in pending]
    for ((path,), _), result in zip(pending, tensors):
        gmm_mod.save_sgmm(path, result)
        yield


def _train_step(cfg, manifest, pending, log):
    (ckpt, arch_path, history_path), _ = pending[0]
    net, history = _fit(cfg, manifest, manifest.for_split("train"))
    save_checkpoint(ckpt, net.state_arrays())
    write_atomic(history_path, "epoch,lr,loss,train_acc\n" + "".join(
        f"{h['epoch']},{h['lr']},{h['loss']},{h['train_acc']}\n"
        for h in history))
    # the train stage record holds the arch.* lines the network was built
    # under; arch.txt keeps what only the data says
    m, g, t = net.arch.input_dims
    write_atomic(arch_path, f"input_dims = {m}/{g}/{t}\n"
                 f"labels = {','.join(manifest.device_ids())}\n")
    yield
    log(f"train: {len(history)} epochs, final loss {history[-1]['loss']:.4f}, "
        f"train accuracy {history[-1]['train_acc']:.4f}")
    log(f"train: checkpoint {ckpt}")


STAGES = {
    "synth": _Stage(("corpus",), None, ("corpus/manifest.tsv",),
                    lambda cfg, manifest: [()], _synth_step),
    "mfcc": _Stage(("dsp",), "synth", ("mfcc/{stem}.mfcc",),
                   lambda cfg, manifest: [(manifest.resolve(e),)
                                          for e in manifest.entries],
                   _mfcc_step),
    "train-ubm": _Stage(("gmm",), "mfcc", ("ubm/ubm.dgmm",),
                        lambda cfg, manifest: [tuple(_clip_files(
                            cfg, manifest.for_split("train"), "mfcc"))],
                        _ubm_step),
    "sgmm": _Stage(("gmm",), "train-ubm", ("sgmm/{stem}.sgmm",),
                   lambda cfg, manifest: [
                       (cfg.workdir / "ubm" / "ubm.dgmm", src)
                       for src in _clip_files(cfg, manifest.entries, "mfcc")],
                   _sgmm_step),
    # arch.txt records the labels, so they are an input of train
    "train": _Stage(("arch", "train"), "sgmm",
                    ("model/model.ckpt", "model/arch.txt", "model/history.csv"),
                    lambda cfg, manifest: [(
                        ",".join(manifest.device_ids()),
                        *_clip_files(cfg, manifest.for_split("train"), "sgmm"))],
                    _train_step),
}


def stage_synth(cfg, log=print):
    return _run(cfg, "synth", log)


def stage_mfcc(cfg, log=print):
    return _run(cfg, "mfcc", log)


def stage_train_ubm(cfg, log=print):
    return _run(cfg, "train-ubm", log)


def stage_sgmm(cfg, log=print):
    return _run(cfg, "sgmm", log)


def stage_train(cfg, log=print):
    return _run(cfg, "train", log)


def stage_eval(cfg, log=print):
    """Evaluate the checkpoint on the test split, the only one it reads.

    The records of the whole `train` chain must match the config before
    any file is opened: they hold every config line the checkpoint was
    built under, so a changed `arch.*` key or tensors rebuilt at another
    `gmm.*` value raise DependencyError naming the stale stage and line.
    Three checks no record covers follow, each before any network is
    built or anything written: the manifest's labels against the arch.txt
    that `train` wrote (a hand-edited manifest), every test tensor's shape
    against its input dims (a replaced `.sgmm`), and the checkpoint's fit
    to the network, array for array (an older layout). An unreadable
    arch.txt or checkpoint, or one that does not fit, also drops the
    checkpoint's sidecar, so the next `train` rewrites both instead of
    calling them up to date.
    """
    manifest = _require_stage(cfg, "train")
    ckpt, arch_path = _require([cfg.workdir / "model" / "model.ckpt",
                                cfg.workdir / "model" / "arch.txt"], "train")
    input_dims, label_order = _read_cached("train", _read_arch, arch_path,
                                           unit=ckpt)
    if label_order != manifest.device_ids():
        raise DataError(f"checkpoint labels {','.join(label_order)} differ "
                        f"from the manifest's "
                        f"{','.join(manifest.device_ids())}; rerun `train`")
    test_set = _feature_set(cfg, manifest, manifest.for_split("test"))
    stale = sorted({t.data.shape for t, _ in test_set} - {input_dims})
    if stale:
        raise DataError(f"test tensors of shape {stale} do not match the "
                        f"checkpoint's input dims {input_dims}; "
                        f"rerun `train`")
    arch = ArchitectureConfig(input_dims, len(label_order),
                              **cfg.arch_kwargs())
    net = model_mod.build_model(arch, seed=cfg.get("train.seed"))
    try:
        net.load_state(_read_cached("train", load_checkpoint, ckpt))
    except (ConfigError, ShapeError) as exc:
        _sidecar(ckpt).unlink(missing_ok=True)
        raise DataError(f"{ckpt} does not fit the configured network "
                        f"({exc}); rerun `train`") from exc
    metrics = model_mod.evaluate(net, test_set, label_order=label_order)
    _write_metrics(cfg.workdir / "eval", metrics, log)
    log(f"eval: accuracy {metrics.accuracy:.4f}")
    return metrics


def stage_ablate(cfg, log=print):
    manifest = _require_stage(cfg, "synth")
    frame_cfgs = [FrameConfig(fl, fs) for fl, fs in cfg.get("ablate.frame_grid")]
    mel_cfgs = [dataclasses.replace(cfg.mel_config(), f_low=lo, f_high=hi)
                for lo, hi in cfg.get("ablate.band_grid")]
    rows = model_mod.ablate_frontend(frame_cfgs, mel_cfgs, manifest)
    header = "frame_len_ms,frame_shift_ms,f_low,f_high,accuracy\n"
    write_atomic(cfg.workdir / "ablate" / "ablate.csv", header + "".join(
        f"{r['frame_len_ms']},{r['frame_shift_ms']},{r['f_low']},"
        f"{r['f_high']},{r['accuracy']}\n" for r in rows))
    log(model_mod.format_ablation_table(rows))
    return rows


def stage_small_sample(cfg, n_train, log=print):
    """The classifier trained on n_train `sgmm` tensors per device and
    evaluated on the test split's; the UBM behind every tensor is the
    `train-ubm` stage's, fit on the full train split."""
    manifest = _require_stage(cfg, "sgmm")
    train_entries, test_entries, _ = model_mod.small_sample_split(
        manifest, n_train, cfg.get("train.seed"))
    net, _ = _fit(cfg, manifest, train_entries)
    metrics = model_mod.evaluate(net, _feature_set(cfg, manifest, test_entries),
                                 label_order=manifest.device_ids())
    _write_metrics(cfg.workdir / "small_sample", metrics, log)
    log(f"small-sample: n={n_train}/class, accuracy {metrics.accuracy:.4f}")
    return metrics


def stage_gradcheck(log=print):
    from .nn import gradcheck
    results = gradcheck.run_all()
    ok = True
    for name, err, passed in results:
        log(f"gradcheck {name:24s} max rel err {err:.3e} "
            f"{'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return ok
