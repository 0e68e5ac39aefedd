"""Disk-staged pipeline: declarative config, content-hash gated stages.

Every stage names its outputs deterministically, records a sidecar hash of
its inputs, and skips work when the hash matches, so reruns are no-ops and
two runs from one seed produce byte-identical artifacts.
"""

import hashlib
from pathlib import Path

from . import gmm as gmm_mod
from . import mfcc as mfcc_mod
from . import model as model_mod
from .audio import map_jobs, read_manifest, read_wav, synth_corpus
from .errors import ConfigError, DependencyError

# section.key -> (type tag, default). Order fixes the canonical rendering.
CONFIG_SCHEMA = {
    "corpus.devices": ("int", 5),
    "corpus.clips": ("int", 40),
    "corpus.train_fraction": ("float", 0.75),
    "corpus.sample_rate": ("int", 16000),
    "corpus.clip_seconds": ("float", 4.0),
    "corpus.noise_level": ("float", 0.04),
    "corpus.seed": ("int", 0),
    "dsp.frame_len_ms": ("float", 256.0),
    "dsp.frame_shift_ms": ("float", 64.0),
    "dsp.f_low": ("float", 0.0),
    "dsp.f_high": ("float", 8000.0),
    "dsp.n_filters": ("int", 26),
    "dsp.n_ceps": ("int", 12),
    "dsp.include_c0": ("bool", True),
    "gmm.components": ("int", 64),
    "gmm.seg_frames": ("int", 10),
    "gmm.relevance": ("float", 4.0),
    "gmm.em_iters": ("int", 50),
    "gmm.em_tol": ("float", 1e-3),
    "gmm.seed": ("int", 0),
    "arch.channels": ("intlist", (8, 16, 32)),
    "arch.kernel_t": ("int", 1),
    "arch.hidden": ("int", 64),
    "arch.attention": ("bool", True),
    "train.lr": ("float", 0.002),
    "train.decay_every": ("int", 100),
    "train.decay_factor": ("float", 0.1),
    "train.epochs": ("int", 250),
    "train.batch": ("int", 16),
    "train.seed": ("int", 0),
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
        self.values = {k: default for k, (_, default) in CONFIG_SCHEMA.items()}
        if values:
            for key, val in values.items():
                if key not in CONFIG_SCHEMA:
                    raise ConfigError(f"unknown config key {key!r}")
                self.values[key] = val

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
        for key in CONFIG_SCHEMA:
            kind, _ = CONFIG_SCHEMA[key]
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
    def frame_config(self):
        return mfcc_mod.FrameConfig(self.get("dsp.frame_len_ms"),
                                    self.get("dsp.frame_shift_ms"))

    def mel_config(self):
        return mfcc_mod.MelConfig(self.get("dsp.n_filters"),
                                  self.get("dsp.f_low"),
                                  self.get("dsp.f_high"),
                                  self.get("dsp.n_ceps"),
                                  self.get("dsp.include_c0"))

    def gmm_config(self):
        return model_mod.GmmConfig(self.get("gmm.components"),
                                   self.get("gmm.seg_frames"),
                                   self.get("gmm.relevance"),
                                   self.get("gmm.em_iters"),
                                   self.get("gmm.em_tol"),
                                   self.get("gmm.seed"))

    def train_config(self):
        return model_mod.TrainConfig(self.get("train.lr"),
                                     self.get("train.decay_every"),
                                     self.get("train.decay_factor"),
                                     self.get("train.epochs"),
                                     self.get("train.batch"),
                                     self.get("train.seed"))

    def arch_kwargs(self):
        return {"channels": self.get("arch.channels"),
                "kernel_t": self.get("arch.kernel_t"),
                "hidden": self.get("arch.hidden"),
                "attention": self.get("arch.attention")}

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
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


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
    path = Path(path)
    side = _sidecar(path)
    return (path.exists() and side.exists()
            and side.read_text().strip() == digest)


def _mark(path, digest):
    _sidecar(path).write_text(digest + "\n")


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
    for device in manifest.device_ids():
        n_train = sum(1 for e in manifest.entries
                      if e.device_id == device and e.split == "train")
        n_test = sum(1 for e in manifest.entries
                     if e.device_id == device and e.split == "test")
        log(f"  {device}: {n_train} train / {n_test} test")
    log(f"synth: manifest {manifest_path}")
    return manifest_path


def _require_manifest(cfg):
    manifest_path = cfg.workdir / "corpus" / "manifest.tsv"
    if not manifest_path.exists():
        raise DependencyError(f"missing {manifest_path}; run `synth` first")
    return read_manifest(manifest_path)


def _mfcc_path(cfg, entry):
    return cfg.workdir / "mfcc" / (Path(entry.path).stem + ".mfcc")


def _sgmm_path(cfg, entry):
    return cfg.workdir / "sgmm" / (Path(entry.path).stem + ".sgmm")


def _extract_one_mfcc(args):
    wav_path, sample_rate, frame_cfg, mel_cfg = args
    clip = read_wav(wav_path)
    if clip.sample_rate != sample_rate:
        raise ConfigError(f"{wav_path}: sample rate {clip.sample_rate} does "
                          f"not match manifest {sample_rate}")
    return mfcc_mod.extract_mfcc(clip, frame_cfg, mel_cfg)


def stage_mfcc(cfg, jobs=1, log=print):
    manifest = _require_manifest(cfg)
    (cfg.workdir / "mfcc").mkdir(parents=True, exist_ok=True)
    frame_cfg, mel_cfg = cfg.frame_config(), cfg.mel_config()
    section = cfg.section_text("dsp")
    pending = []
    done = 0
    for entry in manifest.entries:
        wav_path = manifest.resolve(entry)
        if not wav_path.exists():
            raise DependencyError(f"missing clip {wav_path}; run `synth` first")
        out = _mfcc_path(cfg, entry)
        digest = _digest(section, _file_digest(wav_path))
        if _fresh(out, digest):
            done += 1
        else:
            pending.append((entry, wav_path, out, digest))
    tasks = [(wav, manifest.sample_rate, frame_cfg, mel_cfg)
             for _, wav, _, _ in pending]
    features = map_jobs(_extract_one_mfcc, tasks, jobs)
    for (entry, _, out, digest), feat in zip(pending, features):
        mfcc_mod.save_mfcc(out, feat)
        _mark(out, digest)
    log(f"mfcc: {len(pending)} extracted, {done} up to date "
        f"({len(manifest.entries)} clips)")
    return manifest


def _load_stage_mfcc(cfg, manifest, entries):
    feats = []
    for entry in entries:
        path = _mfcc_path(cfg, entry)
        if not path.exists():
            raise DependencyError(f"missing {path}; run `mfcc` first")
        feats.append(mfcc_mod.load_mfcc(path, cfg.frame_config(),
                                        cfg.mel_config()))
    return feats


def stage_train_ubm(cfg, log=print):
    manifest = _require_manifest(cfg)
    train_entries = manifest.for_split("train")
    digest = _digest(cfg.section_text("gmm"),
                     *[_file_digest(_mfcc_path(cfg, e)) for e in train_entries
                       if _mfcc_path(cfg, e).exists()],
                     len(train_entries))
    out = cfg.workdir / "ubm" / "ubm.dgmm"
    if _fresh(out, digest):
        log(f"train-ubm: up to date ({out})")
        return out
    feats = _load_stage_mfcc(cfg, manifest, train_entries)
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
    ubm_path = cfg.workdir / "ubm" / "ubm.dgmm"
    if not ubm_path.exists():
        raise DependencyError(f"missing {ubm_path}; run `train-ubm` first")
    ubm = gmm_mod.load_gmm(ubm_path)
    ubm_digest = _file_digest(ubm_path)
    (cfg.workdir / "sgmm").mkdir(parents=True, exist_ok=True)
    section = cfg.section_text("gmm")
    done = 0
    extracted = 0
    for entry in manifest.entries:
        src = _mfcc_path(cfg, entry)
        if not src.exists():
            raise DependencyError(f"missing {src}; run `mfcc` first")
        out = _sgmm_path(cfg, entry)
        digest = _digest(section, ubm_digest, _file_digest(src))
        if _fresh(out, digest):
            done += 1
            continue
        feat = mfcc_mod.load_mfcc(src, cfg.frame_config(), cfg.mel_config())
        tensor = gmm_mod.extract_sgmm(ubm, feat, cfg.get("gmm.seg_frames"),
                                      cfg.get("gmm.relevance"))
        gmm_mod.save_sgmm(out, tensor)
        _mark(out, digest)
        extracted += 1
    log(f"sgmm: {extracted} extracted, {done} up to date")
    return manifest


def _feature_sets(cfg, manifest):
    label_order = manifest.device_ids()
    label_idx = {d: i for i, d in enumerate(label_order)}
    sets = {}
    for split in ("train", "test"):
        items = []
        for entry in manifest.for_split(split):
            path = _sgmm_path(cfg, entry)
            if not path.exists():
                raise DependencyError(f"missing {path}; run `sgmm` first")
            items.append((gmm_mod.load_sgmm(path), label_idx[entry.device_id]))
        sets[split] = items
    return sets, label_order


def _arch_from_tensors(cfg, feature_set, n_classes):
    shapes = {t.data.shape for t, _ in feature_set}
    if len(shapes) != 1:
        raise ConfigError(f"inconsistent tensor shapes: {shapes}")
    return model_mod.ArchitectureConfig(input_dims=shapes.pop(),
                                        n_classes=n_classes,
                                        **cfg.arch_kwargs())


def _write_metrics(out_dir, metrics, log):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.txt").write_text(metrics.report() + "\n")
    (out_dir / "metrics.kv").write_text(metrics.kv_records() + "\n")
    (out_dir / "confusion.csv").write_text(metrics.confusion_csv() + "\n")
    log(metrics.report())


def stage_train(cfg, log=print):
    manifest = _require_manifest(cfg)
    sets, label_order = _feature_sets(cfg, manifest)
    digest = _digest(cfg.section_text("arch"), cfg.section_text("train"),
                     *[_file_digest(_sgmm_path(cfg, e))
                       for e in manifest.for_split("train")])
    out = cfg.workdir / "model" / "model.ckpt"
    if _fresh(out, digest):
        log(f"train: up to date ({out})")
        return out
    arch = _arch_from_tensors(cfg, sets["train"] + sets["test"],
                              len(label_order))
    net = model_mod.build_model(arch, seed=cfg.get("train.seed"))
    history = model_mod.train(net, sets["train"], cfg.train_config())
    out.parent.mkdir(parents=True, exist_ok=True)
    from .nn import save_checkpoint
    save_checkpoint(out, net.state_arrays())
    lines = ["epoch,lr,loss,train_acc"]
    lines += [f"{h['epoch']},{h['lr']},{h['loss']},{h['train_acc']}"
              for h in history]
    (out.parent / "history.csv").write_text("\n".join(lines) + "\n")
    arch_lines = [f"input_dims = {arch.input_dims[0]}/{arch.input_dims[1]}/"
                  f"{arch.input_dims[2]}",
                  f"n_classes = {arch.n_classes}",
                  f"labels = {','.join(label_order)}"]
    (out.parent / "arch.txt").write_text("\n".join(arch_lines) + "\n")
    _mark(out, digest)
    log(f"train: {len(history)} epochs, final loss {history[-1]['loss']:.4f}, "
        f"train accuracy {history[-1]['train_acc']:.4f}")
    log(f"train: checkpoint {out}")
    return out


def stage_eval(cfg, log=print):
    manifest = _require_manifest(cfg)
    sets, label_order = _feature_sets(cfg, manifest)
    ckpt = cfg.workdir / "model" / "model.ckpt"
    if not ckpt.exists():
        raise DependencyError(f"missing {ckpt}; run `train` first")
    arch = _arch_from_tensors(cfg, sets["train"] + sets["test"],
                              len(label_order))
    net = model_mod.build_model(arch, seed=cfg.get("train.seed"))
    from .nn import load_checkpoint
    net.load_state(load_checkpoint(ckpt))
    metrics = model_mod.evaluate(net, sets["test"], label_order=label_order)
    _write_metrics(cfg.workdir / "eval", metrics, log)
    log(f"eval: accuracy {metrics.accuracy:.4f}")
    return metrics


def stage_ablate(cfg, log=print):
    manifest = _require_manifest(cfg)
    frame_cfgs = [mfcc_mod.FrameConfig(fl, fs)
                  for fl, fs in cfg.get("ablate.frame_grid")]
    mel_cfgs = [mfcc_mod.MelConfig(cfg.get("dsp.n_filters"), lo, hi,
                                   cfg.get("dsp.n_ceps"),
                                   cfg.get("dsp.include_c0"))
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
    result = model_mod.small_sample_protocol(
        manifest, n_train, cfg.frame_config(), cfg.mel_config(),
        cfg.gmm_config(), cfg.train_config(),
        select_seed=cfg.get("train.seed"), **cfg.arch_kwargs())
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
