"""The benchmark's three workloads.

Every workload starts from the CLI default config, with the workload seed
as corpus, mixture and training seed. `prepare` brings a workdir to the
workload's starting state; it runs in a set-up child process, so its
memory peak is not charged to the measured process. The workload object
then loads what its operations need, `operate` runs one operation through
the public functions of `pipeline` and `model`, and `verify` checks that
operation's outputs and raises `CheckFailed` when one is wrong.
"""

import dataclasses
import hashlib
import math
import re
import shutil
import time
from pathlib import Path

import numpy as np

from deviceprint import audio, gmm, model, pipeline

from .probes import STAGES

FEATURE_STAGES = STAGES[:4]
TRAIN_EPOCHS = 20
# Twenty epochs took the training loss from about 1.64 to 0.4 or less on
# every seed tried. Test accuracy is no guard this early in the 250-epoch
# protocol: on one seed it swung between 0.2 and 0.96 from epoch 5 to 30
# while the training loss fell steadily.
MAX_LOSS_RATIO = 0.5


class CheckFailed(Exception):
    """An operation finished but its outputs are wrong."""


def make_config(workload, seed, workdir):
    values = {"paths.workdir": str(workdir), "corpus.seed": seed,
              "gmm.seed": seed, "train.seed": seed}
    values.update(WORKLOADS[workload].overrides)
    return pipeline.PipelineConfig(values)


def prepare(workload, seed, workdir):
    """Run the stages that precede the workload's first operation."""
    cfg = make_config(workload, seed, workdir)
    Path(workdir).mkdir(parents=True)
    for stage in WORKLOADS[workload].prepared_stages:
        getattr(pipeline, stage)(cfg, log=lambda line: None)


# --- workdir layout and stage log lines ------------------------------------

def manifest_path(cfg):
    return cfg.workdir / "corpus" / "manifest.tsv"


def clip_artifact(cfg, entry, kind):
    """Per-clip artifact of a stage: kind is "mfcc" or "sgmm"."""
    return cfg.workdir / kind / (Path(entry.path).stem + "." + kind)


_WHOLE_HIT = re.compile(r"^(synth|train-ubm|train): up to date\b")
_WHOLE_MISS = re.compile(r"^(synth: wrote |train-ubm: G=|train: \d+ epochs)")
_PER_CLIP = re.compile(r"^(mfcc|sgmm): (\d+) extracted, (\d+) up to date")


def parse_cache(lines):
    """Cache outcome of the hash-gated stages from their `log=` lines.

    Every artifact checked against its hash sidecar counts once: the
    manifest, the UBM and the checkpoint as one each, cepstra and tensors
    one per clip. Returns (hits, misses, names of stages fully up to date).
    """
    hits = misses = 0
    fresh = set()
    for line in lines:
        if match := _WHOLE_HIT.match(line):
            hits += 1
            fresh.add(match.group(1))
        elif _WHOLE_MISS.match(line):
            misses += 1
        elif match := _PER_CLIP.match(line):
            extracted, current = int(match.group(2)), int(match.group(3))
            misses += extracted
            hits += current
            if extracted == 0:
                fresh.add(match.group(1))
    return hits, misses, fresh


def bytes_hashed(cfg, manifest, stages):
    """Bytes the given stages hash to decide hit or miss, from file sizes."""
    def size(paths):
        return sum(Path(p).stat().st_size for p in paths)

    entries, train = manifest.entries, manifest.for_split("train")
    hashed = {
        "stage_mfcc": lambda: size(manifest.resolve(e) for e in entries),
        "stage_train_ubm": lambda: size(clip_artifact(cfg, e, "mfcc")
                                        for e in train),
        "stage_sgmm": lambda: (size([cfg.workdir / "ubm" / "ubm.dgmm"])
                               + size(clip_artifact(cfg, e, "mfcc")
                                      for e in entries)),
        "stage_train": lambda: size(clip_artifact(cfg, e, "sgmm")
                                    for e in train),
    }
    return sum(hashed[s]() for s in stages if s in hashed)


def cache_counts(cfg, lines, stages):
    hits, misses, _ = parse_cache(lines)
    manifest = audio.read_manifest(manifest_path(cfg))
    return {"cache_hits": hits, "cache_misses": misses,
            "bytes_hashed": bytes_hashed(cfg, manifest, stages)}


def digest_files(root):
    """sha256 over every file under root, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _kv_accuracy(kv_text):
    for line in kv_text.splitlines():
        if line.startswith("accuracy="):
            return float(line.partition("=")[2])
    raise CheckFailed("metrics.kv has no accuracy record")


def expected_shape(cfg):
    """(M, G, T) of every SGMM tensor the config produces."""
    rate = cfg.get("corpus.sample_rate")
    samples = int(round(cfg.get("corpus.clip_seconds") * rate))
    frames = cfg.frame_config()
    n_frames = ((samples - frames.frame_len(rate)) // frames.frame_shift(rate)
                + 1)
    return (cfg.get("dsp.n_ceps"), cfg.get("gmm.components"),
            n_frames // cfg.get("gmm.seg_frames"))


def _load_tensors(cfg, manifest):
    """Each clip's SGMM tensor, checked for shape, finiteness and range."""
    shape = expected_shape(cfg)
    tensors = {}
    for entry in manifest.entries:
        tensor = gmm.load_sgmm(clip_artifact(cfg, entry, "sgmm"))
        if tensor.data.shape != shape:
            raise CheckFailed(f"{entry.path}: tensor shape "
                              f"{tensor.data.shape}, expected {shape}")
        if not (np.all(np.isfinite(tensor.data)) and tensor.data.min() >= 0
                and tensor.data.max() <= 1):
            raise CheckFailed(f"{entry.path}: tensor values outside [0, 1]")
        tensors[entry.path] = tensor
    return tensors


# --- workloads --------------------------------------------------------------

class FeaturesCold:
    """Empty workdir to the last SGMM tensor: synth, mfcc, train-ubm, sgmm."""

    overrides = {}
    prepared_stages = ()
    setup_repeats = 3

    def __init__(self, cfg):
        self.cfg = cfg
        self.clips = cfg.get("corpus.devices") * cfg.get("corpus.clips")

    def _op_config(self, index):
        cfg = pipeline.PipelineConfig(dict(self.cfg.values))
        cfg.set("paths.workdir", str(self.cfg.workdir / f"op{index}"))
        return cfg

    def warm_up(self):
        """A tenth of the corpus, so the first timed operation does not
        pay the process's first page faults and lazy imports."""
        cfg = self._op_config("warmup")
        cfg.set("corpus.clips", max(2, cfg.get("corpus.clips") // 10))
        for stage in FEATURE_STAGES:
            getattr(pipeline, stage)(cfg, log=lambda line: None)
        shutil.rmtree(cfg.workdir)

    def operate(self, index, log):
        cfg = self._op_config(index)
        start = time.perf_counter()
        for stage in FEATURE_STAGES:
            getattr(pipeline, stage)(cfg, log=log)
        return self.clips / (time.perf_counter() - start)

    def verify(self, index, lines):
        cfg = self._op_config(index)
        manifest = audio.read_manifest(manifest_path(cfg))
        if len(manifest.entries) != self.clips:
            raise CheckFailed(f"{len(manifest.entries)} clips, expected "
                              f"{self.clips}")
        _load_tensors(cfg, manifest)
        return {"digest": digest_files(cfg.workdir),
                "counts": cache_counts(cfg, lines, FEATURE_STAGES)}

    def finish(self, index):
        shutil.rmtree(self._op_config(index).workdir, ignore_errors=True)


class TrainG8:
    """In-memory G=8 tensors: build_model, a fixed number of epochs of the
    acceptance protocol, then evaluate on the held-out split."""

    overrides = {"gmm.components": 8, "train.epochs": TRAIN_EPOCHS}
    prepared_stages = FEATURE_STAGES
    setup_repeats = 1

    def __init__(self, cfg):
        self.cfg = cfg
        manifest = audio.read_manifest(manifest_path(cfg))
        tensors = _load_tensors(cfg, manifest)
        self.labels = manifest.device_ids()
        self.train_set, self.test_set = (
            [(tensors[e.path], self.labels.index(e.device_id))
             for e in manifest.for_split(split)]
            for split in ("train", "test"))
        self.arch = model.ArchitectureConfig(
            input_dims=expected_shape(cfg), n_classes=len(self.labels),
            **cfg.arch_kwargs())
        self.train_cfg = cfg.train_config()
        self._last = None

    def warm_up(self):
        net = model.build_model(self.arch, seed=self.cfg.get("train.seed"))
        model.train(net, self.train_set,
                    dataclasses.replace(self.train_cfg, epochs=1))

    def operate(self, index, log):
        net = model.build_model(self.arch, seed=self.cfg.get("train.seed"))
        start = time.perf_counter()
        history = model.train(net, self.train_set, self.train_cfg)
        train_s = time.perf_counter() - start
        metrics = model.evaluate(net, self.test_set, label_order=self.labels)
        self._last = (net, history, metrics)
        return len(self.train_set) * self.train_cfg.epochs / train_s

    def verify(self, index, lines):
        net, history, metrics = self._last
        losses = [row["loss"] for row in history]
        if len(losses) != self.train_cfg.epochs:
            raise CheckFailed(f"{len(losses)} epochs of history, expected "
                              f"{self.train_cfg.epochs}")
        if not all(math.isfinite(v) for v in losses):
            raise CheckFailed("non-finite training loss")
        if losses[-1] > MAX_LOSS_RATIO * losses[0]:
            raise CheckFailed(f"training loss fell only from {losses[0]:.4f} "
                              f"to {losses[-1]:.4f}")
        h = hashlib.sha256()
        for name, value in sorted(net.state_arrays().items()):
            h.update(name.encode() + b"\0" + value.tobytes())
        h.update(repr(history).encode() + metrics.kv_records().encode())
        return {"digest": h.hexdigest(), "test_accuracy": metrics.accuracy,
                "counts": {}}

    def finish(self, index):
        pass


class RerunWarm:
    """A fully built workdir; each operation re-runs all six stages, five
    of them up to date, and stage_eval infers the test split again."""

    overrides = {"train.epochs": 1}
    prepared_stages = STAGES
    setup_repeats = 1
    fresh_stages = {"synth", "mfcc", "train-ubm", "sgmm", "train"}

    def __init__(self, cfg):
        self.cfg = cfg
        self.reference = (cfg.workdir / "eval" / "metrics.kv").read_bytes()
        manifest = audio.read_manifest(manifest_path(cfg))
        self.n_test = len(manifest.for_split("test"))

    def warm_up(self):
        self.operate("warmup", lambda line: None)

    def operate(self, index, log):
        for stage in STAGES[:-1]:
            getattr(pipeline, stage)(self.cfg, log=log)
        start = time.perf_counter()
        pipeline.stage_eval(self.cfg, log=log)
        return self.n_test / (time.perf_counter() - start)

    def verify(self, index, lines):
        _, _, fresh = parse_cache(lines)
        if fresh != self.fresh_stages:
            stale = sorted(self.fresh_stages - fresh)
            raise CheckFailed(f"stages not up to date: {stale}")
        kv = (self.cfg.workdir / "eval" / "metrics.kv").read_bytes()
        if kv != self.reference:
            raise CheckFailed("metrics.kv differs from the set-up run")
        return {"digest": digest_files(self.cfg.workdir / "eval"),
                "test_accuracy": _kv_accuracy(kv.decode()),
                "counts": cache_counts(self.cfg, lines, STAGES)}

    def finish(self, index):
        pass


WORKLOADS = {"features_cold": FeaturesCold, "train_g8": TrainG8,
             "rerun_warm": RerunWarm}
