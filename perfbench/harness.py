"""Set-up, the closed measurement loop, and the metrics a run reports."""

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from . import probes
from .tracing import ROOT_SPAN, SpanStats, Tracer
from .workloads import WORKLOADS, CheckFailed, make_config

REPO = Path(__file__).resolve().parents[1]
SETUP_TIMEOUT_S = 150


@dataclass
class Sample:
    op: int
    traced: bool
    wall_s: float
    clips_per_s: float
    digest: str
    test_accuracy: float
    counts: dict


@dataclass
class Run:
    samples: list
    errors: list
    attempted: int
    tracer: Tracer


def set_up(name, seed, root):
    """Prepare the workdir in a child process, then load it in this one.

    Returns the workload, warmed up, and the median set-up time over the
    workload's repeats; each repeat starts from nothing.
    """
    cls = WORKLOADS[name]
    path = [str(REPO / "src"), str(REPO)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    times = []
    for repeat in range(cls.setup_repeats):
        workdir = Path(root) / f"setup{repeat}"
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "perfbench.prepare", name,
                        str(seed), str(workdir)],
                       check=True, env=env, cwd=REPO, timeout=SETUP_TIMEOUT_S)
        workload = cls(make_config(name, seed, workdir))
        workload.warm_up()
        times.append(time.perf_counter() - start)
        if repeat + 1 < cls.setup_repeats:
            shutil.rmtree(workdir)
    return workload, statistics.median(times)


def measure(workload, seconds, trace):
    """Closed loop from one process: each operation starts when the previous
    one has ended and been checked, until `seconds` have passed and at
    least one operation ran.

    With `trace`, operations alternate untraced and traced, at least one of
    each, so one run gives the per-layer figures and the tracing overhead.
    Every operation's artifacts must equal the first one's, so a traced
    operation that changes an output fails. A failed operation is counted
    and reported, never raised.
    """
    tracer = Tracer() if trace else None
    samples, errors = [], []
    reference = None
    start = time.perf_counter()
    op = 0
    while (time.perf_counter() - start < seconds or op < (2 if trace else 1)):
        traced = trace and op % 2 == 1
        lines = []
        try:
            with (tracer.operation(op, probes.install) if traced
                  else nullcontext()):
                began = time.perf_counter()
                rate = workload.operate(op, lines.append)
                wall = time.perf_counter() - began
            checked = workload.verify(op, lines)
            reference = reference or checked["digest"]
            if checked["digest"] != reference:
                raise CheckFailed("artifacts differ from the run's first "
                                  "operation")
            samples.append(Sample(op, traced, wall, rate, checked["digest"],
                                  checked.get("test_accuracy"),
                                  checked["counts"]))
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            errors.append(f"op {op}: {type(exc).__name__}: {exc}")
        finally:
            workload.finish(op)
        op += 1
    return Run(samples, errors, op, tracer)


def _median(values):
    values = list(values)
    return float(statistics.median(values)) if values else None


# --- end-to-end metrics (untraced operations) -------------------------------

END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_s_p50": ("s", "lower"),
    "clips_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def end_to_end(run, setup_s):
    plain = [s for s in run.samples if not s.traced]
    return {
        "setup_s": setup_s,
        "op_s_p50": _median(s.wall_s for s in plain),
        "clips_per_s": _median(s.clips_per_s for s in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


# --- per-layer metrics (traced operations) ----------------------------------

class LayerView:
    """What the per-layer metrics read: span aggregates over the traced
    operations, their stage counts, and the untraced operations' times."""

    def __init__(self, run):
        self.traced = [s for s in run.samples if s.traced]
        self.plain = [s for s in run.samples if not s.traced]
        self.spans = SpanStats(run.tracer.spans, [s.op for s in self.traced])

    def count(self, key):
        return _median(s.counts.get(key, 0) for s in self.traced) or 0.0

    def hit_ratio(self):
        ratios = [s.counts["cache_hits"]
                  / (s.counts["cache_hits"] + s.counts["cache_misses"])
                  for s in self.traced
                  if s.counts.get("cache_hits", 0)
                  + s.counts.get("cache_misses", 0)]
        return _median(ratios) or 0.0

    def epoch_s(self):
        epochs = self.spans.sum_attr("model.train", "epochs")
        return self.spans.sum_seconds("model.train") / epochs if epochs else 0.0

    def conv_gflop_per_s(self):
        spans = [f"nn.{c}.{d}" for c in probes.CONV_LAYERS
                 for d in ("fwd", "bwd")]
        seconds = sum(self.spans.sum_seconds(s) for s in spans)
        flop = sum(self.spans.sum_attr(s, "flop") for s in spans)
        return flop / seconds / 1e9 if seconds else 0.0

    def conv_step_share(self):
        conv = sum(self.spans.call_ms(f"nn.{c}.{d}")
                   for c in probes.CONV_LAYERS for d in ("fwd", "bwd"))
        step = sum(self.spans.call_ms(s) for s in (
            "model.forward", "model.backward", "model.adam_step",
            "model.softmax_cross_entropy"))
        return conv / step if step else 0.0

    def unaccounted_frac(self):
        total = self.spans.seconds(ROOT_SPAN)
        return self.spans.self_seconds(ROOT_SPAN) / total if total else 0.0

    def trace_overhead_frac(self):
        traced = _median(s.wall_s for s in self.traced)
        plain = _median(s.wall_s for s in self.plain)
        return traced / plain - 1.0 if traced and plain else 0.0


def _calls(span):
    return lambda v: v.spans.calls(span)


def _seconds(span):
    return lambda v: v.spans.seconds(span)


def _self_seconds(span):
    return lambda v: v.spans.self_seconds(span)


def _call_ms(span):
    return lambda v: v.spans.call_ms(span)


def _total(span, key):
    return lambda v: v.spans.attr_total(span, key)


def _per_call(span, key):
    return lambda v: v.spans.call_attr(span, key)


def _count(key):
    return lambda v: v.count(key)


# name -> (unit, better, how it is read off a LayerView)
PER_LAYER = {
    "audio.synth_source.calls": ("count", "lower",
                                 _calls("audio.synth_source")),
    "audio.synth_source.s": ("s", "lower", _seconds("audio.synth_source")),
    "audio.apply_channel.s": ("s", "lower", _seconds("audio.apply_channel")),
    "audio.select_device_profiles.s": (
        "s", "lower", _seconds("audio.select_device_profiles")),
    "audio.wav_bytes.s": ("s", "lower", _seconds("audio.wav_bytes")),
    "audio.read_wav.calls": ("count", "lower", _calls("audio.read_wav")),
    "audio.read_wav.s": ("s", "lower", _seconds("audio.read_wav")),
    "mfcc.extract_mfcc.calls": ("count", "lower",
                                _calls("mfcc.extract_mfcc")),
    "mfcc.extract_mfcc.s": ("s", "lower", _seconds("mfcc.extract_mfcc")),
    "mfcc.frames": ("count", "lower", _total("mfcc.extract_mfcc", "frames")),
    "mfcc.save_mfcc.s": ("s", "lower", _seconds("mfcc.save_mfcc")),
    "mfcc.load_mfcc.s": ("s", "lower", _seconds("mfcc.load_mfcc")),
    "gmm.em_fit.s": ("s", "lower", _seconds("gmm.em_fit")),
    "gmm.em_fit.iterations": ("count", "lower",
                              _total("gmm.em_fit", "iterations")),
    "gmm.em_fit.frames": ("count", "lower", _total("gmm.em_fit", "frames")),
    "gmm.extract_sgmm.calls": ("count", "lower", _calls("gmm.extract_sgmm")),
    "gmm.extract_sgmm.s": ("s", "lower", _seconds("gmm.extract_sgmm")),
    "gmm.map_adapt_means.calls": ("count", "lower",
                                  _calls("gmm.map_adapt_means")),
    "gmm.map_adapt_means.s": ("s", "lower", _seconds("gmm.map_adapt_means")),
    "gmm.save_sgmm.s": ("s", "lower", _seconds("gmm.save_sgmm")),
    "gmm.load_sgmm.s": ("s", "lower", _seconds("gmm.load_sgmm")),
}
for _stage in probes.STAGES:
    PER_LAYER[f"pipeline.{_stage}.s"] = ("s", "lower",
                                         _seconds(f"pipeline.{_stage}"))
    PER_LAYER[f"pipeline.{_stage}.self_s"] = (
        "s", "lower", _self_seconds(f"pipeline.{_stage}"))
PER_LAYER.update({
    "pipeline.cache_hits": ("count", "higher", _count("cache_hits")),
    "pipeline.cache_misses": ("count", "lower", _count("cache_misses")),
    "pipeline.cache_hit_ratio": ("ratio", "higher", LayerView.hit_ratio),
    "pipeline.bytes_hashed": ("B", "lower", _count("bytes_hashed")),
    "model.train.s": ("s", "lower", _seconds("model.train")),
    "model.epoch_s": ("s", "lower", LayerView.epoch_s),
    "model.forward_ms": ("ms", "lower", _call_ms("model.forward")),
    "model.backward_ms": ("ms", "lower", _call_ms("model.backward")),
    "model.adam_step_ms": ("ms", "lower", _call_ms("model.adam_step")),
    "model.softmax_cross_entropy_ms": (
        "ms", "lower", _call_ms("model.softmax_cross_entropy")),
    "model.stack_features.s": ("s", "lower", _seconds("model.stack_features")),
    "model.evaluate.s": ("s", "lower", _seconds("model.evaluate")),
    "model.evaluate.clips": ("count", "higher",
                             _total("model.evaluate", "clips")),
})
for _layer in probes.LAYER_NAMES:
    for _direction in ("fwd", "bwd"):
        PER_LAYER[f"nn.{_layer}.{_direction}_ms"] = (
            "ms", "lower", _call_ms(f"nn.{_layer}.{_direction}"))
for _layer in probes.CONV_LAYERS:
    PER_LAYER[f"nn.{_layer}.flop"] = (
        "flop-computed", "lower", _per_call(f"nn.{_layer}.fwd", "flop"))
    PER_LAYER[f"nn.{_layer}.bytes"] = (
        "B-computed", "lower", _per_call(f"nn.{_layer}.fwd", "bytes"))
PER_LAYER.update({
    "nn.conv.gflop_per_s": ("GFLOP/s", "higher", LayerView.conv_gflop_per_s),
    "nn.conv.step_share": ("ratio", "lower", LayerView.conv_step_share),
    "bench.op.s": ("s", "lower", _seconds(ROOT_SPAN)),
    "bench.unaccounted_s": ("s", "lower", _self_seconds(ROOT_SPAN)),
    "bench.unaccounted_frac": ("ratio", "lower", LayerView.unaccounted_frac),
    "bench.trace_overhead_frac": ("ratio", "lower",
                                  LayerView.trace_overhead_frac),
})


def per_layer(run):
    view = LayerView(run)
    return {name: float(read(view))
            for name, (_, _, read) in PER_LAYER.items()}
