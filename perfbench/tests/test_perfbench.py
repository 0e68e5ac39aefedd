"""Tests of the benchmark's own machinery, on corpora small enough to build
in a second: span arithmetic, cache-line parsing, failure counting, and
that a traced run reports exactly the metrics BENCHMARK.json declares."""

import itertools
import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from deviceprint import pipeline  # noqa: E402
from perfbench import harness, workloads  # noqa: E402
from perfbench.tracing import ROOT_SPAN, SpanStats, Tracer, self_times  # noqa: E402

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


def _tiny_config(workdir, **extra):
    values = {"paths.workdir": str(workdir), "corpus.devices": 2,
              "corpus.clips": 4, "corpus.clip_seconds": 1.0,
              "gmm.components": 8, "gmm.em_iters": 5, "train.epochs": 1,
              "corpus.seed": 3, "gmm.seed": 3, "train.seed": 3}
    values.update(extra)
    return pipeline.PipelineConfig(values)


@pytest.fixture(scope="module")
def built_workdir(tmp_path_factory):
    cfg = _tiny_config(tmp_path_factory.mktemp("bench") / "work")
    for stage in workloads.STAGES:
        getattr(pipeline, stage)(cfg, log=lambda line: None)
    return cfg


def _copy(cfg, dest):
    shutil.copytree(cfg.workdir, dest)
    return _tiny_config(dest)


def test_self_times_subtract_children_and_sum_to_the_root():
    calls = SimpleNamespace()
    calls.inner = lambda: None
    calls.outer = lambda: (calls.inner(), calls.inner())
    tracer = Tracer(clock=itertools.count().__next__)

    def install(t):
        t.wrap(calls, "inner", "inner")
        t.wrap(calls, "outer", "outer")

    original_inner = calls.inner
    with tracer.operation(0, install):
        calls.outer()
    assert calls.inner is original_inner
    # clock ticks: root 0, outer 1, inner 2-3, inner 4-5, outer 6, root 7
    names = [s.name for s in tracer.spans]
    assert names == [ROOT_SPAN, "outer", "inner", "inner"]
    assert self_times(tracer.spans) == [2, 3, 1, 1]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration
    stats = SpanStats(tracer.spans, [0])
    assert stats.calls("inner") == 2
    assert stats.seconds("outer") == 5 and stats.self_seconds("outer") == 3


def test_instance_wrappers_are_removed():
    class Layer:
        def forward(self):
            return 1

    layer = Layer()
    tracer = Tracer()
    with tracer.operation(0, lambda t: t.wrap(layer, "forward", "f")):
        assert layer.forward() == 1
    assert "forward" not in vars(layer)
    assert [s.name for s in tracer.spans] == [ROOT_SPAN, "f"]


def test_parse_cache_counts_artifacts_and_fresh_stages():
    cold = ["synth: wrote 8 clips to w/corpus", "  device00: 3 train / 1 test",
            "synth: manifest w/corpus/manifest.tsv",
            "mfcc: 8 extracted, 0 up to date (8 clips)",
            "train-ubm: G=8 on 72 frames, 5 iterations, final x",
            "  iter 1: total log-likelihood -1.00",
            "sgmm: 8 extracted, 0 up to date",
            "train: 1 epochs, final loss 0.6, train accuracy 0.5",
            "train: checkpoint w/model/model.ckpt"]
    assert workloads.parse_cache(cold) == (0, 19, set())
    warm = ["synth: up to date (w/corpus/manifest.tsv)",
            "mfcc: 0 extracted, 8 up to date (8 clips)",
            "train-ubm: up to date (w/ubm/ubm.dgmm)",
            "sgmm: 1 extracted, 7 up to date",
            "train: up to date (w/model/model.ckpt)", "eval: accuracy 0.5"]
    assert workloads.parse_cache(warm) == (
        18, 1, {"synth", "mfcc", "train-ubm", "train"})


def test_truncated_wav_counts_as_a_failed_operation(built_workdir, tmp_path):
    cfg = _copy(built_workdir, tmp_path / "work")
    wav = sorted((cfg.workdir / "corpus").glob("*.wav"))[0]
    wav.write_bytes(wav.read_bytes()[:-101])
    run = harness.measure(workloads.RerunWarm(cfg), 0, trace=False)
    assert run.attempted == 1 and not run.samples
    assert len(run.errors) == 1 and "FormatError" in run.errors[0]


def test_changed_output_counts_as_a_failed_operation(built_workdir, tmp_path):
    cfg = _copy(built_workdir, tmp_path / "work")
    workload = workloads.RerunWarm(cfg)
    workload.reference += b"\n"
    run = harness.measure(workload, 0, trace=False)
    assert run.attempted == 1 and "CheckFailed" in run.errors[0]


def _declared(kind):
    return {m["name"]: (m["unit"], m["better"]) for m in DECLARED[kind]}


def test_metric_tables_match_benchmark_json():
    assert _declared("end_to_end") == {
        name: spec for name, spec in harness.END_TO_END.items()}
    assert _declared("per_layer") == {
        name: (unit, better)
        for name, (unit, better, _) in harness.PER_LAYER.items()}


def test_traced_rerun_reports_every_layer_metric(built_workdir, tmp_path):
    cfg = _copy(built_workdir, tmp_path / "work")
    run = harness.measure(workloads.RerunWarm(cfg), 0, trace=True)
    assert run.errors == []
    assert [s.traced for s in run.samples] == [False, True]
    assert run.samples[0].digest == run.samples[1].digest
    values = harness.per_layer(run)
    assert set(values) == set(_declared("per_layer"))
    assert values["pipeline.cache_hits"] == 19
    assert values["pipeline.cache_hit_ratio"] == 1.0
    assert values["nn.conv1.fwd_ms"] > 0 and values["nn.conv1.bwd_ms"] == 0
    assert 0 <= values["bench.unaccounted_frac"] < 0.5
    e2e = harness.end_to_end(run, setup_s=1.0)
    assert set(e2e) == set(_declared("end_to_end"))


def test_traced_features_and_training_match_untraced(tmp_path, monkeypatch):
    cold = workloads.FeaturesCold(_tiny_config(tmp_path / "cold"))
    run = harness.measure(cold, 0, trace=True)
    assert run.errors == [] and len(run.samples) == 2
    values = harness.per_layer(run)
    assert values["audio.synth_source.calls"] == 8
    assert values["pipeline.cache_misses"] == 1 + 8 + 1 + 8
    assert not (tmp_path / "cold" / "op0").exists()

    cfg = _tiny_config(tmp_path / "g8")
    for stage in workloads.FEATURE_STAGES:
        getattr(pipeline, stage)(cfg, log=lambda line: None)
    # one epoch cannot halve its own loss; this checks the plumbing
    monkeypatch.setattr(workloads, "MAX_LOSS_RATIO", 1.0)
    run = harness.measure(workloads.TrainG8(cfg), 0, trace=True)
    assert run.errors == [] and len(run.samples) == 2
    values = harness.per_layer(run)
    assert values["model.epoch_s"] > 0 and values["nn.conv2.bwd_ms"] > 0
    assert values["nn.conv1.flop"] > 0 and values["audio.read_wav.calls"] == 0
