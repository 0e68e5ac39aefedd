"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload features_cold --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. Stdout carries one JSON run record (host,
seed, sample counts, accuracy, errors), then, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
Working files go under `.bench_build/perfbench/` and are removed at exit;
a traced run leaves its spans there as `trace-<workload>-seed<n>.json`.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("features_cold", "train_g8", "rerun_warm")
# One BLAS thread, as in the probe that sized the workloads; at most nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def _git_revision():
    if not (REPO / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _blas_name(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None):
    args = _parse_args(argv)
    if not (REPO / "src" / "deviceprint" / "__init__.py").is_file():
        print(f"no deviceprint sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    import numpy as np

    from perfbench import harness

    root = OUT / f"run-{os.getpid()}"
    try:
        workload, setup_s = harness.set_up(args.workload, args.seed, root)
        run = harness.measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    if args.trace:
        values, units = harness.per_layer(run), harness.PER_LAYER
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(run.tracer.to_rows()))
    else:
        values, units = harness.end_to_end(run, setup_s), harness.END_TO_END
        trace_file = None
    failed = len(run.errors)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas_name(np),
        "blas_threads": BLAS_THREADS, "git_revision": _git_revision(),
        "samples": {"untraced": sum(not s.traced for s in run.samples),
                    "traced": sum(s.traced for s in run.samples)},
        "test_accuracy": (run.samples[0].test_accuracy if run.samples
                          else None),
        "op_s": [round(s.wall_s, 6) for s in run.samples],
        "errors": run.errors[:10],
        "trace_file": str(trace_file.relative_to(REPO)) if trace_file else None,
    }
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": failed == 0 and all(v is not None for v in values.values()),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
