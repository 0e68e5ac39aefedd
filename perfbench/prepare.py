"""Set-up child: `python -m perfbench.prepare <workload> <seed> <workdir>`."""

import sys

from .workloads import prepare

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1:]
    prepare(workload, int(seed), workdir)
