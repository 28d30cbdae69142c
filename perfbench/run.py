#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``dynafeat match``.

Usage (from the repository root):
    python3 perfbench/run.py --workload {dense7k,sparse300,image640} \\
        --seed N --seconds S --trace {0,1}

The run writes the workload's inputs for ``--seed`` under ``.perfbench/``,
then runs ``dynafeat match`` in-process on them, pass after pass, for
``--seconds``. Every pass is checked: exit code 0, match files
byte-identical to the run's first pass, and that first pass scored against
the generator's ground truth above the workload's precision and recall
floors. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics from the traced ones. A table with units, sample counts
and quartiles comes first; the last line of standard output is one JSON
object. The full record, with the environment, goes to
``.perfbench/result-<workload>-<seed>-trace<0|1>.json`` and the spans of a
traced run to ``.perfbench/spans-<workload>-<seed>.json``.

All load comes from this one process; ``setup_s`` alone starts fresh
interpreters (``setup_probe.py``), one at a time, and waits for each.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")
WORKLOAD_NAMES = ("dense7k", "sparse300", "image640")


def _pin_threads(nproc: int) -> None:
    """Keep BLAS/OpenMP pools at most nproc wide; must run before numpy loads."""
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            os.environ[var] = str(nproc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark dynafeat match")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "dynafeat", "__init__.py")):
        print(f"perfbench: no dynafeat sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    _pin_threads(nproc)
    sys.path.insert(0, SRC)
    # imported only now: numpy must see the pinned thread counts, and
    # dynafeat must come from this checkout
    import dynafeat
    if not os.path.abspath(dynafeat.__file__).startswith(SRC + os.sep):
        print(f"perfbench: dynafeat imported from {dynafeat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import measure
    return measure.run(args, ROOT, nproc, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
