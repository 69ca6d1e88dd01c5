"""Print the in-process latency of each kind of certify check.

    python tests/check_kinds.py [--src src] [--seed 900] [--reps 5]

The benchmark's certify workload times 647 single-graph checks of four kinds
(oracle, interlacing, pattern, majorization) and reports the median and 95th
percentile over all of them, which does not say which kind moved.  This
script imports qminlab from ``--src`` and the certify inputs and operation
from ``perfbench/worker.py``, runs the operations in the worker's order
``--reps`` times in this one interpreter, and prints each kind's count and
the median and 95th percentile of its latencies in microseconds, then the
same over all checks.  It fails if a check fails.  To compare two versions,
run it on each source tree in turn, a few times each, alternating, since the
host's speed drifts between runs.  It writes nothing under ``perfbench/`` or
``src/``.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
KINDS = ("oracle", "interlacing", "pattern", "majorization")


def _row(name, samples):
    p50 = statistics.median(samples) * 1e6
    p95 = statistics.quantiles(samples, n=20, method="inclusive")[18] * 1e6
    return f"{name:<13}{len(samples):>6}{p50:>10.1f}{p95:>10.1f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, default=900)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/ or src/
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH)]
    import qminlab as qm
    import worker  # perfbench/worker.py: the certify inputs and operation

    if Path(qm.__file__).resolve().parent != Path(args.src).resolve() / "qminlab":
        raise SystemExit(f"check_kinds: imported qminlab from {qm.__file__}")
    by_kind = {kind: [] for kind in KINDS}
    for rep in range(args.reps):
        for op in worker.certify_inputs(qm, args.seed, rep):
            t = time.perf_counter()
            result = worker.certify_op(qm, op)
            by_kind[op[0]].append(time.perf_counter() - t)
            if not worker.certify_gate(qm, result):
                raise SystemExit(f"check_kinds: {op!r} failed")
    print(f"qminlab from {Path(qm.__file__).parent}, seed {args.seed}, {args.reps} reps")
    print(f"{'kind':<13}{'checks':>6}{'p50 µs':>10}{'p95 µs':>10}")
    for kind, samples in by_kind.items():
        print(_row(kind, samples))
    print(_row("all", [s for samples in by_kind.values() for s in samples]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
