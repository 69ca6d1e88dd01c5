"""qminlab benchmark: fixed workloads timed end to end, or traced per module.

    python3 perfbench/run.py --workload general-n7 --seed 1 --seconds 45 --trace 0

Run from the repository root.  Each repetition of a workload runs in a fresh
interpreter (``worker.py``), so the package's in-process caches start empty
and peak memory belongs to one workload.  Repetitions run back to back (one
client, closed loop) while the next one is expected to fit in ``--seconds``;
at least one always runs.  Timings come from the benchmark's own clocks.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced repetitions and prints the per-layer metrics derived from spans
recorded around qminlab's public functions.  The last line of standard output
is one JSON object; the lines before it are the same figures for people,
with sample counts, and the environment.  ``DESIGN.md`` says why each
workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("general-n7", "unicyclic-n8", "certify")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
# BLAS and OpenMP pools pinned to one thread: the reference machine has two
# shared cores and every workload is single-process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(workload: str, seed: int, rep: int, *extra: str):
    """Run one worker; return its JSON record, with the spawn-to-ready time
    added as ``setup_s``."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--rep", str(rep),
        "--src", str(SRC), *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
        cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def _p95(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _repeat(seconds: float, started: float, body):
    """Call body(rep) at least once, and again while the next call is
    expected to end within ``seconds`` of ``started``."""
    rep = 0
    while True:
        t = time.monotonic()
        body(rep)
        rep += 1
        now = time.monotonic()
        if now - started + (now - t) > seconds:
            return


def measure(workload: str, seed: int, seconds: float):
    """End-to-end run: set-up probes, then timed repetitions."""
    started = time.monotonic()
    setups = [_spawn(workload, seed, 0, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    records = []
    _repeat(seconds, started, lambda rep: records.append(_spawn(workload, seed, rep)))
    setups += [r["setup_s"] for r in records]
    latencies_ms = [s * 1000 for r in records for s in r["latencies_s"]]
    p95 = _p95(latencies_ms)
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("wall_s", statistics.median(r["wall_s"] for r in records), "s",
         f"median of {len(records)} repetitions"),
        ("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in records), "MB",
         f"median of {len(records)} processes"),
        ("check_p50_ms", statistics.median(latencies_ms), "ms", f"{len(latencies_ms)} checks"),
        ("check_p95_ms", p95, "ms",
         f"{len(latencies_ms)} checks, {sum(x > p95 for x in latencies_ms)} above"),
    ]
    return records, rows, []


def trace(workload: str, seed: int, seconds: float):
    """Traced run: pairs of plain and traced repetitions."""
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    plain, traced = [], []

    def pair(rep):
        plain.append(_spawn(workload, seed, rep))
        spans = OUT / f"spans-{workload}-seed{seed}-rep{rep}.jsonl"
        traced.append(_spawn(workload, seed, rep, "--spans", str(spans)))

    _repeat(seconds, started, pair)
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    layers["trace.overhead_s"] = statistics.median(
        r["wall_s"] for r in traced
    ) - statistics.median(r["wall_s"] for r in plain)
    note = f"median of {len(traced)} traced"
    rows = [(name, value, _unit(name), note) for name, value in layers.items()]
    parts = layers["search.self_s"] + layers["spectra.qmin_stack.s"] + layers["graphs.is_isomorphic.s"]
    extra = [
        ("search.accounted_s", parts, "s",
         f"self + qmin_stack + is_isomorphic, of {layers['search.find_extremal.s']:.6g} s"),
    ]
    return plain + traced, rows, extra


def _unit(name: str) -> str:
    if "_per_" in name:
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def _result(records, rows, extra):
    """The JSON result, and every figure for the text lines."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    fail_frac = ("fail_frac", failed / attempted, "", f"{failed} of {attempted} operations")
    return result, [*rows, fail_frac, *extra]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qminlab" / "__init__.py").is_file():
        print(f"qminlab sources not found under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)
    run = trace if args.trace else measure
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            records, rows, extra = run(name, args.seed, args.seconds)
            result, lines = _result(records, rows, extra)
            print(f"{name}:")
            for metric, value, unit, note in lines:
                print(f"  {metric:34s} {value:14.6g} {unit:5s}  ({note})")
            for record in records:
                for error in record["errors"]:
                    print(f"  FAILED {error}")
            sys.stdout.flush()
            results[name] = result
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "args": vars(args), "results": results}, indent=1))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
