"""Show whether the garbage collector runs inside the benchmark's timed loops.

    python tests/gc_probe.py [--seed 900] [--reps 3] [workload ...]

A collection of the young generations costs about 1.4 ms once numpy is
imported, as much as a whole sweep, and when it falls depends on how many
container objects ``import qminlab`` and the set-up allocate.  This script
copies ``perfbench/worker.py``, ``perfbench/tracing.py`` and ``src/`` into a
temporary directory, adds ``gc.get_stats()``/``gc.get_count()`` reads just
before the timed loop starts and just after it ends, and runs each workload
(all three by default) in a fresh interpreter with ``run.py``'s child
environment plus ``PYTHONDONTWRITEBYTECODE=1`` and an empty
``PYTHONPYCACHEPREFIX``.  The copy of ``src/`` has no ``__pycache__``, so
qminlab compiles from source as in a fresh checkout, while numpy loads its
installed bytecode; a module loaded from bytecode allocates a different number
of objects.  For each repetition it prints the collections per generation
inside the loop and the three generation counts at the loop's start and end
(the probe keeps three objects alive across the loop).  It fails if either anchor line is
missing from the worker, and writes nothing under ``perfbench/`` or ``src/``.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
START = "    start = time.perf_counter()\n"
WALL = "    wall = time.perf_counter() - start\n"
BEFORE = "    import gc\n    _gc0 = gc.get_count(), [s['collections'] for s in gc.get_stats()]\n"
AFTER = (
    "    _gc1 = gc.get_count(), [s['collections'] for s in gc.get_stats()]\n"
    "    print('GCPROBE', json.dumps([_gc0, _gc1]), file=sys.stderr)\n"
)


def _probed_worker(text: str) -> str:
    for anchor in (START, WALL):
        if text.count(anchor) != 1:
            raise SystemExit(f"gc_probe: worker.py must hold {anchor.strip()!r} once")
    return text.replace(START, BEFORE + START).replace(WALL, WALL + AFTER)


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path.insert(0, str(BENCH))
    import run  # perfbench/run.py: its workload names and child environment

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="workload", help=", ".join(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=900)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(run.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "src"
        shutil.copytree(run.SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        (tmp / "worker.py").write_text(_probed_worker((BENCH / "worker.py").read_text()))
        shutil.copy(BENCH / "tracing.py", tmp / "tracing.py")
        env = run._child_env()
        env["PYTHONPATH"] = str(src)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["PYTHONPYCACHEPREFIX"] = ""
        for workload in args.workloads or run.WORKLOADS:
            for rep in range(args.reps):
                cmd = [
                    sys.executable, str(tmp / "worker.py"), "--workload", workload,
                    "--seed", str(args.seed), "--rep", str(rep), "--src", str(src),
                ]
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                    timeout=run.CHILD_TIMEOUT_S,
                )
                probe = [line for line in proc.stderr.splitlines() if line.startswith("GCPROBE ")]
                if proc.returncode != 0 or len(probe) != 1:
                    raise SystemExit(f"gc_probe: {workload} rep {rep} failed:\n{proc.stderr}")
                (start, before), (end, after) = json.loads(probe[0][len("GCPROBE "):])
                inside = [b - a for a, b in zip(before, after)]
                wall_ms = json.loads(proc.stdout.splitlines()[-1])["wall_s"] * 1000
                print(
                    f"{workload} rep {rep}: collections in loop {inside}, "
                    f"counts {tuple(start)} -> {tuple(end)}, wall {wall_ms:.2f} ms"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
