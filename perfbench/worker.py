"""One timed repetition of a benchmark workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON line with the repetition's timings and
verdicts.  Set-up (imports, input generation) ends at ``ready``, a
``time.monotonic`` reading the parent compares with its own clock at spawn.
Results are checked against frozen expectations after the timed section,
outside it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import tracing

ORACLE_TOL = 1e-8

# graphs_examined per class, frozen from the code this benchmark was written against
GENERAL_N7_SIZES = {2: 169155, 3: 31220, 4: 2835}
UNICYCLIC_N8_SIZE = 20160


def _rotated(classes, seed, rep):
    """The seed's order of the classes, rotated by one per repetition so
    that each class in turn runs first and pays the lazy set-up."""
    order = list(classes)
    random.Random(seed).shuffle(order)
    shift = rep % len(order)
    return order[shift:] + order[:shift]


# -- sweeps ------------------------------------------------------------------


def general_n7_inputs(qm, seed, rep):
    return _rotated((2, 3, 4), seed, rep)


def general_n7_op(qm, k):
    query = qm.search.ClassQuery(n=7, k=k)
    low = qm.search.find_extremal(query, "min", shards=1)
    high = qm.search.find_extremal(query, "max", shards=1)
    return k, low, high


def general_n7_gate(qm, result):
    k, low, high = result
    minimizer, _ = qm.families.build_U_std(7, k, 3)
    maximizer, _ = qm.families.build_K(qm.families.balanced_profile(7, k))
    return (
        low.graphs_examined == high.graphs_examined == GENERAL_N7_SIZES[k]
        and len(low.witnesses) == 1
        and qm.graphs.is_isomorphic(low.witnesses[0], minimizer)
        and any(qm.graphs.is_isomorphic(w, maximizer) for w in high.witnesses)
        and _values_match_oracle(qm, low)
        and _values_match_oracle(qm, high)
    )


def unicyclic_n8_inputs(qm, seed, rep):
    return _rotated((3, 5), seed, rep)


def unicyclic_n8_op(qm, girth):
    query = qm.search.ClassQuery(n=8, k=1, unicyclic_girth=girth)
    return girth, qm.search.find_extremal(query, "min", shards=4)


def unicyclic_n8_gate(qm, result):
    girth, low = result
    minimizer, _ = qm.families.build_U_std(8, 1, girth)
    return (
        low.graphs_examined == UNICYCLIC_N8_SIZE
        and len(low.witnesses) == 1
        and qm.graphs.is_isomorphic(low.witnesses[0], minimizer)
        and _values_match_oracle(qm, low)
    )


def _values_match_oracle(qm, result):
    for w in result.witnesses:
        _, root = qm.charpoly.charpoly_oracle(qm.spectra.q_matrix(w))
        if not abs(root - result.extremal_value) <= ORACLE_TOL:
            return False
    return bool(result.witnesses)


# -- certify -----------------------------------------------------------------


def _random_graph6(qm, rng, lo, hi):
    """graph6 of a G(n, 1/2) graph with n drawn from lo..hi and >= 1 edge."""
    while True:
        n = rng.randint(lo, hi)
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]
        if edges:
            graph = qm.graphs.Graph.from_edges(n, edges)
            return qm.graph6.encode_graph6(graph).decode(), len(edges)


def certify_inputs(qm, seed, rep):
    rng = random.Random(seed)
    ops = []
    for _ in range(250):
        ops.append(("oracle", _random_graph6(qm, rng, 6, 10)[0]))
    for _ in range(250):
        code, m = _random_graph6(qm, rng, 6, 10)
        ops.append(("interlacing", code, rng.randrange(m)))
    for n in range(4, 17):
        for g in (3, 5, 7):
            for k in range(1, 5):
                if n + k + 1 - g - 2 * k >= 1:
                    ops.append(("pattern", n, k, g))
    for length in range(3, 9):
        for total in range(1, 12 - length):
            ops.append(("majorization", length, total))
    rng.shuffle(ops)
    return ops


def certify_op(qm, op):
    kind = op[0]
    if kind == "oracle":
        graph = qm.graph6.decode_graph6(op[1])
        report = qm.graphs.structure_report(graph)
        q = qm.spectra.q_matrix(graph)
        values = qm.spectra.eig_sym(q).eigenvalues
        _, root = qm.charpoly.charpoly_oracle(q)
        # Q(G) is singular exactly when some component is bipartite
        bipartite = report.bipartite is not None
        return (
            abs(values[0] - root) <= ORACLE_TOL
            and abs(values.sum() - 2 * graph.edge_count) <= ORACLE_TOL
            and bipartite == (report.odd_girth is None)
            and (not report.connected or bipartite == (abs(root) <= ORACLE_TOL))
        )
    if kind == "interlacing":
        graph = qm.graph6.decode_graph6(op[1])
        return qm.search.interlacing_check(graph, graph.edges()[op[2]]).passed
    if kind == "pattern":
        graph, landmarks = qm.families.build_U_std(*op[1:])
        _, x, mult = qm.spectra.q_min_of(graph)
        return mult == 1 and qm.patterns.check_U_pattern(graph, landmarks, x).passed
    return qm.search.majorization_scan(*op[1:]).report.passed


def certify_gate(qm, result):
    return result is True


# workload -> (inputs from seed and repetition, one operation, its check)
WORKLOADS = {
    "general-n7": (general_n7_inputs, general_n7_op, general_n7_gate),
    "unicyclic-n8": (unicyclic_n8_inputs, unicyclic_n8_op, unicyclic_n8_gate),
    "certify": (certify_inputs, certify_op, certify_gate),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the timed section, write spans here")
    args = parser.parse_args(argv)

    import qminlab as qm  # found through PYTHONPATH, which run.py sets

    if Path(qm.__file__).resolve().parent != Path(args.src).resolve() / "qminlab":
        raise SystemExit(f"imported qminlab from {qm.__file__}, not from {args.src}")
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install(qm)
    make_inputs, op, gate = WORKLOADS[args.workload]
    inputs = make_inputs(qm, args.seed, args.rep)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    latencies, results, errors = [], [], []
    if tracer:
        tracer.recording = True
    start = time.perf_counter()
    for item in inputs:
        t = time.perf_counter()
        try:
            results.append(op(qm, item))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(None)
            errors.append(f"{args.workload} {item!r}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    if tracer:
        tracer.recording = False

    failed = 0
    for item, result in zip(inputs, results):
        if result is None:
            failed += 1
        elif not gate(qm, result):
            failed += 1
            errors.append(f"{args.workload} {item!r}: wrong result")
    out = {
        "ready": ready,
        "wall_s": wall,
        "latencies_s": latencies,
        "attempted": len(inputs),
        "failed": failed,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.write(args.spans)
        out["layers"] = tracing.summarize(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
