"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  The heavyweight exhaustive sweeps share one cached scan
per class, so ordering within this module matters for speed, not for
correctness.
"""

import itertools
import math
import random
import time

import numpy as np

from qminlab import (
    ClassQuery,
    Graph,
    PendantProfile,
    alpha,
    balanced_profile,
    bound_lima,
    bound_pendant,
    bound_pendant_general,
    bound_submatrix,
    build_K,
    build_U_std,
    check_U_pattern,
    decode_graph6,
    encode_graph6,
    eig_sym,
    find_extremal,
    interlacing_check,
    is_isomorphic,
    majorization_scan,
    path_graph,
    q_matrix,
    q_min_of,
    rayleigh,
    relocation_experiment,
    residual,
)
from qminlab.charpoly import charpoly_oracle
from qminlab.graphs import is_connected, two_coloring

SQRT17 = math.sqrt(17)
SHARDS = 4


class criterion:
    """Context manager printing one PASS/FAIL line per acceptance criterion."""

    def __init__(self, num, text):
        self.num = num
        self.text = text

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.start
        print(f"ACCEPTANCE {self.num}: {status} ({elapsed:.1f}s) - {self.text}")
        return False


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def connected_graphs_up_to(order):
    out = []
    for n in range(1, order + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1]
            g = Graph.from_edges(n, edges)
            if is_connected(g):
                out.append(g)
    return out


def test_criterion_1_worked_example():
    with criterion(1, "worked example: the two order-10 clique graphs"):
        start = time.perf_counter()
        qm = (5 - SQRT17) / 2
        g2220, _ = build_K(PendantProfile((2, 2, 2, 0)))
        v0, _, m0 = q_min_of(g2220)
        assert abs(v0 - qm) < 1e-9
        assert m0 == 2
        g2211, _ = build_K(PendantProfile((2, 2, 1, 1)))
        v1, _, m1 = q_min_of(g2211)
        assert abs(v1 - qm) < 1e-9
        # exact integer factorization gives multiplicity 1 here; the doubled
        # least eigenvalue claimed alongside it belongs to the order-11
        # profile (2,2,2,1), which is checked below
        assert m1 == 1
        g2221, _ = build_K(PendantProfile((2, 2, 2, 1)))
        v2, _, m2 = q_min_of(g2221)
        assert abs(v2 - qm) < 1e-9 and m2 == 2
        a = (SQRT17 - 3) / 2
        for raw in (
            [a, 0, -a, 0, -1, -1, 0, 0, 1, 1],
            [a, -a, 0, 0, -1, -1, 1, 1, 0, 0],
        ):
            x = np.array(raw, dtype=float)
            x /= np.linalg.norm(x)
            assert residual(g2220, qm, x) < 1e-9
            assert abs(rayleigh(g2220, x) - qm) < 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_2_eigensolver_oracle_equivalence():
    with criterion(2, "LAPACK vs exact charpoly on all small + 200 random"):
        start = time.perf_counter()

        def check(g):
            if g.n == 0:
                return
            q = q_matrix(g)
            spec = eig_sym(q)
            _, root = charpoly_oracle(q)
            assert abs(spec.eigenvalues[0] - root) < 1e-8
            assert abs(spec.eigenvalues.sum() - 2 * g.edge_count) < 1e-8

        small = connected_graphs_up_to(5)
        assert len(small) == 772
        for g in small:
            check(g)
        rng = random.Random(2024)
        for _ in range(200):
            check(random_graph(rng, rng.randint(6, 8)))
        assert time.perf_counter() - start < 30.0


def test_criterion_3_minimizers_over_pendant_classes():
    with criterion(3, "exhaustive minimizer = cycle-broom graph, n=5..8"):
        start = time.perf_counter()
        for n in range(5, 9):
            for k in range(1, n - 2):
                res = find_extremal(ClassQuery(n=n, k=k), "min", shards=SHARDS)
                expected, _ = build_U_std(n, k, 3)
                assert len(res.witnesses) == 1, (n, k)
                assert is_isomorphic(res.witnesses[0], expected), (n, k)
        assert time.perf_counter() - start < 600.0


def test_criterion_4_unicyclic_minimizers():
    with criterion(4, "exhaustive unicyclic minimizers, n<=16, every odd girth"):
        for n in range(5, 17):
            for g_len in range(3, n + 1, 2):
                for k in range(1, n - g_len + 1):
                    expected, _ = build_U_std(n, k, g_len)
                    res = find_extremal(
                        ClassQuery(n=n, k=k, unicyclic_girth=g_len),
                        "min",
                        shards=SHARDS,
                    )
                    assert len(res.witnesses) == 1, (n, k, g_len)
                    assert is_isomorphic(res.witnesses[0], expected), (n, k, g_len)


def test_criterion_5_maximizers_contain_balanced_clique():
    with criterion(5, "maximizer witness set contains the balanced clique"):
        for n in range(6, 9):
            for k in range(1, n - 2):
                res = find_extremal(ClassQuery(n=n, k=k), "max", shards=SHARDS)
                expected, _ = build_K(balanced_profile(n, k))
                assert any(is_isomorphic(w, expected) for w in res.witnesses), (n, k)


def test_criterion_6_eigenvector_pattern_grid():
    with criterion(6, "simple least eigenvalue + full pattern, n<=16"):
        combos = 0
        for n in range(4, 17):
            for g_len in (3, 5, 7):
                for k in range(1, 5):
                    if n + k + 1 - g_len - 2 * k < 1:
                        continue
                    graph, lm = build_U_std(n, k, g_len)
                    val, x, mult = q_min_of(graph)
                    assert mult == 1, (n, k, g_len)
                    report = check_U_pattern(graph, lm, x)
                    assert report.passed, (n, k, g_len, report.violations)
                    combos += 1
        assert combos >= 80


def test_criterion_7_alpha_monotonicity():
    with criterion(7, "alpha(15,k,g) strictly increasing in k and in g"):
        grid = {
            (k, g): alpha(15, k, g) for k in range(1, 6) for g in (3, 5, 7)
        }
        for g in (3, 5, 7):
            for k in range(1, 5):
                assert grid[(k + 1, g)] - grid[(k, g)] > 1e-8
        for k in range(1, 6):
            assert grid[(k, 5)] - grid[(k, 3)] > 1e-8
            assert grid[(k, 7)] - grid[(k, 5)] > 1e-8


def test_criterion_8_interlacing():
    with criterion(8, "edge-deletion interlacing, exhaustive small + random"):
        for g in connected_graphs_up_to(5):
            for e in g.edges():
                assert interlacing_check(g, e).passed
        rng = random.Random(4096)
        done = 0
        while done < 500:
            g = random_graph(rng, rng.randint(3, 8))
            edges = g.edges()
            if not edges:
                continue
            e = edges[rng.randrange(len(edges))]
            assert interlacing_check(g, e).passed
            done += 1


def test_criterion_9_bound_soundness():
    with criterion(9, "pendant-count bounds dominate every enumerated class"):
        for n in range(5, 9):
            for k in range(1, n - 2):
                res = find_extremal(ClassQuery(n=n, k=k), "max", shards=SHARDS)
                worst = res.extremal_value
                assert worst <= bound_pendant(n, k) + 1e-8, (n, k)
                assert worst <= bound_submatrix(n, k) + 1e-8, (n, k)
                assert worst <= bound_lima(n, 1) + 1e-8, (n, k)
                assert worst < 1.0, (n, k)  # min degree is 1
        # frozen from direct evaluation: (5.5 - sqrt(18.25)) / 2; the
        # commonly quoted 0.6140002 misrounds sqrt(18.25) by ~1.1e-6
        assert abs(bound_pendant(10, 6) - 0.6139990636706174) < 1e-9
        assert abs(bound_submatrix(10, 6) - (3 - math.sqrt(6))) < 1e-9


def test_criterion_10_bound_comparison_direction():
    with criterion(10, "delta=1 bound equals the submatrix bound and wins"):
        for n in range(4, 51):
            assert abs(bound_submatrix(n, 1) - bound_lima(n, 1)) < 1e-12
            # reported direction: the k-free pendant bound is the LARGER one
            assert bound_pendant_general(n) > bound_lima(n, 1)


def test_criterion_11_relocation_and_majorization_suite():
    with criterion(11, "relocation + unit-transfer majorization property suite"):
        for length in range(3, 9):
            for total in range(1, 12 - length):
                scan = majorization_scan(length, total)
                assert scan.report.passed, (length, total)
        scan = majorization_scan(4, 6)
        row = [r for r in scan.pairs if r[0] == (2, 2, 2, 0) and r[1] == (2, 2, 1, 1)]
        assert len(row) == 1 and abs(row[0][4]) < 1e-9

        # the worked relocation: clique core, pendant edge moved both ways
        core, _ = build_K(PendantProfile((2, 2, 1, 0)))
        fwd = relocation_experiment(core, 3, 2, path_graph(2), 0)
        bwd = relocation_experiment(core, 2, 3, path_graph(2), 0)
        assert fwd.report.passed and bwd.report.passed
        assert abs(fwd.q_before - fwd.q_after) < 1e-9
        assert abs(bwd.q_before - bwd.q_after) < 1e-9

        # randomized weak-case experiments: bipartite branches moved between
        # random attachment vertices of random connected cores
        rng = random.Random(777)
        done = 0
        while done < 120:
            g1 = random_graph(rng, rng.randint(2, 6))
            if not is_connected(g1) or g1.n < 2:
                continue
            g2 = random_graph(rng, rng.randint(1, 5), p=0.6)
            if not is_connected(g2) or two_coloring(g2) is None:
                continue
            v1, v2 = rng.sample(range(g1.n), 2)
            u = rng.randrange(g2.n)
            res = relocation_experiment(g1, v1, v2, g2, u)
            assert res.report.passed
            done += 1

        # randomized strict-case experiments: nontrivial paths on
        # non-bipartite cores
        done = 0
        while done < 60:
            g1 = random_graph(rng, rng.randint(3, 6))
            if not is_connected(g1) or two_coloring(g1) is not None:
                continue
            g2 = path_graph(rng.randint(2, 4))
            v1, v2 = rng.sample(range(g1.n), 2)
            res = relocation_experiment(g1, v1, v2, g2, 0)
            assert res.report.passed
            done += 1


def test_criterion_12_graph6_round_trip_and_shard_identity():
    with criterion(12, "graph6 round-trip x10000 + sharded == unsharded"):
        rng = random.Random(31337)
        for _ in range(10_000):
            g = random_graph(rng, rng.randint(1, 20), p=rng.choice([0.2, 0.5, 0.8]))
            assert decode_graph6(encode_graph6(g)) == g

        for query in (
            ClassQuery(n=6, k=2),
            ClassQuery(n=7, k=1, unicyclic_girth=3),
        ):
            plain = find_extremal(query, "min", shards=1)
            sharded = find_extremal(query, "min", shards=SHARDS)
            assert sharded.extremal_value == plain.extremal_value
            assert sharded.graphs_examined == plain.graphs_examined
            assert [encode_graph6(w) for w in sharded.witnesses] == [
                encode_graph6(w) for w in plain.witnesses
            ]
