"""Exhaustive class enumeration, extremal searches, and the lemma experiments."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from qminlab import (
    CapacityExceededError,
    ClassQuery,
    Graph,
    InvalidParameterError,
    PendantProfile,
    UParams,
    alpha,
    balanced_profile,
    build_K,
    build_U,
    build_U_std,
    complete_graph,
    cycle_graph,
    encode_graph6,
    enumerate_class,
    find_extremal,
    interlacing_check,
    is_isomorphic,
    majorization_scan,
    path_graph,
    q_matrix,
    q_min_of,
    relocation_experiment,
)
from qminlab import search
from qminlab.charpoly import charpoly_oracle
from qminlab.graphs import girth, is_connected, odd_girth, two_coloring


def brute_force_class_count(n, k, unicyclic_girth=None, require_connected=True):
    """Independent labeled count: direct edge-subset enumeration with naive
    set-based connectivity and odd-cycle detection."""
    pairs = list(itertools.combinations(range(n), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        if unicyclic_girth is not None and len(edges) != n:
            continue
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        if sum(1 for v in adj if len(adj[v]) == 1) != k:
            continue
        seen = set()
        stack = [0]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v])
        if require_connected and len(seen) != n:
            continue
        color = {}
        bipartite = True
        for root in range(n):
            if root in color:
                continue
            color[root] = 0
            stack = [root]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        bipartite = False
        if bipartite:
            continue
        if unicyclic_girth is not None:
            shortest = min(
                size
                for size in range(3, n + 1)
                for sub in itertools.combinations(range(n), size)
                if all(len(adj[v] & set(sub)) == 2 for v in sub)
            )
            if shortest != unicyclic_girth:
                continue
        count += 1
    return count


# -- enumeration ---------------------------------------------------------------


def test_count_triangle_with_pendant():
    oracle = brute_force_class_count(4, 1)
    assert oracle == 12
    assert enumerate_class(ClassQuery(n=4, k=1), lambda g: None) == oracle


def test_count_labeled_five_cycles():
    oracle = brute_force_class_count(5, 0, unicyclic_girth=5)
    assert oracle == 12
    q = ClassQuery(n=5, k=0, unicyclic_girth=5)
    assert enumerate_class(q, lambda g: None) == oracle


def test_counts_match_oracle_on_more_classes():
    for n, k in [(5, 1), (5, 2), (4, 0)]:
        expected = brute_force_class_count(n, k)
        assert enumerate_class(ClassQuery(n=n, k=k), lambda g: None) == expected
    expected = brute_force_class_count(6, 1, unicyclic_girth=3)
    q = ClassQuery(n=6, k=1, unicyclic_girth=3)
    assert enumerate_class(q, lambda g: None) == expected


def test_count_disconnected_nonbipartite_classes():
    # members may be disconnected, with the odd cycle in any component
    for n, k in [(5, 0), (5, 1), (6, 1), (6, 2)]:
        expected = brute_force_class_count(n, k, require_connected=False)
        assert expected > brute_force_class_count(n, k)  # disconnected members exist
        q = ClassQuery(n=n, k=k, require_connected=False)
        assert enumerate_class(q, lambda g: None) == expected


def _graph_of_mask(n, mask):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    m = len(pairs)
    return Graph.from_edges(n, [pairs[b] for b in range(m) if (mask >> (m - 1 - b)) & 1])


def _check_batch_predicates(n, masks):
    nbr = search._nbr_rows(n, np.asarray(masks, dtype=np.int64))
    connected = search._connected_rows(nbr).tolist()
    odd_cycle = search._odd_cycle_rows(nbr).tolist()
    cycle_len = search._cycle_len_rows(nbr).tolist()
    cycles = []
    for at, mask in enumerate(masks):
        g = _graph_of_mask(n, mask)
        assert tuple(nbr[at].tolist()) == g.nbr, mask
        assert connected[at] == is_connected(g), mask
        assert odd_cycle[at] == (two_coloring(g) is None), mask
        assert odd_cycle[at] == (odd_girth(g) is not None), mask
        if connected[at] and g.edge_count == n:
            assert cycle_len[at] == girth(g), mask
            cycles.append(cycle_len[at])
    return connected.count(False), cycles


def test_batch_predicates_match_graphs_on_every_small_graph():
    for n in range(1, 7):
        _check_batch_predicates(n, list(range(1 << (n * (n - 1) // 2))))


@pytest.mark.parametrize("n", [8, 9])
def test_batch_predicates_match_graphs_on_random_graphs(n):
    rng = random.Random(8 * n + 1)
    m = n * (n - 1) // 2
    masks = []
    for p in (0.1, 0.2, 0.3, 0.5):  # sparse draws are mostly disconnected
        for _ in range(500):
            masks.append(sum(1 << b for b in range(m) if rng.random() < p))
    for _ in range(1500):  # n edges: the unicyclic candidates peeling sees
        masks.append(sum(1 << b for b in rng.sample(range(m), n)))
    disconnected, cycles = _check_batch_predicates(n, masks)
    assert disconnected > 0 and len(set(cycles)) > 2


def test_query_validation():
    with pytest.raises(InvalidParameterError):
        ClassQuery(n=4, k=4)  # no room for an odd cycle
    with pytest.raises(InvalidParameterError):
        ClassQuery(n=6, k=1, unicyclic_girth=4)  # even girth
    with pytest.raises(InvalidParameterError):
        ClassQuery(n=6, k=1, unicyclic_girth=3, require_connected=False)
    ClassQuery(n=5, k=0)  # pendant-free classes are allowed


def test_enumeration_visits_class_members_only():
    seen = []
    enumerate_class(ClassQuery(n=5, k=1), seen.append)
    for g in seen:
        degs = g.degrees()
        assert sum(1 for d in degs if d == 1) == 1


def test_enumeration_deterministic():
    runs = []
    for _ in range(2):
        acc = []
        enumerate_class(ClassQuery(n=5, k=1), lambda g: acc.append(encode_graph6(g)))
        runs.append(acc)
    assert runs[0] == runs[1]


def test_shards_partition_the_class():
    full = []
    enumerate_class(ClassQuery(n=5, k=2), lambda g: full.append(encode_graph6(g)))
    sharded = []
    for s in range(3):
        part = []
        enumerate_class(
            ClassQuery(n=5, k=2),
            lambda g: part.append(encode_graph6(g)),
            shard_index=s,
            shard_count=3,
        )
        sharded.append(part)
    merged = [g6 for part in sharded for g6 in part]
    assert sorted(merged) == sorted(full)
    assert sum(len(p) for p in sharded) == len(full)


@pytest.mark.parametrize(
    "query",
    [
        ClassQuery(n=7, k=1, unicyclic_girth=3),
        ClassQuery(n=7, k=1, unicyclic_girth=5),
        ClassQuery(n=6, k=2, unicyclic_girth=3),
    ],
)
def test_unicyclic_shards_partition_the_class_in_order(query):
    full = []
    enumerate_class(query, lambda g: full.append(encode_graph6(g)))
    for shards in (2, 3, 4):
        merged = []
        for s in range(shards):
            enumerate_class(
                query, lambda g: merged.append(encode_graph6(g)),
                shard_index=s, shard_count=shards,
            )
        assert merged == full
    for objective in ("min", "max"):
        plain = find_extremal(query, objective)
        for shards in (2, 3, 4):
            sharded = find_extremal(query, objective, shards=shards)
            assert sharded.extremal_value == plain.extremal_value
            assert sharded.graphs_examined == plain.graphs_examined
            assert [encode_graph6(w) for w in sharded.witnesses] == [
                encode_graph6(w) for w in plain.witnesses
            ]


def test_unicyclic_shard_at_order_nine_is_a_rank_range_in_bounded_memory():
    # shard 100 of 4096 is the lexicographic 9-edge subsets of ranks
    # C*100//4096 .. C*101//4096 - 1, C = C(36, 9)
    q = ClassQuery(n=9, k=1, unicyclic_girth=3)
    total = math.comb(36, 9)
    seen = []
    search._half_tables.cache_clear()
    search._rank_offsets.cache_clear()
    tracemalloc.start()
    try:
        enumerate_class(
            q, lambda g: seen.append(g.nbr), shard_index=100, shard_count=4096,
            unicyclic_cap=9,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    pairs = [(i, j) for j in range(1, 9) for i in range(j)]
    expected = []
    for subset in itertools.islice(
        itertools.combinations(range(36), 9), total * 100 // 4096, total * 101 // 4096
    ):
        g = Graph.from_edges(9, [pairs[b] for b in subset])
        if (
            sum(1 for d in g.degrees() if d == 1) == 1
            and is_connected(g)
            and girth(g) == 3
        ):
            expected.append(g.nbr)
    assert seen == expected and expected


def test_capacity_caps():
    with pytest.raises(CapacityExceededError):
        enumerate_class(ClassQuery(n=9, k=1), lambda g: None)
    with pytest.raises(CapacityExceededError):
        enumerate_class(ClassQuery(n=9, k=1, unicyclic_girth=3), lambda g: None)
    with pytest.raises(CapacityExceededError):
        enumerate_class(
            ClassQuery(n=10, k=1, unicyclic_girth=3),
            lambda g: None,
            unicyclic_cap=10,  # clamped to the hard maximum of 9
        )


# -- extremal searches -----------------------------------------------------------


def test_min_search_small_classes():
    for n, k in [(6, 1), (6, 2)]:
        res = find_extremal(ClassQuery(n=n, k=k), "min")
        expected, _ = build_U_std(n, k, 3)
        assert len(res.witnesses) == 1
        assert is_isomorphic(res.witnesses[0], expected)
        assert abs(res.extremal_value - alpha(n, k, 3)) < 1e-8
        assert res.graphs_examined > 0


def test_max_search_contains_balanced_clique():
    res = find_extremal(ClassQuery(n=7, k=4), "max")
    expected, _ = build_K(balanced_profile(7, 4))  # the K(2,1,1) graph
    assert any(is_isomorphic(w, expected) for w in res.witnesses)


def test_witness_values_match_extremum():
    res = find_extremal(ClassQuery(n=6, k=1), "min")
    for w in res.witnesses:
        val, _, _ = q_min_of(w)
        assert abs(val - res.extremal_value) <= 1e-8 * (1 + abs(res.extremal_value))


def test_sharded_results_bit_identical():
    plain = find_extremal(ClassQuery(n=6, k=2), "min")
    for shards in (2, 3, 4):
        sharded = find_extremal(ClassQuery(n=6, k=2), "min", shards=shards)
        assert sharded.extremal_value == plain.extremal_value
        assert sharded.graphs_examined == plain.graphs_examined
        assert [encode_graph6(w) for w in sharded.witnesses] == [
            encode_graph6(w) for w in plain.witnesses
        ]


def _pairwise_dedup(n, masks):
    """Reference: keep a witness unless it is isomorphic to a kept one."""
    reps = []
    for mask in sorted(masks):
        g = _graph_of_mask(n, mask)
        if not any(is_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


@pytest.mark.parametrize(
    "query", [ClassQuery(n=7, k=2), ClassQuery(n=8, k=1, unicyclic_girth=3)]
)
def test_orbit_dedup_matches_pairwise_isomorphism(query):
    _, ties = search._scan_shard(
        query, search.DEFAULT_TIE_TOL, 0, 1,
        search.GENERAL_ORDER_CAP, search.UNICYCLIC_ORDER_CAP,
    )
    for objective in ("min", "max"):
        _, masks, _ = search._keep_ties(objective, search.DEFAULT_TIE_TOL, *ties[objective])
        reps = search._dedup_witnesses(query.n, masks)
        expected = _pairwise_dedup(query.n, masks.tolist())
        assert [encode_graph6(g) for g in reps] == [encode_graph6(g) for g in expected]


def test_empty_class():
    res = find_extremal(ClassQuery(n=5, k=2, unicyclic_girth=5), "min")
    assert math.isnan(res.extremal_value)
    assert res.witnesses == ()
    assert res.graphs_examined == 0


def test_objective_validation():
    with pytest.raises(InvalidParameterError):
        find_extremal(ClassQuery(n=5, k=1), "best")
    with pytest.raises(InvalidParameterError):
        find_extremal(ClassQuery(n=5, k=1), "min", shards=0)


# -- alpha ------------------------------------------------------------------------


def test_alpha_smallest_instance_matches_oracle():
    _, root = charpoly_oracle(q_matrix(build_U_std(5, 1, 3)[0]))
    a = alpha(5, 1, 3)
    assert abs(a - root) < 1e-8
    assert 0 < a < 1


def test_alpha_monotone_spot_checks():
    assert alpha(15, 1, 3) < alpha(15, 2, 3) - 1e-8
    assert alpha(15, 2, 3) < alpha(15, 2, 5) - 1e-8
    with pytest.raises(InvalidParameterError):
        alpha(6, 2, 4)
    with pytest.raises(InvalidParameterError):
        alpha(4, 2, 3)


# -- interlacing -------------------------------------------------------------------


def test_interlacing_k4():
    # Q(K_4) = {2,2,2,6}; deleting an edge gives {3-sqrt5, 2, 2, 3+sqrt5}
    coeffs, _ = charpoly_oracle(q_matrix(complete_graph(4).without_edge(2, 3)))
    assert coeffs == [1, -10, 32, -40, 16]
    assert interlacing_check(complete_graph(4), (2, 3)).passed


def test_interlacing_c5():
    assert interlacing_check(cycle_graph(5), (0, 1)).passed


def test_interlacing_requires_edge():
    with pytest.raises(InvalidParameterError):
        interlacing_check(path_graph(4), (0, 3))


def test_interlacing_random_pairs():
    rng = random.Random(71)
    done = 0
    while done < 60:
        n = rng.randint(3, 8)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        e = edges[rng.randrange(len(edges))]
        assert interlacing_check(g, e).passed
        done += 1


# -- relocation experiments ---------------------------------------------------------


def test_relocation_between_symmetric_vertices():
    # any two cycle vertices give isomorphic results: values agree even when
    # the eigenvector magnitudes leave the weak hypothesis unmet
    res = relocation_experiment(cycle_graph(5), 2, 0, path_graph(3), 0)
    assert res.report.passed
    assert abs(res.q_before - res.q_after) < 1e-8


def test_relocation_weak_equality_on_mirror_path():
    # P_3 with a pendant edge at either end is the same path; the first
    # eigenvector of the bipartite result has equal end magnitudes, so the
    # weak hypothesis holds and the asserted inequality is an equality
    res = relocation_experiment(path_graph(3), 2, 0, path_graph(2), 0)
    assert res.weak_hypothesis
    assert res.report.passed
    assert abs(res.q_before) < 1e-10 and abs(res.q_after) < 1e-10


def test_relocation_pendant_edge_to_pendant_vertex():
    # moving a pendant edge from the anchor out to a pendant vertex turns the
    # two-broom graph into the one-broom one and strictly lowers the value
    core, lm = build_U(UParams(6, 1, 3, 3, (2,)))
    res = relocation_experiment(core, lm.pendant_paths[0][1], lm.anchor, path_graph(2), 0)
    assert res.strict_hypothesis
    assert res.report.passed
    assert res.q_before - res.q_after > 1e-8
    assert abs(res.q_before - alpha(7, 2, 3)) < 1e-9
    assert abs(res.q_after - alpha(7, 1, 3)) < 1e-9


def test_relocation_equality_between_clique_profiles():
    core, _ = build_K(PendantProfile((2, 2, 1, 0)))
    forward = relocation_experiment(core, 3, 2, path_graph(2), 0)
    assert abs(forward.q_before - forward.q_after) < 1e-9
    backward = relocation_experiment(core, 2, 3, path_graph(2), 0)
    assert abs(backward.q_before - backward.q_after) < 1e-9
    assert forward.report.passed and backward.report.passed


def test_relocation_scope_validation():
    with pytest.raises(InvalidParameterError):
        relocation_experiment(cycle_graph(5), 0, 1, cycle_graph(3), 0)  # odd branch
    with pytest.raises(InvalidParameterError):
        relocation_experiment(cycle_graph(5), 1, 1, path_graph(2), 0)
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidParameterError):
        relocation_experiment(disconnected, 0, 2, path_graph(2), 0)


# -- majorization scan ----------------------------------------------------------------


def test_majorization_simplest_transfer():
    scan = majorization_scan(3, 2)
    assert scan.profiles_checked == 2
    assert scan.report.passed
    assert len(scan.pairs) == 1
    nu, mu, qn, qm, slack = scan.pairs[0]
    assert (nu, mu) == ((2, 0, 0), (1, 1, 0))
    assert abs(qn - 0.3186693563950224) < 1e-9
    assert abs(qm - 0.38196601125010515) < 1e-9
    assert slack > 0


def test_majorization_no_transfers_available():
    scan = majorization_scan(3, 1)
    assert scan.pairs == ()
    assert scan.report.passed


def test_majorization_equality_pair():
    scan = majorization_scan(4, 6)
    assert scan.report.passed
    matches = [
        row for row in scan.pairs if row[0] == (2, 2, 2, 0) and row[1] == (2, 2, 1, 1)
    ]
    assert len(matches) == 1
    assert abs(matches[0][4]) < 1e-9  # equality case


def test_majorization_limits():
    with pytest.raises(InvalidParameterError):
        majorization_scan(2, 3)
    with pytest.raises(InvalidParameterError):
        majorization_scan(3, 0)
    with pytest.raises(CapacityExceededError):
        majorization_scan(4, 8)
