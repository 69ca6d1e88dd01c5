"""Exhaustive class enumeration, extremal searches, and the lemma experiments."""

import gc
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

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

import labeled_oracle as labeled
from labeled_oracle import LabeledQuery, enumerate_class
from verdict_dump import verdict_lines


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


def _check_count(q, expected):
    """Both the labeled oracle and the by-class search count the class's
    labeled graphs as the brute force does."""
    assert enumerate_class(q, lambda g: None) == expected, q
    assert find_extremal(q, "min").graphs_examined == expected, q


def test_count_triangle_with_pendant():
    oracle = brute_force_class_count(4, 1)
    assert oracle == 12
    _check_count(ClassQuery(n=4, k=1), oracle)


def test_count_labeled_five_cycles():
    oracle = brute_force_class_count(5, 0, unicyclic_girth=5)
    assert oracle == 12
    _check_count(ClassQuery(n=5, k=0, unicyclic_girth=5), oracle)


def test_counts_match_oracle_on_more_classes():
    for n, k in [(5, 1), (5, 2), (4, 0)]:
        _check_count(ClassQuery(n=n, k=k), brute_force_class_count(n, k))
    expected = brute_force_class_count(6, 1, unicyclic_girth=3)
    _check_count(ClassQuery(n=6, k=1, unicyclic_girth=3), expected)


def test_count_disconnected_nonbipartite_classes():
    # members may be disconnected, with the odd cycle in any component
    for n, k in [(5, 0), (5, 1), (6, 1), (6, 2)]:
        expected = brute_force_class_count(n, k, require_connected=False)
        assert expected > brute_force_class_count(n, k)  # disconnected members exist
        q = LabeledQuery(n=n, k=k, require_connected=False)
        assert enumerate_class(q, lambda g: None) == expected


def _graph_of_mask(n, mask):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    m = len(pairs)
    return Graph.from_edges(n, [pairs[b] for b in range(m) if (mask >> (m - 1 - b)) & 1])


def _mask_of(n, nbr):
    """The edge-subset mask of the graph with these neighbour rows."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    m = len(pairs)
    return sum(1 << (m - 1 - b) for b, (i, j) in enumerate(pairs) if (nbr[j] >> i) & 1)


def _check_batch_predicates(n, masks):
    nbr = labeled._nbr_rows(n, np.asarray(masks, dtype=np.int64))
    connected = labeled._connected_rows(nbr).tolist()
    odd_cycle = labeled._odd_cycle_rows(nbr).tolist()
    cycle_len = labeled._cycle_len_rows(nbr).tolist()
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
    assert merged == full


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
    labeled._half_tables.cache_clear()
    labeled._rank_offsets.cache_clear()
    tracemalloc.start()
    try:
        enumerate_class(
            q, lambda g: seen.append(g.nbr), shard_index=100, shard_count=4096
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


def _rank(m, k, masks):
    """Reference inverse of ``labeled._unrank``: the lexicographic ranks of
    the k-edge subsets with these masks among the k-subsets of 0..m-1.

    Lexicographic order of equal-size subsets is decreasing mask order, so
    the rank is C(m, k) - 1 less the number of smaller masks, which is the
    sum of C(p, j) over the set bits p of a mask, the j-th lowest first.
    """
    binom = np.array([[math.comb(p, j) for j in range(k + 1)] for p in range(m)])
    below = np.zeros(masks.size, dtype=np.int64)
    seen = np.zeros(masks.size, dtype=np.int64)
    for p in range(m):
        bit = (masks >> p) & 1
        seen += bit
        below += bit * binom[p, seen]
    return math.comb(m, k) - 1 - below


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_rank_inverts_unrank(n):
    m = n * (n - 1) // 2
    total = math.comb(m, n)
    lo = 0 if total <= 1 << 17 else total // 3  # a window at order 9
    hi = min(total, lo + (1 << 17))
    edge_bit = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    masks = edge_bit[labeled._unrank(m, n, lo, hi)].sum(axis=1)
    assert (_rank(m, n, masks) == np.arange(lo, hi)).all()
    assert (np.diff(masks) < 0).all()  # lexicographic order is decreasing mask order


def test_capacity_caps():
    # general classes are searched up to order 8, unicyclic ones up to 16
    for q, cap in (
        (ClassQuery(n=9, k=1), 8),
        (ClassQuery(n=9, k=2), 8),  # its cores, of order 7, exist: refused all the same
        (ClassQuery(n=17, k=1, unicyclic_girth=3), 16),
    ):
        with pytest.raises(CapacityExceededError, match=f"up to order {cap}"):
            find_extremal(q, "min")


# -- cores plus pendant placements ------------------------------------------------


def test_core_class_counts():
    # connected graphs (OEIS A001349) minus connected bipartite ones (A005142)
    connected = [1, 1, 2, 6, 21, 112, 853]
    assert [search._connected_classes(m)[0].size for m in range(1, 8)] == connected
    bipartite = [1, 3, 5, 17, 44]
    counts = [len(search._cores(m)) for m in range(3, 8)]
    assert counts == [c - b for c, b in zip(connected[2:], bipartite)] == [1, 3, 16, 95, 809]
    for m in range(3, 7):
        for core, auts in search._cores(m):
            orbit = search._orbit(m, core)
            assert core == orbit.min()
            assert len(auts) * len(set(orbit.tolist())) == math.factorial(m)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_cores_match_labeled_scan(m):
    # the vertex-adding build against the labeled scan of every mask
    got, want = search._cores(m), labeled._cores(m)
    assert [core for core, _ in got] == [core for core, _ in want]
    for (_, got_auts), (_, want_auts) in zip(got, want):
        assert np.array_equal(got_auts, want_auts)


def _canonical(n, graphs):
    """The sorted orbit minima of some graphs' masks: two witness lists name
    the same classes, each once, exactly when these agree."""
    return sorted(int(search._orbit(n, _mask_of(n, g.nbr)).min()) for g in graphs)


def _check_core_route_against_labeled_scan(q, shard_counts, blocks=None):
    blocks = list(labeled._class_stream(q, 0, 1) if blocks is None else blocks)
    results = {obj: labeled.labeled_result(q, obj, blocks) for obj in ("min", "max")}
    for shards in shard_counts:
        for objective in ("min", "max"):
            want = results[objective]
            got = find_extremal(q, objective, shards=shards)
            assert got.graphs_examined == want.graphs_examined, (q, shards)
            assert _canonical(q.n, got.witnesses) == _canonical(q.n, want.witnesses), (
                q, shards, objective
            )
            if want.graphs_examined == 0:
                assert math.isnan(got.extremal_value)
                continue
            # the labeled value is a minimum over float noise across
            # the n!/|Aut| labelings of the extremal class
            tol = 1e-13 * (1 + abs(want.extremal_value))
            assert abs(got.extremal_value - want.extremal_value) <= tol


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_core_route_matches_labeled_scan(n):
    # k = 0 goes through the leafless cores; at n = 7 its 2^21 labeled
    # candidates would make this the slowest test by far
    for k in range(0 if n < 7 else 1, n - 2):
        _check_core_route_against_labeled_scan(ClassQuery(n=n, k=k), (1, 3, 4))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_unicyclic_core_route_matches_labeled_scan(n):
    # k = 0 takes in the cycle alone (g = n); girths above n - k give
    # empty classes, which both routes must report as empty
    for g in (3, 5, 7):
        for k in range(0, n - 2):
            if g <= n:
                q = ClassQuery(n=n, k=k, unicyclic_girth=g)
                _check_core_route_against_labeled_scan(q, (1, 3, 4))


@pytest.mark.parametrize("g", [3, 5, 7])
def test_unicyclic_core_route_matches_labeled_scan_at_order_eight(g):
    # one labeled pass over the C(28, 8) candidates, its members filed by
    # pendant count, serves every k
    q = ClassQuery(n=8, k=0, unicyclic_girth=g)
    by_k = {}
    for masks in labeled._candidates(8, True, 0, 1):
        masks, nbr = labeled._members(q, masks, labeled._nbr_rows(8, masks), any_pendants=True)
        pendants = (labeled._popcount()[nbr] == 1).sum(axis=1)
        for k in range(6):
            at = pendants == k
            by_k.setdefault(k, []).append((masks[at], nbr[at], int(at.sum())))
    for k in range(6):
        q = ClassQuery(n=8, k=k, unicyclic_girth=g)
        _check_core_route_against_labeled_scan(q, (1,), by_k[k])


def _labeled_unicyclic(m, g):
    pairs = list(itertools.combinations(range(m), 2))
    for edges in itertools.combinations(pairs, m):
        graph = Graph.from_edges(m, edges)
        if is_connected(graph) and girth(graph) == g:
            yield graph


def _unicyclic_cells(n):
    """Every (g, k) of order n: each cycle length, even ones included, and
    each pendant count it leaves room for."""
    return [(g, k) for g in range(3, n + 1) for k in range(n - g + 1)]


def test_unicyclic_generator_matches_oeis():
    # rooted trees (OEIS A000081) summed over their pendant counts, then
    # connected unicyclic graphs summed over every cycle length and pendant
    # count: up to isomorphism (A001429) and labeled (A057500)
    assert [sum(len(search._rooted_trees(s, p)) for p in range(s)) for s in range(1, 10)] == [
        1, 1, 2, 4, 9, 20, 48, 115, 286
    ]
    classes, labeled = [], []
    for n in range(3, 15):
        cells = [search._unicyclic_classes(n, g, k) for g, k in _unicyclic_cells(n)]
        classes.append(sum(len(rows) for rows, _ in cells))
        labeled.append(sum(int(counts.sum()) for _, counts in cells))
    assert classes == [1, 2, 5, 13, 33, 89, 240, 657, 1806, 5026, 13999, 39260]
    assert labeled[:7] == [1, 15, 222, 3660, 68295, 1436568, 33779340]


def test_unicyclic_labeled_totals_match_closed_form():
    # A057500: (n - 1)!/2 * sum over j = 0..n-3 of n^j/j! labeled connected
    # unicyclic graphs; counts are summed as Python ints
    for n in range(3, 15):
        expected = sum(math.factorial(n - 1) // math.factorial(j) * n**j for j in range(n - 2))
        total = sum(
            sum(search._unicyclic_classes(n, g, k)[1].tolist()) for g, k in _unicyclic_cells(n)
        )
        assert total == expected // 2, n


def test_unicyclic_classes_past_int64_masks():
    # 66 edges at order 12: an edge-subset mask no longer fits in int64
    for g, k in _unicyclic_cells(12):
        rows, counts = search._unicyclic_classes(12, g, k)
        assert rows.dtype == np.uint16 and rows.shape == (len(counts), 12)
        bits = (rows[:, :, None] >> np.arange(12)) & 1
        assert (bits == bits.transpose(0, 2, 1)).all()  # symmetric
        assert not bits[:, np.arange(12), np.arange(12)].any()  # no loops
        assert (bits.sum(axis=(1, 2)) == 24).all()  # 12 edges
        assert ((bits.sum(axis=2) == 1).sum(axis=1) == k).all()  # k one-bit rows


def test_unicyclic_core_class_counts():
    for m in range(3, 7):
        for g in range(3, m + 1):
            labeled_graphs = list(_labeled_unicyclic(m, g))
            for k in range(m - g + 1):
                rows, counts = search._unicyclic_classes(m, g, k)
                expected = _pairwise_dedup_graphs(
                    graph for graph in labeled_graphs if graph.degrees().count(1) == k
                )
                graphs = [Graph(m, tuple(row)) for row in rows.tolist()]
                assert len(graphs) == len(expected), (m, g, k)
                assert not any(is_isomorphic(a, b) for a, b in itertools.combinations(graphs, 2))
                for graph, count in zip(graphs, counts.tolist()):
                    assert girth(graph) == g and is_connected(graph) and graph.edge_count == m
                    assert graph.degrees().count(1) == k
                    # orbit-stabilizer: n!/|Aut| distinct labelings
                    mask = _mask_of(m, graph.nbr)
                    assert count == len(set(search._orbit(m, mask).tolist()))


def test_unicyclic_search_at_order_nine_in_bounded_memory():
    # the classes come from tree codes and the witness is a representative
    _check_cold_unicyclic_search_memory(9)


def test_unicyclic_search_at_order_twelve_in_bounded_memory():
    _check_cold_unicyclic_search_memory(12)


def test_unicyclic_classes_for_one_pendant_count_in_bounded_memory():
    # a cold k = 1 build at order 16 makes only paths and the one tadpole
    # class: about 20 KB at peak, where building all 110,499 classes of
    # order 16 and girth 3 takes about 26 MB
    _clear_unicyclic_caches()
    tracemalloc.start()
    try:
        rows, counts = search._unicyclic_classes(16, 3, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(rows) == 1 and counts.tolist() == [math.factorial(16) // 2]


def _clear_unicyclic_caches():
    for cache in (search._rooted_trees, search._unicyclic_classes, search._run_scan):
        cache.cache_clear()


def test_unicyclic_search_at_the_order_cap_in_bounded_memory():
    # the witness is reported as generated, so no search over labellings
    # runs; the whole query traces about 0.01 and 5.2 MB, nearly all of the
    # latter the 1,231 classes
    _check_cold_unicyclic_search_memory(16, bound=2**20)
    _check_cold_unicyclic_search_memory(16, k=5, g=9, bound=8 * 2**20)


def _check_cold_unicyclic_search_memory(n, k=1, g=3, bound=64 * 2**20):
    _clear_unicyclic_caches()
    tracemalloc.start()
    try:
        res = find_extremal(ClassQuery(n=n, k=k, unicyclic_girth=g), "min")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    if k == 1:
        assert res.graphs_examined == math.factorial(n) // 2  # a tadpole: |Aut| = 2
    assert len(res.witnesses) == 1
    assert is_isomorphic(res.witnesses[0], build_U_std(n, k, g)[0])


def test_lowest_mask_matches_orbit_minimum():
    graphs = [(n, 0) for n in range(1, 9)]
    graphs += [(n, (1 << n * (n - 1) // 2) - 1) for n in range(1, 9)]
    for n in range(3, 9):
        for g, k in _unicyclic_cells(n):
            rows = search._unicyclic_classes(n, g, k)[0].tolist()
            graphs += [(n, _mask_of(n, row)) for row in rows]
    for n in range(4, 8):
        for k in range(0, n - 2):
            rows = search._representatives(n, k)[0].tolist()
            graphs += [(n, _mask_of(n, row)) for row in rows]
    rng = random.Random(2024)
    for n in range(2, 9):
        graphs += [(n, rng.getrandbits(n * (n - 1) // 2)) for _ in range(300)]
    for n, mask in graphs:
        nbr = _graph_of_mask(n, mask).nbr
        assert labeled.lowest_mask_by_prefixes(n, nbr) == int(search._orbit(n, mask).min()), (
            n, mask
        )


def test_generators_emit_one_graph_per_class():
    # what lets the by-class route report its tied representatives as the
    # witnesses: no two representatives share a lowest mask
    for n in range(3, 10):
        lowest = [
            labeled.lowest_mask_by_prefixes(n, row)
            for g, k in _unicyclic_cells(n)
            for row in search._unicyclic_classes(n, g, k)[0].tolist()
        ]
        assert len(set(lowest)) == len(lowest), n
    for n in range(4, 8):
        lowest = [
            labeled.lowest_mask_by_prefixes(n, row)
            for k in range(0, n - 2)
            for row in search._representatives(n, k)[0].tolist()
        ]
        assert len(set(lowest)) == len(lowest), n


def test_unicyclic_search_builds_no_relabelling_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a unicyclic search built the n! relabellings")

    monkeypatch.setattr(search, "_permutations", refuse)
    monkeypatch.setattr(search, "_orbit", refuse)
    search._run_scan.cache_clear()
    for k, g in ((0, 9), (1, 3), (2, 5)):
        for objective in ("min", "max"):
            res = find_extremal(ClassQuery(n=9, k=k, unicyclic_girth=g), objective, shards=2)
            assert res.witnesses


def test_sweeps_do_not_import_numpy_ma():
    # numpy.ma costs about 20 ms to import, and np.unique (so np.isin)
    # imports it on first use; a fresh interpreter shows whether a sweep does
    code = (
        "import sys\n"
        "from qminlab import ClassQuery, find_extremal\n"
        "find_extremal(ClassQuery(n=6, k=0), 'min')\n"
        "find_extremal(ClassQuery(n=7, k=2), 'min')\n"
        "find_extremal(ClassQuery(n=8, k=1, unicyclic_girth=3), 'min')\n"
        "assert 'numpy.ma' not in sys.modules, 'a sweep imported numpy.ma'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_verdicts_match_the_committed_dump():
    # tests/verdicts.txt is tests/verdict_dump.py's output: 500 searches'
    # graphs_examined, extremal value and canonical witnesses.  Each value is
    # printed as its float repr, whose last digits come from the LAPACK that
    # numpy links against, so the file is tied to the LAPACK build it was
    # written with (OpenBLAS 0.3.31 through numpy's wheel).  Where another
    # build fails this test on values alone, regenerate the file from the
    # parent commit with the script and compare against that instead.
    expected = (Path(__file__).resolve().parent / "verdicts.txt").read_text().splitlines()
    assert list(verdict_lines()) == expected


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_extremal_graphs_at_order_eight(k):
    low = find_extremal(ClassQuery(n=8, k=k), "min")
    minimizer, _ = build_U_std(8, k, 3)
    assert len(low.witnesses) == 1 and is_isomorphic(low.witnesses[0], minimizer)
    high = find_extremal(ClassQuery(n=8, k=k), "max")
    maximizer, _ = build_K(balanced_profile(8, k))
    assert any(is_isomorphic(w, maximizer) for w in high.witnesses)


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


def _pairwise_dedup_graphs(graphs):
    """Reference: keep a graph unless it is isomorphic to a kept one."""
    reps = []
    for g in graphs:
        if not any(is_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


def _pairwise_dedup(n, masks):
    return _pairwise_dedup_graphs(_graph_of_mask(n, mask) for mask in sorted(masks))


@pytest.mark.parametrize(
    "query", [ClassQuery(n=7, k=2), ClassQuery(n=8, k=1, unicyclic_girth=3)]
)
def test_orbit_dedup_matches_pairwise_isomorphism(query):
    # the labeled tie set, which holds every labeling of each tied class
    _, ties = labeled.labeled_ties(query.n, labeled._class_stream(query, 0, 1))
    for objective in ("min", "max"):
        _, masks = ties[objective]
        reps = labeled._dedup_witnesses(query.n, masks)
        expected = _pairwise_dedup(query.n, masks.tolist())
        assert [encode_graph6(g) for g in reps] == [encode_graph6(g) for g in expected]


def test_scan_cache_is_bounded():
    queries = [ClassQuery(n=n, k=k) for n in (4, 5, 6) for k in range(n - 2)]
    for tie_tol in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        for q in queries:
            find_extremal(q, "min", tie_tol)
            assert search._run_scan.cache_info().currsize <= 32
    hits = search._run_scan.cache_info().hits
    find_extremal(queries[-1], "max", 1e-3)
    assert search._run_scan.cache_info().hits == hits + 1


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


@pytest.mark.parametrize("tie_tol", [math.nan, math.inf, 0.0, -1e-8, "1e-8", None, 1j])
def test_tie_tol_must_be_finite_and_positive(tie_tol):
    with pytest.raises(InvalidParameterError):
        find_extremal(ClassQuery(n=5, k=1), "min", tie_tol)


@pytest.mark.parametrize("shards", [True, 2.0, "2"])
def test_shards_must_be_an_integer(shards):
    with pytest.raises(InvalidParameterError, match="shards must be an integer"):
        find_extremal(ClassQuery(n=5, k=1), "min", shards=shards)


def test_class_query_takes_numpy_integers():
    q = ClassQuery(n=np.int64(6), k=np.int32(1), unicyclic_girth=np.int16(3))
    assert q == ClassQuery(n=6, k=1, unicyclic_girth=3)
    assert hash(q) == hash(ClassQuery(n=6, k=1, unicyclic_girth=3))
    assert [type(v) for v in (q.n, q.k, q.unicyclic_girth)] == [int, int, int]
    assert find_extremal(ClassQuery(n=np.int64(6), k=1), "min") == find_extremal(
        ClassQuery(n=6, k=1), "min"
    )


@pytest.mark.parametrize(
    "fields",
    [
        dict(n=7.0, k=2),
        dict(n=True, k=0),
        dict(n=7, k=2.0),
        dict(n=7, k=None),
        dict(n=7, k=1, unicyclic_girth=3.0),
        dict(n=7, k=1, unicyclic_girth=True),
    ],
)
def test_class_query_refuses_non_integers(fields):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        ClassQuery(**fields)


def test_general_labeled_totals():
    # over k, the classes hold every connected non-bipartite labeled graph of
    # order n: connected labeled graphs (OEIS A001187) minus connected
    # bipartite ones (A001832)
    connected = {3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
    bipartite = {3: 3, 4: 19, 5: 195, 6: 3031, 7: 67263}
    totals = {
        n: sum(find_extremal(ClassQuery(n=n, k=k), "min").graphs_examined for k in range(n - 2))
        for n in connected
    }
    assert totals == {n: connected[n] - bipartite[n] for n in connected}
    assert list(totals.values()) == [1, 19, 533, 23673, 1798993]


def test_searches_leave_no_reference_cycles():
    # a recursive closure refers to itself through its cell; unless the
    # cycle is broken, each call leaves its captured state to the collector
    for cache in (
        search._connected_classes, search._cores, search._representatives,
        search._rooted_trees, search._unicyclic_classes, search._run_scan,
    ):
        cache.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for q in (ClassQuery(n=7, k=2), ClassQuery(n=8, k=1, unicyclic_girth=3)):
            low = find_extremal(q, "min")
            find_extremal(q, "max")
        assert is_isomorphic(low.witnesses[0], build_U_std(8, 1, 3)[0])
        assert majorization_scan(4, 6).report.passed
        assert gc.collect() == 0
    finally:
        gc.enable()


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
