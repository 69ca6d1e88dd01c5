"""Graph construction, structural predicates, and isomorphism."""

import itertools
import random

import numpy as np
import pytest

from qminlab import (
    CapacityExceededError,
    Graph,
    InvalidParameterError,
    attach_pendants,
    bound_lima,
    bound_pendant,
    bound_pendant_general,
    bound_submatrix,
    build_K,
    coalesce,
    compare_bounds,
    complete_graph,
    cycle_graph,
    decode_graph6,
    interlacing_check,
    is_isomorphic,
    majorization_scan,
    path_graph,
    structure_report,
)
from qminlab.families import PendantProfile
from qminlab.graphs import StructureReport, _bits, girth, is_connected, two_coloring


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- constructors ------------------------------------------------------------


def test_cycle_c3():
    g = cycle_graph(3)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_cycle_c5():
    g = cycle_graph(5)
    assert g.n == 5 and g.edge_count == 5
    assert all(d == 2 for d in g.degrees())


def test_cycle_too_small():
    with pytest.raises(InvalidParameterError):
        cycle_graph(2)


def test_path_graphs():
    assert path_graph(1).n == 1 and path_graph(1).edge_count == 0
    assert path_graph(2).edges() == [(0, 1)]
    assert path_graph(4).degrees() == (1, 2, 2, 1)
    with pytest.raises(InvalidParameterError):
        path_graph(0)


def test_complete_graphs():
    k4 = complete_graph(4)
    assert k4.edge_count == 6 and all(d == 3 for d in k4.degrees())
    assert complete_graph(1).n == 1
    assert complete_graph(3) == cycle_graph(3)
    with pytest.raises(InvalidParameterError):
        complete_graph(0)


def test_no_self_loops_or_asymmetry():
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(InvalidParameterError):
        Graph(2, (1, 0))  # 0 adj 1 but not vice versa


def test_from_edges_takes_numpy_integers_and_refuses_other_values():
    g = Graph.from_edges(np.int64(3), np.array([[0, 1], [1, 2]]))
    assert g == path_graph(3)
    assert all(type(m) is int for m in g.nbr) and type(g.n) is int
    for n, edges in [(3.0, []), (True, []), (3, [(0, 1.0)]), (3, [(False, 1)])]:
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            Graph.from_edges(n, edges)


def test_graph_stores_a_list_of_rows_as_a_tuple():
    g = Graph(3, [6, 5, 3])
    assert g == Graph(3, (6, 5, 3)) == cycle_graph(3)
    assert type(g.nbr) is tuple and hash(g) == hash(cycle_graph(3))
    assert is_isomorphic(g, cycle_graph(3))


def test_graph_takes_numpy_integer_rows():
    g = Graph(np.int64(2), (np.int64(2), np.int64(1)))
    assert g == path_graph(2) and hash(g) == hash(path_graph(2))
    assert type(g.n) is int and all(type(m) is int for m in g.nbr)
    assert Graph(3, np.array([6, 5, 3], dtype=np.uint16)) == cycle_graph(3)


def test_graph_refuses_non_integer_rows():
    for nbr in [(2.0, 1.0), (2, True), ("2", "1")]:
        with pytest.raises(InvalidParameterError, match="neighbor mask must be an integer"):
            Graph(2, nbr)


def test_graph_refuses_a_non_integer_order():
    for n in (True, 1.0, np.True_):
        with pytest.raises(InvalidParameterError, match="graph order must be an integer"):
            Graph(n, (0,))


def test_vertex_arguments_take_numpy_integers_and_refuse_bools():
    c5 = cycle_graph(5)
    assert c5.has_edge(np.int64(1), np.int32(2)) and not c5.has_edge(np.int64(2), 4)
    assert c5.degree(np.uint8(4)) == 2
    assert list(c5.neighbors(np.int64(0))) == [1, 4]
    for bad in (True, 1.0, "1", np.True_):
        with pytest.raises(InvalidParameterError, match="vertex must be an integer"):
            c5.has_edge(bad, 2)


def test_graph_refuses_rows_that_are_not_iterable():
    with pytest.raises(InvalidParameterError, match="neighbor masks must be iterable"):
        Graph(2, 3)


def test_graph_refuses_missing_rows():
    with pytest.raises(InvalidParameterError, match="neighbor masks must be iterable"):
        Graph(2, None)


_C5 = cycle_graph(5)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: cycle_graph(5.0), "graph order must be an integer"),
        (lambda: path_graph(3.0), "graph order must be an integer"),
        (lambda: attach_pendants(_C5, 0, 2.0), "pendant count must be an integer"),
        (lambda: attach_pendants(_C5, 0, True), "pendant count must be an integer"),
        (lambda: majorization_scan(3.0, 2), "length must be an integer"),
        (lambda: majorization_scan("3", 2), "length must be an integer"),
        (lambda: majorization_scan(3, np.True_), "sum must be an integer"),
        (lambda: interlacing_check(_C5, (0,)), "an edge is a pair of vertices"),
        (lambda: interlacing_check(_C5, 1), "an edge is a pair of vertices"),
        (lambda: interlacing_check(_C5, (0.0, 1)), "vertex must be an integer"),
        (lambda: decode_graph6(123), "graph6 input must be bytes or str"),
        (lambda: bound_pendant(7.5, 2), "n must be an integer"),
        (lambda: bound_submatrix(10, 6.0), "k must be an integer"),
        (lambda: bound_pendant_general("9"), "n must be an integer"),
        (lambda: bound_lima(7, 1.5), "delta must be an integer"),
        (lambda: compare_bounds([4, 5.0]), "n must be an integer"),
    ],
    ids=[
        "cycle_graph-float",
        "path_graph-float",
        "attach_pendants-float",
        "attach_pendants-bool",
        "majorization_scan-float",
        "majorization_scan-str",
        "majorization_scan-numpy-bool",
        "interlacing_check-short-edge",
        "interlacing_check-int-edge",
        "interlacing_check-float-vertex",
        "decode_graph6-int",
        "bound_pendant-float",
        "bound_submatrix-float",
        "bound_pendant_general-str",
        "bound_lima-float",
        "compare_bounds-float",
    ],
)
def test_public_functions_refuse_a_non_integer_argument(call, match):
    with pytest.raises(InvalidParameterError, match=match):
        call()


def _reference_fault(n, nbr):
    """The message the mask check of ``Graph`` gave before it counted bits:
    the first fault met walking every bit of every row, or None."""
    full = (1 << n) - 1
    for v, m in enumerate(nbr):
        if m & ~full:
            return f"neighbor mask of {v} out of range"
        if (m >> v) & 1:
            return f"self-loop at vertex {v}"
        for u in _bits(m):
            if not (nbr[u] >> v) & 1:
                return f"asymmetric adjacency at ({v},{u})"
    return None


def _fault(n, nbr):
    try:
        Graph(n, nbr)
    except InvalidParameterError as exc:
        return str(exc)
    return None


def test_mask_check_matches_reference_on_every_small_matrix():
    faults = set()
    for n in range(1, 5):
        for rows in itertools.product(range(1 << n), repeat=n):
            expected = _reference_fault(n, rows)
            assert _fault(n, rows) == expected, (n, rows)
            faults.add(expected and expected.split(" ")[0])
    assert faults == {None, "self-loop", "asymmetric"}


def test_mask_check_matches_reference_on_random_masks():
    rng = random.Random(29)
    for _ in range(1500):
        n = rng.randint(1, 62)
        rows = list(random_graph(rng, n, rng.choice((0.05, 0.5, 0.95))).nbr)
        for _ in range(rng.choice((0, 0, 1, 2))):  # flip a bit: some fault, or none
            v = rng.randrange(n)
            rows[v] ^= 1 << rng.choice((rng.randrange(n), v, rng.randrange(n + 3)))
        if rng.random() < 0.05:
            rows[rng.randrange(n)] *= -1
        assert _fault(n, tuple(rows)) == _reference_fault(n, rows), (n, rows)


# -- coalescence and pendants -------------------------------------------------


def test_coalesce_triangle_with_pendant_edge():
    g = coalesce(cycle_graph(3), 2, path_graph(2), 0)
    assert g.n == 4 and g.edge_count == 4
    assert g.degrees() == (2, 2, 3, 1)


def test_coalesce_two_paths_gives_p3():
    g = coalesce(path_graph(2), 0, path_graph(2), 0)
    assert is_isomorphic(g, path_graph(3))


def test_coalesce_two_triangles():
    g = coalesce(cycle_graph(3), 0, cycle_graph(3), 0)
    assert g.n == 5 and g.edge_count == 6
    assert g.degree(0) == 4


def test_coalesce_preserves_edge_counts():
    rng = random.Random(11)
    for _ in range(50):
        g1 = random_graph(rng, rng.randint(2, 7))
        g2 = random_graph(rng, rng.randint(2, 7))
        v = rng.randrange(g1.n)
        u = rng.randrange(g2.n)
        merged = coalesce(g1, v, g2, u)
        assert merged.edge_count == g1.edge_count + g2.edge_count
        assert merged.n == g1.n + g2.n - 1
        assert merged.degree(v) == g1.degree(v) + g2.degree(u)


def test_coalesce_bad_vertex():
    with pytest.raises(InvalidParameterError):
        coalesce(cycle_graph(3), 3, path_graph(2), 0)


def test_attach_pendants():
    g = attach_pendants(cycle_graph(3), 0, 2)
    assert g.n == 5
    assert structure_report(g).pendant_count == 2
    assert attach_pendants(g, 0, 0) == g
    star = attach_pendants(path_graph(1), 0, 3)
    assert sorted(star.degrees()) == [1, 1, 1, 3]
    with pytest.raises(InvalidParameterError):
        attach_pendants(cycle_graph(3), 5, 1)


# -- structure report ----------------------------------------------------------


def test_report_c6():
    rep = structure_report(cycle_graph(6))
    assert rep.bipartite is not None
    assert rep.girth == 6
    assert rep.odd_girth is None


def test_report_c5():
    rep = structure_report(cycle_graph(5))
    assert rep.bipartite is None
    assert rep.girth == 5
    assert rep.odd_girth == 5


def test_report_p4():
    rep = structure_report(path_graph(4))
    assert rep.girth is None
    assert rep.pendant_count == 2
    assert rep.min_degree == 1
    assert rep.connected


def test_bipartite_witness_is_proper():
    rng = random.Random(23)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 8))
        rep = structure_report(g)
        if rep.bipartite is not None:
            part = rep.bipartite.part
            assert all(part[u] != part[v] for u, v in g.edges())
            assert rep.odd_girth is None
        else:
            assert rep.odd_girth is not None and rep.odd_girth % 2 == 1


def _reference_report(g):
    """structure_report as three passes: connectivity, a 2-coloring, and a
    layered BFS from every root for (girth, odd girth) with no early stop."""
    absent = g.n + 1
    best = odd = absent
    for root in range(g.n):
        seen = frontier = 1 << root
        depth = 0
        while frontier and 2 * depth + 1 < odd:
            if any(g.nbr[v] & frontier for v in _bits(frontier)):
                odd = 2 * depth + 1
                best = min(best, odd)
                break
            once = twice = 0
            for v in _bits(frontier):
                step = g.nbr[v] & ~seen
                twice |= once & step
                once |= step
            if twice:
                best = min(best, 2 * depth + 2)
            seen |= once
            frontier = once
            depth += 1
    degs = g.degrees()
    return StructureReport(
        connected=is_connected(g),
        bipartite=two_coloring(g),
        girth=best if best < absent else None,
        odd_girth=odd if odd < absent else None,
        pendant_count=sum(1 for d in degs if d == 1),
        min_degree=min(degs),
        degrees=degs,
    )


def _disjoint_union(g, h):
    return Graph(g.n + h.n, g.nbr + tuple(m << g.n for m in h.nbr))


def test_report_matches_three_pass_reference():
    rng = random.Random(31)
    graphs = [path_graph(1), Graph(2, (0, 0)), complete_graph(4), cycle_graph(9)]
    for _ in range(400):
        n = rng.randint(1, 12)
        graphs.append(random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.8))))
        # a forest: each vertex joined to at most one earlier vertex
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        graphs.append(Graph.from_edges(n, edges))
        # bipartite: edges only across a random split
        side = [rng.random() < 0.5 for _ in range(n)]
        edges = itertools.combinations(range(n), 2)
        graphs.append(Graph.from_edges(
            n, [(u, v) for u, v in edges if side[u] != side[v] and rng.random() < 0.5]
        ))
        graphs.append(_disjoint_union(graphs[-3], graphs[-1]))
    reports = [_reference_report(g) for g in graphs]
    assert any(not r.connected for r in reports) and any(r.girth is None for r in reports)
    assert any(r.bipartite is not None and r.girth for r in reports)
    assert any(r.odd_girth and r.odd_girth > 3 for r in reports)
    for g, expected in zip(graphs, reports):
        assert structure_report(g) == expected, g


def oracle_girth(g, odd_only=False):
    """Shortest (odd) cycle by subset enumeration: a shortest cycle is
    chordless, so it appears as a vertex subset inducing exactly a cycle."""
    for size in range(3, g.n + 1):
        if odd_only and size % 2 == 0:
            continue
        for subset in itertools.combinations(range(g.n), size):
            inside = set(subset)
            degs = [sum(1 for w in g.neighbors(v) if w in inside) for v in subset]
            if any(d != 2 for d in degs):
                continue
            # connected 2-regular induced subgraph = one cycle
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                v = stack.pop()
                for w in g.neighbors(v):
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                return size
    return None


def test_girth_against_subset_oracle():
    rng = random.Random(5)
    for n in range(3, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            pairs = list(itertools.combinations(range(n), 2))
            edges = [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1]
            g = Graph.from_edges(n, edges)
            rep = structure_report(g)
            assert rep.girth == oracle_girth(g)
            assert rep.odd_girth == oracle_girth(g, odd_only=True)
    for _ in range(150):
        g = random_graph(rng, rng.randint(6, 8))
        rep = structure_report(g)
        assert rep.girth == oracle_girth(g)
        assert rep.odd_girth == oracle_girth(g, odd_only=True)
    # sparse graphs up to order 12: forests, bipartite graphs, and bipartite
    # graphs with one edge inside a side, whose odd girth often exceeds the girth
    kinds = set()
    for trial in range(90):
        n = rng.randint(9, 12)
        side = [rng.randrange(2) for _ in range(n)]
        kind = trial % 3
        if kind == 0:
            edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        else:
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if side[u] != side[v] and rng.random() < 0.3
            ]
            if kind == 2:
                members = [[v for v in range(n) if side[v] == s] for s in (0, 1)]
                edges.append(rng.sample(max(members, key=len), 2))
        g = Graph.from_edges(n, edges)
        rep = structure_report(g)
        assert rep.girth == oracle_girth(g), g.edges()
        assert rep.odd_girth == oracle_girth(g, odd_only=True), g.edges()
        if rep.girth is None:
            kinds.add("forest")
        elif rep.odd_girth is None:
            kinds.add("bipartite")
        elif rep.odd_girth > rep.girth:
            kinds.add("odd-longer")
    assert kinds == {"forest", "bipartite", "odd-longer"}
    # prisms over C5 and C7: every vertex of a shortest odd cycle also lies on
    # a 4-cycle, so a BFS that stops at the girth never sees the odd cycle
    for m in (5, 7):
        ring = [(i, (i + 1) % m) for i in range(m)]
        prism = Graph.from_edges(
            2 * m, ring + [(m + u, m + v) for u, v in ring] + [(i, m + i) for i in range(m)]
        )
        rep = structure_report(prism)
        expected = (oracle_girth(prism), oracle_girth(prism, odd_only=True))
        assert (rep.girth, rep.odd_girth) == expected == (4, m)


def per_edge_girth(g):
    """The former definition: every shortest cycle is an edge uv plus a
    shortest u-v path avoiding uv, found by one BFS per edge."""
    best = None
    for u, v in g.edges():
        masks = list(g.nbr)
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        reach = frontier = 1 << u
        dist = 0
        while frontier and not (frontier >> v) & 1:
            acc = 0
            for w in range(g.n):
                if (frontier >> w) & 1:
                    acc |= masks[w]
            frontier = acc & ~reach
            reach |= frontier
            dist += 1
        if frontier and (best is None or dist + 1 < best):
            best = dist + 1
    return best


def test_girth_matches_per_edge_definition():
    rng = random.Random(37)
    seen = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 12), rng.choice((0.15, 0.25, 0.4, 0.6)))
        assert girth(g) == per_edge_girth(g), g.edges()
        seen.add(girth(g))
    assert {None, 3, 4, 5} <= seen


def test_adjacency_matrix_matches_edge_loop():
    rng = random.Random(41)
    for n in range(1, 71):
        g = random_graph(rng, n, rng.random())
        expected = np.zeros((n, n))
        for u, v in g.edges():
            expected[u, v] = expected[v, u] = 1.0
        a = g.adjacency_matrix()
        assert a.dtype == np.float64 and a.shape == (n, n)
        assert np.array_equal(a, expected), n


def test_report_permutation_invariant():
    rng = random.Random(31)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.permuted(perm)
        ra, rb = structure_report(g), structure_report(h)
        assert ra.connected == rb.connected
        assert (ra.bipartite is None) == (rb.bipartite is None)
        assert ra.girth == rb.girth
        assert ra.odd_girth == rb.odd_girth
        assert ra.pendant_count == rb.pendant_count
        assert ra.min_degree == rb.min_degree
        assert sorted(ra.degrees) == sorted(rb.degrees)


# -- isomorphism ---------------------------------------------------------------


def test_iso_relabeled_cycle():
    rng = random.Random(7)
    g = cycle_graph(5)
    for _ in range(10):
        perm = list(range(5))
        rng.shuffle(perm)
        assert is_isomorphic(g.permuted(perm), g)


def test_iso_degree_mismatch():
    star = attach_pendants(path_graph(1), 0, 3)
    assert not is_isomorphic(path_graph(4), star)


def test_iso_distinguishes_pendant_profiles():
    g1, _ = build_K(PendantProfile((2, 2, 2, 0)))
    g2, _ = build_K(PendantProfile((2, 2, 1, 1)))
    assert not is_isomorphic(g1, g2)


def test_iso_same_degrees_different_graphs():
    # C_6 vs two triangles: same degree sequence, different structure
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(cycle_graph(6), two_triangles)


def test_iso_equivalence_relation_spot_check():
    rng = random.Random(13)
    pool = []
    for _ in range(8):
        g = random_graph(rng, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        pool.extend([g, g.permuted(perm)])
    for g in pool:
        assert is_isomorphic(g, g)
    for g, h in itertools.combinations(pool, 2):
        assert is_isomorphic(g, h) == is_isomorphic(h, g)
    for g, h, f in itertools.combinations(pool, 3):
        if is_isomorphic(g, h) and is_isomorphic(h, f):
            assert is_isomorphic(g, f)


def test_iso_order_cap():
    with pytest.raises(CapacityExceededError):
        is_isomorphic(cycle_graph(17), cycle_graph(17))
