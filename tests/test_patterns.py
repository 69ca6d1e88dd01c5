"""First-eigenvector structure checks."""

import math
import random

import numpy as np
import pytest

from qminlab import (
    BranchSpec,
    DegenerateSpectrumError,
    Graph,
    InvalidParameterError,
    PendantProfile,
    UParams,
    attach_pendants,
    build_K,
    build_U,
    build_U_std,
    check_bipartite_branch,
    check_tree_monotone,
    check_U_pattern,
    cycle_graph,
    eig_sym,
    path_graph,
    q_matrix,
    q_min_of,
    split_branches,
    structure_report,
)
from qminlab.search import ClassQuery, enumerate_class


def induced_is_bipartite(g, members):
    colors = {}
    for start in members:
        if start in colors:
            continue
        colors[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in members:
                    continue
                if w not in colors:
                    colors[w] = 1 - colors[v]
                    stack.append(w)
                elif colors[w] == colors[v]:
                    return False
    return True


# -- split_branches ------------------------------------------------------------


def test_split_at_stem_vertex():
    g, _ = build_U_std(5, 1, 3)
    branches = split_branches(g, 3)
    assert [sorted(b.members) for b in branches] == [[0, 1, 2, 3], [3, 4]]
    assert all(b.root == 3 for b in branches)


def test_split_non_cut_vertex():
    assert len(split_branches(cycle_graph(5), 2)) == 1


def test_split_star_center():
    star = attach_pendants(path_graph(1), 0, 3)
    branches = split_branches(star, 0)
    assert [sorted(b.members) for b in branches] == [[0, 1], [0, 2], [0, 3]]


def test_split_bad_vertex():
    with pytest.raises(InvalidParameterError):
        split_branches(cycle_graph(3), 7)


# -- bipartite branch dichotomy ---------------------------------------------------


def test_pendant_tree_branch_alternates():
    g, lm = build_U_std(7, 2, 3)
    _, x, _ = q_min_of(g)
    tree = split_branches(g, lm.cycle[-1])[1]
    assert sorted(tree.members) == [2, 3, 4, 5, 6]
    assert check_bipartite_branch(g, x, tree).passed


def test_higher_eigenvector_violates_branch_structure():
    g, lm = build_U_std(7, 2, 3)
    spec = eig_sym(q_matrix(g))
    tree = split_branches(g, lm.cycle[-1])[1]
    rep = check_bipartite_branch(g, spec.eigenvectors[:, 1], tree)
    assert not rep.passed
    kinds = {v[0] for v in rep.violations}
    assert "edge-product" in kinds  # offending edges are reported


def test_sign_flip_is_not_an_eigenvector():
    g, lm = build_U_std(7, 2, 3)
    _, x, _ = q_min_of(g)
    bad = x.copy()
    bad[5] = -bad[5]
    tree = split_branches(g, lm.cycle[-1])[1]
    with pytest.raises(InvalidParameterError):
        check_bipartite_branch(g, bad, tree)


def test_zero_branch_case():
    # the doubly-degenerate clique example: the listed eigenvector vanishes
    # on one clique vertex, so its pendant branches must vanish too
    a = (math.sqrt(17) - 3) / 2
    x = np.array([a, 0, -a, 0, -1, -1, 0, 0, 1, 1])
    g, _ = build_K(PendantProfile((2, 2, 2, 0)))
    for b in split_branches(g, 1)[1:]:
        assert sorted(b.members) in ([1, 6], [1, 7])
        assert check_bipartite_branch(g, x, b).passed


def test_nonbipartite_branch_rejected():
    a = (math.sqrt(17) - 3) / 2
    x = np.array([a, 0, -a, 0, -1, -1, 0, 0, 1, 1])
    g, _ = build_K(PendantProfile((2, 2, 2, 0)))
    clique_side = split_branches(g, 1)[0]
    with pytest.raises(InvalidParameterError):
        check_bipartite_branch(g, x, clique_side)


def test_branch_sweep_small_classes():
    """Every bipartite branch at every cut vertex of every small class member
    passes the dichotomy; exhaustive to order 5, seeded samples at 6 and 7."""

    def check_graph(g):
        _, x, _ = q_min_of(g)
        for v in range(g.n):
            branches = split_branches(g, v)
            if len(branches) < 2:
                continue
            for b in branches:
                if induced_is_bipartite(g, b.members):
                    assert check_bipartite_branch(g, x, b).passed

    for n in range(4, 6):
        for k in range(1, n - 2):
            enumerate_class(ClassQuery(n=n, k=k), check_graph)

    rng = random.Random(101)
    for n, quota in ((6, 500), (7, 400)):
        checked = 0
        while checked < quota:
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
            ]
            g = Graph.from_edges(n, edges)
            rep = structure_report(g)
            if not rep.connected or rep.bipartite is not None or rep.pendant_count == 0:
                continue
            check_graph(g)
            checked += 1


# -- tree monotonicity ------------------------------------------------------------


def test_pendant_path_strictly_grows():
    for n in range(6, 13):
        g, lm = build_U_std(n, 1, 3)
        _, x, _ = q_min_of(g)
        tree = split_branches(g, lm.cycle[-1])[1]
        assert check_tree_monotone(g, x, tree).passed


def test_stem_end_below_anchor():
    g, lm = build_U_std(10, 3, 3)
    _, x, _ = q_min_of(g)
    tree = split_branches(g, lm.cycle[-1])[1]
    assert check_tree_monotone(g, x, tree).passed
    assert abs(x[lm.stem[-2]]) < abs(x[lm.anchor])


def test_single_vertex_branch_trivially_passes():
    g, lm = build_U_std(6, 1, 3)
    _, x, _ = q_min_of(g)
    leaf = lm.pendant_paths[0][-1]
    rep = check_tree_monotone(g, x, BranchSpec(root=leaf, members=frozenset([leaf])))
    assert rep.passed and not rep.violations


def test_tree_monotone_preconditions():
    g, lm = build_U_std(7, 2, 3)
    _, x, _ = q_min_of(g)
    cycle_branch = split_branches(g, lm.cycle[-1])[0]
    with pytest.raises(InvalidParameterError):
        check_tree_monotone(g, x, cycle_branch)  # not a tree
    bip = path_graph(4)
    _, xb, _ = q_min_of(bip)
    with pytest.raises(InvalidParameterError):
        check_tree_monotone(bip, xb, split_branches(bip, 1)[1])  # bipartite graph


# -- the full family pattern -------------------------------------------------------


def test_u_pattern_g5():
    g, lm = build_U_std(9, 2, 5)
    _, x, _ = q_min_of(g)
    assert check_U_pattern(g, lm, x).passed


def test_u_pattern_g3_mirror_pair():
    g, lm = build_U_std(7, 1, 3)
    _, x, _ = q_min_of(g)
    assert check_U_pattern(g, lm, x).passed
    v1, v2 = lm.cycle[0], lm.cycle[1]
    assert abs(x[v1] - x[v2]) < 1e-8


def test_u_pattern_rejects_second_eigenvector():
    g, lm = build_U_std(7, 1, 3)
    spec = eig_sym(q_matrix(g))
    rep = check_U_pattern(g, lm, spec.eigenvectors[:, 1])
    assert not rep.passed
    assert "alternation" in {v[0] for v in rep.violations}


def test_u_pattern_rejects_wrong_family():
    g, lm = build_U(UParams(6, 1, 3, 2, (3,)))  # pendant path of length 3
    _, x, _ = q_min_of(g)
    with pytest.raises(InvalidParameterError):
        check_U_pattern(g, lm, x)


def test_u_pattern_rejects_non_eigenvector():
    g, lm = build_U_std(7, 1, 3)
    with pytest.raises(InvalidParameterError):
        check_U_pattern(g, lm, np.ones(7))


def test_u_pattern_refuses_a_multiple_least_eigenvalue(monkeypatch):
    # the family's least eigenvalue is simple, so fake a tie with the next one
    g, lm = build_U_std(7, 1, 3)
    _, x, _ = q_min_of(g)
    eigvalsh = np.linalg.eigvalsh

    def tied(m):
        values = eigvalsh(m)
        values[1] = values[0]
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", tied)
    with pytest.raises(DegenerateSpectrumError, match="multiplicity 2; pattern needs 1"):
        check_U_pattern(g, lm, x)


def test_u_pattern_grid_subset():
    for n, k, g_len in [(8, 1, 3), (9, 1, 5), (10, 2, 5), (11, 3, 3), (12, 1, 7)]:
        graph, lm = build_U_std(n, k, g_len)
        val, x, mult = q_min_of(graph)
        assert mult == 1
        assert 0 < val < 1
        assert check_U_pattern(graph, lm, x).passed
