"""Q-matrices, the LAPACK eigensolves, and eigenpair utilities."""

import math
import random

import numpy as np
import pytest

from qminlab import (
    Graph,
    InvalidParameterError,
    PendantProfile,
    build_K,
    build_U_std,
    check_U_pattern,
    complete_graph,
    cycle_graph,
    decode_graph6,
    eig_sym,
    path_graph,
    q_matrix,
    q_min_of,
    qmin_stack,
    rayleigh,
    residual,
    structure_report,
)
from qminlab.charpoly import charpoly_oracle
from qminlab.search import ClassQuery
from qminlab.spectra import _least_pair, _solved

from labeled_oracle import LabeledQuery, enumerate_class

SQRT5 = math.sqrt(5)
SQRT17 = math.sqrt(17)


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- q_matrix -----------------------------------------------------------------


def test_q_matrix_c3():
    assert np.array_equal(
        q_matrix(cycle_graph(3)), np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    )


def test_q_matrix_p2():
    assert np.array_equal(q_matrix(path_graph(2)), np.array([[1, 1], [1, 1]]))


def test_q_matrix_k4():
    q = q_matrix(complete_graph(4))
    assert np.array_equal(np.diag(q), np.full(4, 3.0))
    off = q - np.diag(np.diag(q))
    assert np.array_equal(off, np.ones((4, 4)) - np.eye(4))


# -- eig_sym -------------------------------------------------------------------


def test_eig_c3():
    spec = eig_sym(q_matrix(cycle_graph(3)))
    assert np.allclose(spec.eigenvalues, [1, 1, 4], atol=1e-10)
    assert spec.residual_bound < 1e-10


def test_eig_k4():
    spec = eig_sym(q_matrix(complete_graph(4)))
    assert np.allclose(spec.eigenvalues, [2, 2, 2, 6], atol=1e-10)


def test_eig_c5_least():
    spec = eig_sym(q_matrix(cycle_graph(5)))
    assert abs(spec.eigenvalues[0] - (3 - math.sqrt(5)) / 2) < 1e-10


def test_eig_orthonormal_and_ordered():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10))
        spec = eig_sym(q_matrix(g))
        vals = spec.eigenvalues
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.abs(gram - np.eye(g.n)).max() < 10 * 1e-10


def test_eig_trace_identity():
    rng = random.Random(19)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10))
        spec = eig_sym(q_matrix(g))
        assert abs(spec.eigenvalues.sum() - 2 * g.edge_count) < 1e-8


def test_eig_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InvalidParameterError):
        eig_sym(np.ones((2, 3)))


def test_eig_deterministic():
    q = q_matrix(build_U_std(9, 2, 5)[0])
    a = eig_sym(q)
    b = eig_sym(q)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_psd_and_bipartite_zero_over_small_orders():
    """Least eigenvalue is never below -1e-10, and is zero (to 1e-8) exactly
    for the connected bipartite graphs, checked exhaustively through order 6."""
    for n in range(2, 7):
        graphs = []
        enumerate_class(
            LabeledQuery(n=n, k=0, require_connected=True, require_nonbipartite=False),
            graphs.append,
        )
        for k in range(1, n + 1):
            try:
                query = LabeledQuery(
                    n=n, k=k, require_connected=True, require_nonbipartite=False
                )
            except InvalidParameterError:
                continue
            enumerate_class(query, graphs.append)
        stack = np.array([q_matrix(g) for g in graphs])
        values = qmin_stack(stack)
        assert values.min() > -1e-10
        for g, val in zip(graphs, values):
            bip = structure_report(g).bipartite is not None
            assert (abs(val) < 1e-8) == bip


def test_qmin_stack_is_batch_independent():
    """Shard identity rests on this: each matrix gets the same bits whether
    it is solved alone or inside any batch."""
    graphs = []
    enumerate_class(ClassQuery(n=6, k=1), graphs.append)
    stack = np.array([q_matrix(g) for g in graphs])
    whole = qmin_stack(stack)
    alone = np.concatenate([qmin_stack(stack[i : i + 1]) for i in range(len(stack))])
    assert np.array_equal(whole, alone)
    for size in (7, 4096):
        split = np.concatenate(
            [qmin_stack(stack[i : i + size]) for i in range(0, len(stack), size)]
        )
        assert np.array_equal(whole, split)


# -- q_min_of ------------------------------------------------------------------


def test_qmin_bipartite_is_zero():
    val, _, _ = q_min_of(path_graph(4))
    assert abs(val) < 1e-10


def test_qmin_worked_clique_example():
    g, _ = build_K(PendantProfile((2, 2, 2, 0)))
    val, vec, mult = q_min_of(g)
    assert abs(val - (5 - SQRT17) / 2) < 1e-9
    assert mult == 2
    assert abs(np.linalg.norm(vec) - 1) < 1e-12
    assert residual(g, val, vec) < 1e-8


def test_qmin_sign_normalization():
    rng = random.Random(29)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        _, vec, _ = q_min_of(g)
        mags = np.abs(vec)
        # lowest index among the magnitudes tied with the largest
        lead = min(i for i in range(g.n) if mags[i] >= mags.max() * (1 - 1e-8))
        assert vec[lead] > 0


def test_qmin_is_the_checked_eigensolve_bit_for_bit():
    # q_min_of calls eigh itself and skips eig_sym's checks and residual bound
    rng = random.Random(37)
    graphs = [random_graph(rng, rng.randint(1, 12)) for _ in range(300)]
    graphs += [build_U_std(n, k, g)[0] for n, k, g in ((8, 2, 3), (12, 3, 5), (16, 4, 7))]
    for g in graphs:
        spec = eig_sym(q_matrix(g))
        value, vector, mult = q_min_of(g)
        ref_value, ref_vector, ref_mult = _least_pair(spec.eigenvalues, spec.eigenvectors)
        assert (value, mult) == (ref_value, ref_mult) and np.array_equal(vector, ref_vector)


def test_a_pattern_check_solves_q_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def spy(m):
        calls.append("eigh")
        return eigh(m)

    def refuse(m):
        raise AssertionError("the pattern check solved Q(g) a second time")

    monkeypatch.setattr(np.linalg, "eigh", spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    _solved.cache_clear()
    g, lm = build_U_std(11, 2, 5)
    _, x, _ = q_min_of(g)
    assert check_U_pattern(g, lm, x).passed
    assert calls == ["eigh"]


def test_shared_solve_is_read_only_and_q_min_of_copies_it():
    g, _ = build_U_std(9, 2, 3)
    value, vector, mult = q_min_of(g)
    q, values, vectors = _solved(g)
    assert np.array_equal(q, q_matrix(g))
    for a in (q, values, vectors):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert vector.flags.writeable and vector.flags.owndata
    kept = vector.copy()
    vector[:] = 7.0
    again = q_min_of(g)
    assert again[0] == value and again[2] == mult
    assert np.array_equal(again[1], kept)


def test_an_equal_graph_built_separately_hits_the_memo():
    g, _ = build_U_std(10, 3, 3)
    twin = Graph(g.n, tuple(int(m) for m in g.nbr))
    assert twin is not g and twin == g
    first = _solved(g)
    hits = _solved.cache_info().hits
    assert _solved(twin) is first
    assert _solved.cache_info().hits == hits + 1


GOLDEN = (SQRT5 - 1) / 2
DMK_HI = math.sqrt(0.5 / (1 + GOLDEN * GOLDEN))


@pytest.mark.parametrize(
    "code, expected",
    [
        # |x| = 1/2 exactly on vertices 0..3, for q = 1
        ("DM{", [0.5, 0.5, -0.5, -0.5, 0.0]),
        # 5-cycle 0-3-1-2-4 with chord 3-4, q = (3 - sqrt(5))/2; the mirror
        # 1<->2, 3<->4 makes |x(1)| = |x(2)| exactly
        ("DMk", [0.0, DMK_HI, -DMK_HI, -GOLDEN * DMK_HI, GOLDEN * DMK_HI]),
    ],
)
def test_qmin_sign_tie_goes_to_lowest_index(code, expected):
    """Entries equal in exact arithmetic tie for the sign lead; the lowest
    vertex index wins whatever float noise the solver leaves."""
    g = decode_graph6(code)
    _, vec, mult = q_min_of(g)
    assert mult == 1
    assert np.allclose(vec, expected, atol=1e-9)


def test_qmin_oracle_pins_smallest_unicyclic():
    g, _ = build_U_std(5, 1, 3)
    coeffs, root = charpoly_oracle(q_matrix(g))
    assert coeffs == [1, -10, 34, -48, 27, -4]
    val, _, mult = q_min_of(g)
    assert abs(val - root) < 1e-8
    assert 0 < val < 1
    assert mult == 1
    assert abs(val - 0.22428714426378588) < 1e-9


# -- rayleigh and residual -------------------------------------------------------


def test_rayleigh_zero_vector():
    assert rayleigh(cycle_graph(4), np.zeros(4)) == 0.0


def test_rayleigh_alternating_path():
    x = np.array([1.0, -1.0]) / math.sqrt(2)
    assert abs(rayleigh(path_graph(2), x)) < 1e-15


def test_rayleigh_equals_quadratic_form():
    rng = random.Random(37)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 9))
        x = np.array([rng.gauss(0, 1) for _ in range(g.n)])
        assert abs(rayleigh(g, x) - x @ q_matrix(g) @ x) < 1e-10


def test_rayleigh_paper_vector():
    a = (SQRT17 - 3) / 2
    x = np.array([a, 0, -a, 0, -1, -1, 0, 0, 1, 1])
    x /= np.linalg.norm(x)
    g, _ = build_K(PendantProfile((2, 2, 2, 0)))
    assert abs(rayleigh(g, x) - (5 - SQRT17) / 2) < 1e-9


def test_rayleigh_bounds_qmin():
    rng = random.Random(41)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 8))
        val, _, _ = q_min_of(g)
        for _ in range(10):
            x = np.array([rng.gauss(0, 1) for _ in range(g.n)])
            norm = np.linalg.norm(x)
            if norm == 0:
                continue
            x /= norm
            assert rayleigh(g, x) >= val - 1e-8


def test_residual_exact_eigenpair():
    x = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    assert residual(cycle_graph(3), 1.0, x) < 1e-15


def test_residual_non_eigenpair_defect():
    x = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    assert abs(residual(cycle_graph(3), 2.0, x) - 1 / math.sqrt(2)) < 1e-12


def test_residual_paper_eigenvectors():
    a = (SQRT17 - 3) / 2
    g, _ = build_K(PendantProfile((2, 2, 2, 0)))
    qm = (5 - SQRT17) / 2
    for raw in (
        [a, 0, -a, 0, -1, -1, 0, 0, 1, 1],
        [a, -a, 0, 0, -1, -1, 1, 1, 0, 0],
    ):
        x = np.array(raw)
        x /= np.linalg.norm(x)
        assert residual(g, qm, x) < 1e-9


def test_vertex_vector_domain_checked():
    with pytest.raises(InvalidParameterError):
        rayleigh(cycle_graph(3), np.ones(4))
    with pytest.raises(InvalidParameterError):
        residual(cycle_graph(3), 1.0, np.ones(2))


def test_eigensolve_matches_oracle_sample():
    rng = random.Random(43)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7))
        _, root = charpoly_oracle(q_matrix(g))
        val, _, _ = q_min_of(g)
        assert abs(val - root) < 1e-8
