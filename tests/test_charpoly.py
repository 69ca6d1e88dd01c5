"""Exact characteristic-polynomial oracle."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qminlab import (
    Graph,
    InvalidParameterError,
    complete_graph,
    cycle_graph,
    path_graph,
    q_matrix,
)
from qminlab import charpoly
from qminlab.charpoly import (
    _exact_div,
    charpoly_coeffs,
    charpoly_oracle,
    smallest_real_root,
)
from qminlab.families import build_U_std


def test_c3_coefficients_and_double_root():
    coeffs, root = charpoly_oracle(q_matrix(cycle_graph(3)))
    assert coeffs == [1, -6, 9, -4]
    # smallest eigenvalue 1 has multiplicity two: no sign change to find,
    # which is exactly why the isolation counts roots instead
    assert abs(root - 1.0) < 1e-12


def test_p2_coefficients():
    coeffs, root = charpoly_oracle(q_matrix(path_graph(2)))
    assert coeffs == [1, -2, 0]
    assert abs(root) < 1e-12


def test_k4_coefficients():
    coeffs, root = charpoly_oracle(q_matrix(complete_graph(4)))
    assert coeffs == [1, -12, 48, -80, 48]  # (x-2)^3 (x-6)
    assert abs(root - 2.0) < 1e-12


def test_triple_root_isolation():
    # (x-1)^3 (x-5): smallest root with odd multiplicity > 1
    coeffs = [1, -8, 18, -16, 5]
    assert abs(smallest_real_root(coeffs) - 1.0) < 1e-12


def test_non_integer_entries_rejected():
    with pytest.raises(InvalidParameterError):
        charpoly_coeffs(np.array([[0.5, 0.0], [0.0, 1.0]]))


def test_leading_coefficient_monic_and_trace():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 8)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        coeffs = charpoly_coeffs(q_matrix(g))
        assert coeffs[0] == 1
        assert len(coeffs) == n + 1
        if n >= 1:
            assert coeffs[1] == -2 * g.edge_count  # -trace
        # p(0) = det(0*I - Q) = (-1)^n det(Q)
        assert coeffs[-1] == (-1) ** n * round(float(np.linalg.det(q_matrix(g))))


def test_root_matches_numpy_on_random_graphs():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        _, root = charpoly_oracle(q_matrix(g))
        reference = float(np.linalg.eigvalsh(q_matrix(g))[0])
        assert abs(root - reference) < 1e-9


def test_constant_polynomial_rejected():
    with pytest.raises(InvalidParameterError):
        smallest_real_root([3])


# -- reference: the rational-arithmetic oracle the integer one replaced -----


def _ref_charpoly_coeffs(m):
    a = [[int(x) for x in row] for row in np.asarray(m).tolist()]
    n = len(a)
    coeffs = [1]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        if k > 1:
            prev = [row[:] for row in mk]
            for i in range(n):
                prev[i][i] += coeffs[-1]
            mk = [
                [sum(a[i][t] * prev[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert rem == 0
        coeffs.append(ck)
    return coeffs


def _ref_trim(p):
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _ref_eval(p, x):
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def _ref_deriv(p):
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])] or [0]


def _ref_divmod(num, den):
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    if len(num) < len(den):
        return [Fraction(0)], _ref_trim(num)
    quot = []
    for _ in range(len(num) - len(den) + 1):
        lead = num[0] / den[0]
        quot.append(lead)
        for i in range(len(den)):
            num[i] -= lead * den[i]
        num.pop(0)
    return quot, _ref_trim(num or [Fraction(0)])


def _ref_gcd(a, b):
    a = _ref_trim([Fraction(c) for c in a])
    b = _ref_trim([Fraction(c) for c in b])
    while b != [0] and any(b):
        _, r = _ref_divmod(a, b)
        a, b = b, _ref_trim(r)
    return [c / a[0] for c in a]


def _ref_squarefree(p):
    g = _ref_gcd(p, _ref_deriv(p))
    if len(g) == 1:
        return [Fraction(c) for c in p]
    q, r = _ref_divmod(p, g)
    assert not any(r)
    return q


def _ref_sturm_chain(p):
    chain = [_ref_trim(list(p)), _ref_trim(_ref_deriv(p))]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        _, r = _ref_divmod(chain[-2], chain[-1])
        r = _ref_trim(r)
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def _ref_sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _ref_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_smallest_real_root(coeffs, width=1e-12):
    p = _ref_trim(list(coeffs))
    bound = 1 + max(abs(Fraction(c) / p[0]) for c in p[1:])
    chain = _ref_sturm_chain(_ref_squarefree(p))
    lo, hi = -bound, bound
    v_lo = _ref_sign_changes(chain, lo)
    if v_lo - _ref_sign_changes(chain, hi) == 0:
        raise InvalidParameterError("no real roots")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if v_lo - _ref_sign_changes(chain, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2)


def _labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def _random_graphs(seed, count, lo, hi):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(lo, hi)
        yield Graph.from_edges(
            n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]
        )


def _product(lead, roots):
    """Coefficients of lead * prod (x - r), descending powers."""
    p = [lead]
    for r in roots:
        p = [a - r * b for a, b in zip(p + [0], [0] + p)]
    return p


def _random_polynomials(seed, count):
    """Non-monic leads of either sign, double and triple roots, some with the
    root-free factor x^2 + 1, some sparse (their Sturm chains skip degrees,
    e.g. x^4 + x - 1); coefficients as Fractions, floats or ints."""
    rng = random.Random(seed)
    for i in range(count):
        lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 5)))
        if i % 4 == 3:
            p = [lead] + [0] * rng.randint(3, 8)
            for j in rng.sample(range(1, len(p)), 2):
                p[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 3)))
        else:
            roots = []
            for _ in range(rng.randint(1, 5)):
                r = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 8)))
                roots += [r] * rng.choice((1, 1, 2, 3))
            p = _product(lead, roots)
        if i % 5 == 0:
            p = [a + b for a, b in zip(p + [0, 0], [0, 0] + p)]
        if i % 3 == 1:
            p = [float(c) for c in p]
        elif i % 3 == 2:
            scale = math.lcm(*(c.denominator for c in p))
            p = [int(c * scale) for c in p]
        yield p


def _outcome(root_of, coeffs):
    try:
        return root_of(coeffs)
    except InvalidParameterError:
        return "no real root"


def test_root_is_bit_identical_on_every_small_graph():
    polys = set()
    for n in range(1, 6):
        for g in _labeled_graphs(n):
            q = q_matrix(g)
            coeffs = charpoly_coeffs(q)
            assert coeffs == _ref_charpoly_coeffs(q)
            assert all(type(c) is int for c in coeffs)
            polys.add(tuple(coeffs))
            polys.add(tuple(charpoly_coeffs(g.adjacency_matrix())))
    for coeffs in polys:
        assert smallest_real_root(coeffs) == _ref_smallest_real_root(coeffs)


def test_root_is_bit_identical_on_random_graphs():
    for g in _random_graphs(61, 300, 6, 10):
        q = q_matrix(g)
        coeffs, root = charpoly_oracle(q)
        assert coeffs == _ref_charpoly_coeffs(q)
        assert type(coeffs) is list and all(type(c) is int for c in coeffs)
        assert root == _ref_smallest_real_root(coeffs)


def test_root_is_bit_identical_on_random_polynomials():
    # the reference is handed each float as its exact rational value: given
    # a float lead it would divide a Fraction by a float and go on bisecting
    # and evaluating the chain in floating point
    outcomes = []
    for p in _random_polynomials(67, 300):
        outcome = _outcome(smallest_real_root, p)
        exact = [Fraction(c) for c in p]
        assert outcome == _outcome(_ref_smallest_real_root, exact), p
        outcomes.append(outcome)
    assert sum(isinstance(x, float) for x in outcomes) >= 250


def test_nonzero_scaling_leaves_root_unchanged():
    for g in _random_graphs(71, 40, 3, 9):
        coeffs = charpoly_coeffs(q_matrix(g))
        root = smallest_real_root(coeffs)
        assert smallest_real_root([3 * c for c in coeffs]) == root
        assert smallest_real_root([c / 2 for c in coeffs]) == root
        assert smallest_real_root([Fraction(-c, 7) for c in coeffs]) == root


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_input_rejected(bad):
    with pytest.raises(InvalidParameterError):
        charpoly_coeffs(np.array([[bad]]))
    with pytest.raises(InvalidParameterError):
        charpoly_coeffs(np.array([[2.0, 1.0], [1.0, bad]]))
    with pytest.raises(InvalidParameterError):
        smallest_real_root([1, bad, 2])


def test_inexact_square_free_division_raises():
    assert _exact_div([2, -2, -4], [1, 1]) == [2, -4]
    with pytest.raises(ArithmeticError):
        _exact_div([1, 0, 1], [1, 1])
    with pytest.raises(ArithmeticError):
        _exact_div([1, 0, 1], [2, 1])


@pytest.mark.parametrize(
    "matrix, reason", [([[1, 2], [3]], "ragged"), ([[1, 2], [2, "a"]], "numeric")]
)
def test_malformed_matrix_rejected(matrix, reason):
    with pytest.raises(InvalidParameterError, match=reason):
        charpoly_oracle(matrix)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1, 2], [3]], "expected a square matrix, got ragged rows"),
        ([[1, 2], [2, "a"]], "expected a numeric matrix, got dtype <U21"),
        (np.array([[1 + 0j]]), "expected a finite real number, got (1+0j)"),
        (np.array([[2.0, 1.0], [1.0, np.nan]]), "expected a finite real number, got nan"),
        (np.array([[-np.inf, 1.0], [1.0, 0.5]]), "expected a finite real number, got -inf"),
        (np.array([[1.0, 2.5], [np.nan, 1.0]]), "non-integer entry 2.5"),
        (np.array([[0.5, 0], [0, 1]], dtype=object), "non-integer entry 0.5"),
    ],
    ids=["ragged", "text", "complex", "nan", "-inf", "fraction-after-nan", "object-fraction"],
)
def test_rejections_name_the_first_bad_entry(matrix, message):
    with pytest.raises(InvalidParameterError) as info:
        charpoly_coeffs(matrix)
    assert str(info.value) == message


def test_integer_conversion_is_exact_for_every_dtype():
    # object arrays go entry by entry through exact ratios: the reference
    for g in _random_graphs(79, 30, 1, 9):
        q = q_matrix(g)
        expected = charpoly_coeffs(q.astype(object))
        for matrix in (q, q.astype(np.float32), q.astype(np.int8), q.astype(np.uint64), q.tolist()):
            assert charpoly_coeffs(matrix) == expected
    for matrix in ([[2.0**70, 1.0], [1.0, -(2.0**63)]], [[True, False], [False, True]]):
        coeffs = charpoly_coeffs(np.array(matrix))
        exact = np.array([[int(x) for x in row] for row in matrix], dtype=object)
        assert coeffs == charpoly_coeffs(exact)
        assert all(type(c) is int for c in coeffs)


def test_oracle_never_consults_lapack_for_its_matrix(monkeypatch):
    qs = [q_matrix(g) for g in _random_graphs(73, 40, 3, 9)]
    expected = [charpoly_oracle(q) for q in qs]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle asked LAPACK for the spectrum it checks")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert [charpoly_oracle(q) for q in qs] == expected


# -- int64 Faddeev-LeVerrier under the overflow bound -----------------------


class _RecordingMatrix(np.ndarray):
    """Records the dtype of the buffer every product ``charpoly_coeffs``
    forms with it is written into (``np.dot(..., out=)``)."""

    products = []

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            _RecordingMatrix.products.append(str(kwargs["out"].dtype))
        return super().__array_function__(func, types, args, kwargs)


@pytest.fixture
def products(monkeypatch):
    """dtypes of the recurrence's products, one per step k >= 2; the input
    matrix itself must have reached int64."""
    original = charpoly._as_int_matrix

    def recording(m):
        a = original(m)
        _RecordingMatrix.products.append(f"input {a.dtype}")
        return a.view(_RecordingMatrix)

    monkeypatch.setattr(charpoly, "_as_int_matrix", recording)
    _RecordingMatrix.products = []
    return _RecordingMatrix.products


def _overflowing_matrices():
    rng = random.Random(83)
    for scale, orders in ((2**31, (2, 3, 5)), (2**40, (2, 4)), (2**12, (6, 8))):
        for n in orders:
            m = [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(n)]
            yield np.array(m, dtype=np.int64)
            yield np.array(m, dtype=np.int64) + np.array(m, dtype=np.int64).T
    yield np.array([[-(2**63), 1], [1, 2**63 - 1]], dtype=np.int64)
    yield np.array([[-(2**63), 1], [1, 0]], dtype=np.int64)  # np.abs wraps here
    yield q_matrix(complete_graph(16))


def test_int64_path_falls_back_without_changing_coefficients(products):
    partway = 0
    for m in _overflowing_matrices():
        products.clear()
        coeffs = charpoly_coeffs(m)
        assert coeffs == _ref_charpoly_coeffs(m)
        assert all(type(c) is int for c in coeffs)
        if products[0] == "input int64" and "int64" in products and "object" in products:
            assert products.index("object") > products.index("int64")
            partway += 1
    assert partway >= 3  # among them K16, which widens at step 12 of 16


def test_memory_order_does_not_change_coefficients(products):
    # a Fortran-ordered copy and the transpose (same polynomial) take the
    # int64 and object routes of the C-ordered matrix, the fallback included
    rng = np.random.default_rng(29)
    asymmetric = [rng.integers(-9, 10, size=(n, n)) for n in (2, 5, 9)]
    partway = 0
    for m in [*asymmetric, *_overflowing_matrices()]:
        expected = _ref_charpoly_coeffs(m)
        views = [np.asfortranarray(m), m.T]
        if all(abs(x) < 2**53 for x in m.ravel().tolist()):  # exact as floats
            views += [np.asfortranarray(m, dtype=float), m.T.astype(float)]
        for v in views:
            products.clear()
            assert charpoly_coeffs(v) == expected, v
            partway += "int64" in products and "object" in products
    assert partway >= 6


def test_q_matrices_through_order_16_stay_on_int64(products):
    # the speed of the oracle rests on this: a Q-matrix widened to Python
    # ints would give the same coefficients at several times the cost
    count = 0
    for n in range(3, 17):
        for g in range(3, n + 1):
            for k in range(n):
                try:
                    graph, _ = build_U_std(n, k, g)
                except InvalidParameterError:
                    continue
                products.clear()
                charpoly_coeffs(q_matrix(graph))
                assert products == ["input int64"] + ["int64"] * (n - 1), (n, k, g)
                count += 1
    assert count == 252


# -- the certified float bracket cannot change a bisection decision ---------


def _spy(monkeypatch, name):
    """Replace ``charpoly.<name>`` by a wrapper; returns the list of
    (args, result) of every call."""
    calls = []
    original = getattr(charpoly, name)

    def spy(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(charpoly, name, spy)
    return calls


def _second_smallest(estimate, squarefree):
    roots = np.sort(np.roots([float(c) for c in squarefree]).real)
    return float(roots[1]) if len(roots) > 1 else None


MISLEADING_ESTIMATES = {
    "none": lambda estimate, squarefree: None,
    "nan": lambda estimate, squarefree: math.nan,
    "inf": lambda estimate, squarefree: math.inf,
    "-inf": lambda estimate, squarefree: -math.inf,
    "plus-one": lambda estimate, squarefree: (
        None if estimate(squarefree) is None else estimate(squarefree) + 1
    ),
    "second-root": _second_smallest,
    # beyond every Cauchy bound of the corpora, on either side
    "far-below": lambda estimate, squarefree: -1e300,
    "far-above": lambda estimate, squarefree: 1e300,
}


@pytest.fixture(scope="module")
def corpora():
    """(coefficients, outcome) over the corpora of the bit-identity tests,
    which tie each outcome to the reference: every small graph, 300 random
    graphs and 300 random polynomials."""
    polys = set()
    for n in range(1, 6):
        for g in _labeled_graphs(n):
            polys.add(tuple(charpoly_coeffs(q_matrix(g))))
            polys.add(tuple(charpoly_coeffs(g.adjacency_matrix())))
    cases = sorted(polys)
    cases += [charpoly_coeffs(q_matrix(g)) for g in _random_graphs(61, 300, 6, 10)]
    cases += list(_random_polynomials(67, 300))
    return [(p, _outcome(smallest_real_root, p)) for p in cases]


@pytest.mark.parametrize("name", sorted(MISLEADING_ESTIMATES))
def test_misleading_estimate_leaves_roots_bit_identical(corpora, monkeypatch, name):
    estimate, mislead = charpoly._root_estimate, MISLEADING_ESTIMATES[name]
    monkeypatch.setattr(charpoly, "_root_estimate", lambda sf: mislead(estimate, sf))
    for coeffs, expected in corpora:
        assert _outcome(smallest_real_root, coeffs) == expected, coeffs


def test_integer_coefficients_give_the_scaled_route_root(corpora):
    # all-int coefficients skip the rational scaling; as Fractions they take it
    checked = 0
    for coeffs, expected in corpora:
        if all(type(c) is int for c in coeffs):
            assert _outcome(smallest_real_root, [Fraction(c) for c in coeffs]) == expected, coeffs
            checked += 1
    assert checked >= 400


def _ref_isolates(poly, t, l, h, b):
    """``_isolates`` as a sign test per coefficient and a power per term."""
    sign = 1 if t[0] > 0 else -1
    return (
        t[0] != 0
        and all(c * sign * (-1) ** j >= 0 for j, c in enumerate(t))
        and charpoly._scaled_value(poly, h, b) * sign <= 0
        and abs(t[1]) > sum(j * abs(c) * (h - l) ** (j - 1) for j, c in enumerate(t) if j > 1)
    )


def test_isolates_matches_its_reference(corpora):
    b, verdicts = 2**64, []
    cases = [([1, -1, 0], 0.0)]  # l = 0 is a root: t_0 = 0
    for coeffs, _ in corpora:
        if len(coeffs) > 1 and all(type(c) is int for c in coeffs):
            cases.append((coeffs, charpoly._root_estimate(coeffs)))
    for coeffs, x in cases:
        if x is None:
            continue
        for delta in (0.0, 1e-9, 1e-4, 0.3, 3.0):
            width = delta * (1 + abs(x))
            l, h = math.floor((x - width) * b), math.ceil((x + width) * b)
            t = charpoly._taylor_shift(coeffs, l, b)
            verdict = charpoly._isolates(coeffs, t, l, h, b)
            assert verdict == _ref_isolates(coeffs, t, l, h, b), (coeffs, l, h)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_bracket_engages_on_random_graphs(monkeypatch):
    # without this a bracket that never certified would pass every identity
    # test above, at the old cost: no root here counts a sign on the chain
    evaluations = _spy(monkeypatch, "_sign_changes")
    for g in _random_graphs(61, 300, 6, 10):
        charpoly_oracle(q_matrix(g))
    assert evaluations == []


@pytest.mark.parametrize("estimate", [None, 1.0])
def test_near_tie_falls_back(monkeypatch, estimate):
    # (x - 1)(10^10 x - 10^10 - 1)(x - 3): two roots 1e-10 apart, both inside
    # any bracket around 1.0, so p is not monotone there; p is square-free,
    # so no second certificate is tried and the chain bisects
    coeffs = [int(c) for c in _product(10**10, [1, Fraction(10**10 + 1, 10**10), 3])]
    if estimate is not None:
        monkeypatch.setattr(charpoly, "_root_estimate", lambda poly: estimate)
    brackets = _spy(monkeypatch, "_certified_bracket")
    chains = _spy(monkeypatch, "_sturm_chain")
    evaluations = _spy(monkeypatch, "_sign_changes")
    assert smallest_real_root(coeffs) == _ref_smallest_real_root(coeffs)
    assert [result for _, result in brackets] == [None]
    assert len(chains) == 1 and len(evaluations) > 30


def test_coefficient_beyond_float_range_falls_back(monkeypatch):
    coeffs = [2**1100, -1, 0]
    estimates = _spy(monkeypatch, "_root_estimate")
    assert smallest_real_root(coeffs) == _ref_smallest_real_root(coeffs)
    assert [result for _, result in estimates] == [None]


def test_double_root_at_a_midpoint(monkeypatch):
    # x^3 + x^2 = x^2 (x + 1): the Cauchy interval is (-2, 2] and its first
    # midpoint, 0, is the double root, where every member of the chain of
    # x^3 + x^2 vanishes
    coeffs = [1, 1, 0, 0]
    expected = _ref_smallest_real_root(coeffs)
    assert smallest_real_root(coeffs) == expected
    monkeypatch.setattr(charpoly, "_root_estimate", lambda squarefree: None)
    evaluations = _spy(monkeypatch, "_sign_changes")
    assert smallest_real_root(coeffs) == expected
    assert (0, 2) in [(a, b) for (_, a, b), _ in evaluations]


def test_final_cell_needs_few_square_free_signs(monkeypatch):
    # the sign at H plus the probes of the cell search, on the polynomial
    # certified (the square-free part where the smallest root is multiple);
    # bisecting inside the bracket instead would take about 12.  The chain is
    # never counted: V(lo) comes from its leading terms, and only a failed
    # certificate needs it.
    brackets = _spy(monkeypatch, "_certified_bracket")
    counts_of_chain = _spy(monkeypatch, "_sign_changes")
    values = _spy(monkeypatch, "_scaled_value")
    counts = []
    for g in _random_graphs(61, 300, 6, 10):
        brackets.clear()
        values.clear()
        charpoly_oracle(q_matrix(g))
        (poly,), result = brackets[-1]
        assert result is not None
        counts.append(sum(args[0] is poly for args, _ in values))
    assert counts_of_chain == []
    assert max(counts) <= 6
    assert sum(counts) <= 4 * len(counts)


# -- the Taylor-shift certificate and the route each root takes ------------


def _integer_coefficients(p):
    exact = [Fraction(c) for c in p]
    scale = math.lcm(*(c.denominator for c in exact))
    return [int(c * scale) for c in exact]


def _near_ties(seed, count):
    """Polynomials with two real roots 1e-10 apart among a few others."""
    rng = random.Random(seed)
    for _ in range(count):
        r = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3)))
        others = [Fraction(rng.randint(-40, 40), rng.choice((1, 4))) for _ in range(rng.randint(0, 3))]
        yield _product(rng.choice((-3, 1, 2)), [r, r + Fraction(1, 10**10)] + others)


def _brackets(rng, p):
    """Dyadic (l, h, b), mostly close around p's real roots, some anywhere,
    some with L at a root."""
    roots = np.roots([float(c) for c in p])
    centres = [float(r.real) for r in roots if abs(r.imag) < 1e-6] or [0.0]
    for _ in range(12):
        centre = rng.choice(centres) + rng.choice((0.0, rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, -6)))
        if rng.random() < 0.1:
            centre = rng.uniform(-50, 50)
        half = 10.0 ** rng.uniform(-12, -1)
        low, high = centre - half, centre + half
        if rng.random() < 0.2:  # L on the eighths, where many of the roots lie
            low = round(centre * 8) / 8
            high = low + half
        (l, lb), (h, hb) = low.as_integer_ratio(), high.as_integer_ratio()
        b = max(lb, hb)
        yield l * (b // lb), h * (b // hb), b


def test_taylor_certificate_is_sound():
    # every accepted bracket (L, H] holds exactly one distinct root, simple,
    # and none is <= L, by the reference Sturm counts on p itself and on
    # gcd(p, p'), whose roots are the multiple roots of p
    rng = random.Random(97)
    accepted = rejected = 0
    for p in itertools.chain(_random_polynomials(101, 150), _near_ties(103, 60)):
        ints = _integer_coefficients(p)
        chain = _ref_sturm_chain(ints)
        gcd = _ref_gcd(ints, _ref_deriv(ints))
        gcd_chain = _ref_sturm_chain(gcd) if len(gcd) > 1 else None
        bound = 1 + max(abs(Fraction(c, ints[0])) for c in ints[1:])
        for l, h, b in _brackets(rng, ints):
            if not charpoly._isolates(ints, charpoly._taylor_shift(ints, l, b), l, h, b):
                rejected += 1
                continue
            accepted += 1
            low, high = Fraction(l, b), Fraction(h, b)
            assert _ref_sign_changes(chain, -bound) == _ref_sign_changes(chain, low), (p, l, h, b)
            assert _ref_eval(ints, low) != 0
            assert _ref_sign_changes(chain, low) - _ref_sign_changes(chain, high) == 1
            if gcd_chain is not None:
                assert _ref_sign_changes(gcd_chain, low) == _ref_sign_changes(gcd_chain, high)
                assert _ref_eval(gcd, high) != 0
    assert accepted >= 300 and rejected >= 300


def _multiple_smallest_root(q):
    values = np.linalg.eigvalsh(q)
    gap = values[1] - values[0]
    assert gap < 1e-9 or gap > 1e-4  # no doubt which side a root is on
    return gap < 1e-9


def test_chain_is_built_only_for_a_multiple_smallest_root(monkeypatch):
    brackets = _spy(monkeypatch, "_certified_bracket")
    chains = _spy(monkeypatch, "_sturm_chain")
    routes = []
    for g in _random_graphs(61, 300, 6, 10):
        brackets.clear()
        chains.clear()
        q = q_matrix(g)
        coeffs, _ = charpoly_oracle(q)
        results = [result is not None for _, result in brackets]
        if _multiple_smallest_root(q):
            assert results == [False, True] and len(chains) == 1
            assert brackets[1][0][0] != coeffs  # the square-free part
            routes.append("square-free")
        else:
            assert results == [True] and chains == []
            routes.append("p")
    assert (routes.count("p"), routes.count("square-free")) == (292, 8)


def test_q_matrices_through_order_16_are_decided_on_p(monkeypatch):
    brackets = _spy(monkeypatch, "_certified_bracket")
    chains = _spy(monkeypatch, "_sturm_chain")
    count = 0
    for n in range(3, 17):
        for g in range(3, n + 1):
            for k in range(n):
                try:
                    graph, _ = build_U_std(n, k, g)
                except InvalidParameterError:
                    continue
                brackets.clear()
                coeffs, root = charpoly_oracle(q_matrix(graph))
                ((poly,), result), = brackets
                assert poly == coeffs and result is not None, (n, k, g)
                assert abs(root - float(np.linalg.eigvalsh(q_matrix(graph))[0])) < 1e-9
                count += 1
    assert count == 252 and chains == []


def test_fast_route_equals_chain_bisection_at_order_16(monkeypatch):
    polys = [charpoly_coeffs(q_matrix(g)) for g in _random_graphs(107, 50, 16, 16)]
    fast = [smallest_real_root(p) for p in polys]
    monkeypatch.setattr(charpoly, "_root_estimate", lambda poly: None)
    assert [smallest_real_root(p) for p in polys] == fast
