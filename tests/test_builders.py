"""The mask-writing builders and the single-graph checks against the
edge-list code they replaced, kept below as references: the same neighbour
masks, landmarks, errors and reports, with floats compared by ``repr``.  The
U-pattern check and ``_least_pair`` are pinned the same way to the versions
that solved Q(g) a second time and scanned numpy arrays."""

import math

import random

import numpy as np
import pytest

from qminlab import (
    Graph,
    ParseError,
    PendantProfile,
    UParams,
    build_K,
    build_U,
    build_U_std,
    check_U_pattern,
    coalesce,
    complete_graph,
    cycle_graph,
    decode_graph6,
    encode_graph6,
    interlacing_check,
    majorization_scan,
    path_graph,
    q_matrix,
    q_min_of,
    rayleigh,
)
from qminlab import patterns
from qminlab.errors import DegenerateSpectrumError, InvalidParameterError
from qminlab.families import KLandmarks, ULandmarks
from qminlab.graphs import _integer
from qminlab.patterns import (
    EIGENVECTOR_CHECK_TOL,
    PATTERN_TOL,
    MajorizationScan,
    PatternReport,
    _profiles,
)
from qminlab.spectra import _least_pair


# -- references: the edge-list builders and checks ------------------------------


def _ref_complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _ref_coalesce(g1, v, g2, u):
    g1._check_vertex(v)
    g2._check_vertex(u)
    remap = {u: v}
    nxt = g1.n
    for w in range(g2.n):
        if w != u:
            remap[w] = nxt
            nxt += 1
    edges = g1.edges() + [(remap[a], remap[b]) for a, b in g2.edges()]
    return Graph.from_edges(g1.n + g2.n - 1, edges)


def _ref_u_family(max_order):
    """(params, graph, landmarks) for every UParams of order <= max_order,
    built as the edge-list build_U did: a cycle, a stem path coalesced at
    its last vertex, then one pendant path after another coalesced at the
    anchor.  Each graph is grown from the one with its last path missing."""

    def grow(g, l, lengths, graph, paths):
        anchor = g + l - 2
        for li in range(2, max_order - graph.n + 2):
            child = _ref_coalesce(graph, anchor, path_graph(li), 0)
            more = paths + ((anchor,) + tuple(range(graph.n, graph.n + li - 1)),)
            params = UParams(n=child.n, k=len(more), g=g, l=l, lengths=lengths + (li,))
            stem = (g - 1,) + tuple(range(g, g + l - 1))
            yield params, child, ULandmarks(tuple(range(g)), stem, anchor, more)
            yield from grow(g, l, params.lengths, child, more)

    for g in range(3, max_order + 1, 2):
        for l in range(1, max_order - g + 2):
            base = cycle_graph(g)
            if l > 1:
                base = _ref_coalesce(base, g - 1, path_graph(l), 0)
            yield from grow(g, l, (), base, ())


def _ref_build_K(nu):
    core = len(nu.entries)
    g = _ref_complete_graph(core)
    edges = g.edges()
    pendants = []
    nxt = core
    for i, cnt in enumerate(nu.entries):
        mine = tuple(range(nxt, nxt + cnt))
        edges.extend((i, p) for p in mine)
        pendants.append(mine)
        nxt += cnt
    graph = Graph.from_edges(nxt, edges)
    return graph, KLandmarks(clique=tuple(range(core)), pendants_of=tuple(pendants))


def _ref_decode_graph6(data):
    if isinstance(data, str):
        data = data.encode("ascii", errors="replace")
    data = data.strip()
    if not data:
        raise ParseError("empty graph6 input", offset=0)
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ParseError(f"bad graph6 size byte {data[0]!r}", offset=0)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 != need:
        off = min(len(data), need + 1)
        raise ParseError(
            f"graph6 body for order {n} needs {need} bytes, got {len(data) - 1}",
            offset=off,
        )
    bits = []
    for pos, byte in enumerate(data[1:], start=1):
        val = byte - 63
        if not 0 <= val < 64:
            raise ParseError(f"graph6 byte {byte!r} out of range", offset=pos)
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    at = 0
    for j in range(1, n):
        for i in range(j):
            if bits[at]:
                edges.append((i, j))
            at += 1
    for pos in range(at, len(bits)):
        if bits[pos]:
            raise ParseError("nonzero padding bits", offset=1 + pos // 6)
    if n == 0:
        raise ParseError("order-0 graph6 strings are not produced here", offset=0)
    return Graph.from_edges(n, edges)


def _ref_interlacing_check(g, e, tol=1e-8):
    u, v = e
    a, b = np.linalg.eigvalsh(np.stack([q_matrix(g.without_edge(u, v)), q_matrix(g)]))
    bad = []
    for i in range(g.n):
        if not a[i] <= b[i] + tol:
            bad.append(("deleted-below", i, (float(a[i]), float(b[i]))))
        if i + 1 < g.n and not b[i] <= a[i + 1] + tol:
            bad.append(("interlace", i, (float(b[i]), float(a[i + 1]))))
    return PatternReport.from_violations(bad)


def _ref_majorization_scan(length, total, margin=1e-8):
    profiles = list(_profiles(length, total))
    mats = np.stack([q_matrix(_ref_build_K(PendantProfile(nu))[0]) for nu in profiles])
    least = dict(zip(profiles, map(_least_pair, *np.linalg.eigh(mats))))
    bad, rows = [], []
    for nu in profiles:
        qn, vec, mult = least[nu]
        seen_mu = set()
        for i in range(length):
            for j in range(length):
                if nu[i] - nu[j] < 2:
                    continue
                moved = list(nu)
                moved[i] -= 1
                moved[j] += 1
                mu = tuple(sorted(moved, reverse=True))
                if mu in seen_mu:
                    continue
                seen_mu.add(mu)
                qm = least[mu][0]
                rows.append((nu, mu, qn, qm, qm - qn))
                if not qn <= qm + margin:
                    bad.append(("majorization", (nu, mu), (qn, qm)))
        if mult == 1:
            for i in range(length):
                for j in range(length):
                    if nu[i] > nu[j] and not (abs(vec[i]) >= abs(vec[j]) - margin):
                        bad.append(
                            ("clique-magnitude", (nu, i, j), (abs(vec[i]), abs(vec[j])))
                        )
    return MajorizationScan(
        profiles_checked=len(profiles),
        pairs=tuple(rows),
        report=PatternReport.from_violations(bad),
    )


def _ref_build_U_std(n, k, g):
    n, k, g = _integer(n, "n"), _integer(k, "k"), _integer(g, "g")
    l = n + k + 1 - g - 2 * k
    if l < 1:
        raise InvalidParameterError(
            f"no stem fits: n + k + 1 - g - 2k = {l} < 1 for (n={n}, k={k}, g={g})"
        )
    return build_U(UParams(n=n, k=k, g=g, l=l, lengths=(2,) * k))


def _ref_least_pair(values, vectors):
    value = float(values[0])
    multiplicity = int((values <= value + 1e-8 * (1.0 + abs(value))).sum())
    if vectors is None:
        return value, None, multiplicity
    vector = vectors[:, 0].copy()
    mags = np.abs(vector)
    lead = int((mags >= mags.max() * (1.0 - 1e-8)).argmax())
    if vector[lead] < 0:
        vector = -vector
    return value, vector, multiplicity


def _ref_validate_std_family(g, lm):
    cyc = lm.cycle
    if len(cyc) < 3 or len(cyc) % 2 == 0:
        raise InvalidParameterError("cycle landmark must have odd length >= 3")
    for a, b in zip(cyc, cyc[1:]):
        if not g.has_edge(a, b):
            raise InvalidParameterError(f"missing cycle edge ({a},{b})")
    if not g.has_edge(cyc[-1], cyc[0]):
        raise InvalidParameterError("cycle landmark does not close")
    if lm.stem[0] != cyc[-1] or lm.anchor != lm.stem[-1]:
        raise InvalidParameterError("stem landmark must run from the cycle to the anchor")
    for a, b in zip(lm.stem, lm.stem[1:]):
        if not g.has_edge(a, b):
            raise InvalidParameterError(f"missing stem edge ({a},{b})")
    for path in lm.pendant_paths:
        if len(path) != 2 or path[0] != lm.anchor:
            raise InvalidParameterError("pendant paths must be single edges at the anchor")
        if not g.has_edge(path[0], path[1]):
            raise InvalidParameterError(f"missing pendant edge {path}")
        if g.degree(path[1]) != 1:
            raise InvalidParameterError(f"vertex {path[1]} is not a pendant vertex")
    named = len(cyc) + (len(lm.stem) - 1) + len(lm.pendant_paths)
    if named != g.n or named != g.edge_count:
        raise InvalidParameterError("landmarks do not cover the graph exactly")


def _ref_check_U_pattern(g, lm, x, tol=PATTERN_TOL):
    if not math.isfinite(tol):
        raise InvalidParameterError(f"tol must be finite, got {tol}")
    _ref_validate_std_family(g, lm)
    q = q_matrix(g)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise InvalidParameterError(f"vector shape {x.shape} != ({g.n},)")
    norm = math.sqrt(x.dot(x))
    if norm == 0:
        raise InvalidParameterError("zero vector is not an eigenvector")
    x = x / norm
    if float(np.abs(rayleigh(g, x) * x - q @ x).max()) > EIGENVECTOR_CHECK_TOL:
        raise InvalidParameterError("vector does not satisfy the eigen-equation")
    x = x.tolist()
    _, _, mult = _ref_least_pair(np.linalg.eigvalsh(q), None)
    if mult != 1:
        raise DegenerateSpectrumError(f"least eigenvalue has multiplicity {mult}; pattern needs 1")
    cyc = lm.cycle
    half = (len(cyc) - 1) // 2
    bad = []
    for i in range(1, half + 1):
        a, b = cyc[i - 1], cyc[len(cyc) - i - 1]
        if abs(x[a] - x[b]) > tol:
            bad.append(("mirror", (a, b), (x[a], x[b])))
    special = tuple(sorted((cyc[half - 1], cyc[half])))
    if not x[special[0]] * x[special[1]] > tol:
        bad.append(("special-edge", special, (x[special[0]], x[special[1]])))
    for u, v in g.edges():
        if (u, v) != special and not x[u] * x[v] < -tol:
            bad.append(("alternation", (u, v), (x[u], x[v])))
    chain = [cyc[-1]] + [cyc[i] for i in range(half)]
    for a, b in zip(chain, chain[1:]):
        if not abs(x[a]) > abs(x[b]) + tol:
            bad.append(("cycle-decay", (a, b), (x[a], x[b])))
    if not abs(x[chain[-1]]) > tol:
        bad.append(("cycle-decay", chain[-1], (x[chain[-1]],)))
    for p in range(g.n):
        if abs(x[p]) <= tol:
            bad.append(("nonzero-entries", p, (x[p],)))
    return PatternReport.from_violations(bad)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, floats as their repr, or the type and
    message of what it raises."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, PatternReport):
        result = result.passed, result.violations
    return _canon(result)


def _pair_bytes(pair):
    value, vector, multiplicity = pair
    assert type(value) is float and type(multiplicity) is int
    return repr(value), None if vector is None else vector.tobytes(), multiplicity


def _std_cells(max_order):
    """(n, k, g) of every standard family member of order <= max_order."""
    for n in range(3, max_order + 1):
        for g in range(3, n + 1, 2):
            for k in range(1, n - g + 1):
                yield n, k, g


def _canon(obj):
    """``obj`` with every float, numpy's included, replaced by its repr."""
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(_canon(o) for o in obj)
    return obj


def _random_graph(rng, n, p=0.5):
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- builders -------------------------------------------------------------------


def test_build_u_matches_edge_list_reference():
    checked = 0
    for params, ref_graph, ref_landmarks in _ref_u_family(18):
        graph, landmarks = build_U(params)
        assert graph.nbr == ref_graph.nbr, params
        assert landmarks == ref_landmarks, params
        checked += 1
    assert checked == 87300


def test_build_k_matches_edge_list_reference():
    checked = 0
    for length in range(3, 9):
        for total in range(1, 15 - length):
            for nu in _profiles(length, total):
                profile = PendantProfile(nu)
                graph, landmarks = build_K(profile)
                ref_graph, ref_landmarks = _ref_build_K(profile)
                assert graph.nbr == ref_graph.nbr, nu
                assert landmarks == ref_landmarks, nu
                checked += 1
    assert checked == 393


def test_coalesce_matches_edge_list_reference():
    rng = random.Random(19)
    for _ in range(2000):
        g1 = _random_graph(rng, rng.randint(1, 9), rng.random())
        g2 = _random_graph(rng, rng.randint(1, 9), rng.random())
        v, u = rng.randrange(g1.n), rng.randrange(g2.n)
        assert coalesce(g1, v, g2, u).nbr == _ref_coalesce(g1, v, g2, u).nbr


def test_complete_graph_matches_edge_list_reference():
    for n in range(1, 63):
        assert complete_graph(n).nbr == _ref_complete_graph(n).nbr


def test_build_u_std_matches_validated_reference():
    # the standard member skips UParams' second validation on valid input
    cases = [(n, k, g) for n in range(-1, 21) for k in range(-1, 8) for g in range(-1, 20)]
    cases += [
        (True, 1, 3), (7, False, 3), (7, 1, True), (7.0, 1, 3), (7, 1.0, 3), (7, 1, 3.0),
        (np.int64(9), np.int32(2), np.uint8(5)), (np.int16(7), 0, 3), ("7", 1, 3),
        (7, 1, None), (np.float64(7), 1, 3), (np.bool_(True), 1, 3),
    ]
    built = 0
    for case in cases:
        outcome = _outcome(build_U_std, *case)
        assert outcome == _outcome(_ref_build_U_std, *case), case
        built += outcome[0] is not InvalidParameterError
    assert built == 401  # the grid's 400 family members and the numpy-int case


def test_graph6_round_trip_every_order():
    rng = random.Random(62)
    for n in range(1, 63):
        for p in (0.0, 0.3, 1.0):
            g = _random_graph(rng, n, p)
            code = encode_graph6(g)
            assert decode_graph6(code).nbr == g.nbr == _ref_decode_graph6(code).nbr


def _parse_outcome(decode, data):
    with pytest.raises(ParseError) as err:
        decode(data)
    return str(err.value), err.value.offset


def _corrupted(code):
    """Malformed variants of a graph6 string: each body byte out of range
    either way, each padding bit set, the body one byte short and long."""
    n = code[0] - 63
    for pos in range(1, len(code)):
        for bad in (62, 127, 0, 255):
            yield code[:pos] + bytes([bad]) + code[pos + 1 :]
    for bit in range(n * (n - 1) // 2, 6 * (len(code) - 1)):
        pos, shift = 1 + bit // 6, 5 - bit % 6
        yield code[:pos] + bytes([63 + (code[pos] - 63 | 1 << shift)]) + code[pos + 1 :]
    if len(code) > 1:
        yield code[:-1]
    yield code + b"?"


def test_graph6_errors_match_reference():
    rng = random.Random(6)
    cases = 0
    for n in list(range(1, 16)) + [31, 47, 62]:
        code = encode_graph6(_random_graph(rng, n))
        for bad in _corrupted(code):
            assert _parse_outcome(decode_graph6, bad) == _parse_outcome(_ref_decode_graph6, bad)
            cases += 1
    for bad in (b"", b"?", bytes([1, 95]), bytes([126])):
        assert _parse_outcome(decode_graph6, bad) == _parse_outcome(_ref_decode_graph6, bad)
    assert cases > 1000


# -- checks ---------------------------------------------------------------------


@pytest.mark.parametrize("margin", [1e-8, -1.0])
def test_majorization_scan_matches_per_profile_reference(margin, monkeypatch):
    # a margin of -1 fails most assertions, so the reports carry their values
    monkeypatch.setattr(patterns, "PATTERN_TOL", margin)
    for length in range(3, 9):
        for total in range(1, 12 - length):
            scan = majorization_scan(length, total)
            ref = _ref_majorization_scan(length, total, margin=margin)
            assert scan.profiles_checked == ref.profiles_checked
            assert _canon(scan.pairs) == _canon(ref.pairs)
            assert scan.report.passed == ref.report.passed
            assert _canon(scan.report.violations) == _canon(ref.report.violations)


def test_interlacing_check_matches_reference(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(mats):
        solved[:] = mats.copy()
        return eigvalsh(mats)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rng = random.Random(2000)
    for _ in range(2000):
        g = _random_graph(rng, rng.randint(2, 10))
        if not g.edge_count:
            continue
        u, v = rng.choice(g.edges())
        tol = rng.choice((1e-8, -1.0))  # -1 fails most assertions
        monkeypatch.setattr(patterns, "PATTERN_TOL", tol)
        report = interlacing_check(g, (u, v))
        deleted, whole = solved
        assert np.array_equal(deleted, q_matrix(g.without_edge(u, v)))
        assert np.array_equal(whole, q_matrix(g))
        ref = _ref_interlacing_check(g, (u, v), tol)
        assert _canon(report.violations) == _canon(ref.violations)
        assert report.passed == ref.passed


def test_builders_validate_one_graph_and_checks_none(monkeypatch):
    built = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    k4 = complete_graph(4)
    monkeypatch.setattr(Graph, "__init__", counting)
    for params in (UParams(4, 1, 3, 1, (2,)), UParams(16, 4, 5, 3, (2, 3, 4, 4))):
        built.clear()
        build_U(params)
        assert len(built) == 1
    for cell in ((4, 1, 3), (16, 4, 5)):
        built.clear()
        build_U_std(*cell)
        assert len(built) == 1
    for nu in _profiles(5, 6):
        built.clear()
        build_K(PendantProfile(nu))
        assert len(built) == 1
    built.clear()
    majorization_scan(4, 6)
    interlacing_check(k4, (2, 3))
    assert built == []


def test_u_pattern_matches_reference_on_every_standard_member():
    # x, its negative, the second eigenvector and a perturbed x on each cell
    rows = 0
    for n, k, g in _std_cells(16):
        graph, lm = build_U_std(n, k, g)
        _, x, _ = q_min_of(graph)
        second = np.linalg.eigh(q_matrix(graph))[1][:, 1]
        for vector in (x, -x, second, x + 1e-7):
            got = _outcome(check_U_pattern, graph, lm, vector)
            assert got == _outcome(_ref_check_U_pattern, graph, lm, vector), (n, k, g)
            rows += 1
    assert rows == 4 * 252


def _tied_columns(rng, n):
    """An (n, 2) array whose first column has several entries tied in
    magnitude with its largest, within and outside the sign-lead tolerance."""
    top = rng.uniform(0.2, 1.0)
    col = [rng.uniform(-top, top) for _ in range(n)]
    for i in rng.sample(range(n), rng.randint(1, n)):
        col[i] = rng.choice((-1, 1)) * top * (1 - rng.choice((0.0, 1e-12, 5e-9, 1e-8, 2e-8)))
    return np.array([col, [rng.random() for _ in range(n)]]).T


def test_least_pair_matches_reference_bit_for_bit():
    spectra = [np.linalg.eigh(q_matrix(build_U_std(*cell)[0])) for cell in _std_cells(16)]
    rng = random.Random(25)
    for _ in range(500):
        n = rng.randint(1, 12)
        base = rng.uniform(-2, 2)
        values = np.sort([base + rng.choice((0.0, 1e-12, 1e-9, 1e-8, 1e-6, 0.5)) for _ in range(n)])
        spectra.append((values, _tied_columns(rng, n)))
    for values, vectors in spectra:
        for columns in (vectors, None):
            got = _pair_bytes(_least_pair(values, columns))
            assert got == _pair_bytes(_ref_least_pair(values, columns))
