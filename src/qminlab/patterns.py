"""Executable checks of the paper's spectral properties.

Each check validates its own preconditions and returns a PatternReport
listing every violated assertion instead of failing fast:

* first-eigenvector structure: a graph, a candidate eigenvector and, where
  relevant, a branch at a cut vertex (``check_bipartite_branch``,
  ``check_tree_monotone``, ``check_U_pattern``);
* property experiments on the extremal families: edge-deletion interlacing
  (``interlacing_check``), moving a branch between two attachment vertices
  (``relocation_experiment``) and unit transfers between pendant profiles
  (``majorization_scan``); ``alpha`` is the unicyclic class minimum.

The tolerances are module constants, not arguments.  ``PATTERN_TOL`` (1e-8)
is the margin of every strict inequality, and scaled by max|x| the level at
or below which an entry of x counts as zero; growth along a tree branch is
strict, with no margin.  ``EIGENVECTOR_CHECK_TOL`` (1e-6) bounds the residual
of a supplied eigenvector.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceededError, DegenerateSpectrumError, InvalidParameterError
from .families import ULandmarks, build_U_std
from .graphs import Graph, _bits, _integer, _reach_mask, coalesce, is_connected, two_coloring
from .spectra import _least_pair, _solved, q_matrix, q_min_of

#: Residual allowance when validating that a supplied vector is an eigenvector.
EIGENVECTOR_CHECK_TOL = 1e-6

#: Margin for strict inequalities and the "is this entry zero" threshold.
PATTERN_TOL = 1e-8


@dataclass(frozen=True)
class BranchSpec:
    """A branch: the vertices of one component of g - root, plus root."""

    root: int
    members: frozenset[int]


@dataclass(frozen=True)
class PatternReport:
    """Outcome of a structure check; ``violations`` holds
    (check name, offending vertex or edge, observed values) triples."""

    passed: bool
    violations: tuple[tuple, ...]

    @staticmethod
    def from_violations(violations) -> "PatternReport":
        v = tuple(violations)
        return PatternReport(passed=not v, violations=v)


def split_branches(g: Graph, v: int) -> list[BranchSpec]:
    """One BranchSpec per connected component of g - v, ordered by smallest
    member index; each component is augmented with the root v."""
    v = g._check_vertex(v)
    unseen = ((1 << g.n) - 1) & ~(1 << v)
    nbr = [m & unseen for m in g.nbr]
    comps = []
    while unseen:
        reach = _reach_mask(nbr, unseen & -unseen)
        comps.append(reach)
        unseen &= ~reach
    return [
        BranchSpec(root=v, members=frozenset([v, *_bits(c)])) for c in comps
    ]


def _normalized_eigenvector(g: Graph, x, q: np.ndarray) -> np.ndarray:
    """Unit-normalize x and verify it satisfies the eigen-equation of q = Q(g)
    for its own Rayleigh quotient, which need not be the least eigenvalue."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise InvalidParameterError(f"vector shape {x.shape} != ({g.n},)")
    norm = math.sqrt(x.dot(x))  # np.linalg.norm's own formula
    if not 0 < norm < math.inf:  # zero, a NaN or infinite entry, or an overflow
        raise InvalidParameterError(f"an eigenvector needs a finite nonzero norm, got {norm}")
    x = x / norm
    qx = q @ x
    if float(np.abs(x.dot(qx) * x - qx).max()) > EIGENVECTOR_CHECK_TOL:
        raise InvalidParameterError("vector does not satisfy the eigen-equation")
    return x


def _validate_branch(g: Graph, b: BranchSpec) -> list[tuple[int, int]]:
    """Check BranchSpec invariants; return the branch's induced edges."""
    if b.root not in b.members:
        raise InvalidParameterError("branch root must belong to the branch")
    inside = sum(1 << g._check_vertex(p) for p in b.members)
    inner = b.members - {b.root}
    for p in inner:
        for w in _bits(g.nbr[p]):
            if w not in b.members:
                raise InvalidParameterError(
                    f"branch leaks: vertex {p} has neighbor {w} outside it"
                )
    if _reach_mask([m & inside for m in g.nbr], 1 << g._check_vertex(b.root)) != inside:
        raise InvalidParameterError("branch members do not induce a connected graph")
    return [(u, v) for u, v in g.edges() if u in b.members and v in b.members]


def check_bipartite_branch(g: Graph, x, b: BranchSpec) -> PatternReport:
    """Zero/nonzero dichotomy of a bipartite branch under a first eigenvector.

    Root value (numerically) zero: the whole branch must vanish.  Root value
    nonzero: every branch entry is nonzero, signs follow the branch's
    2-coloring relative to the root, and values alternate in sign across
    every branch edge.
    """
    x = _normalized_eigenvector(g, x, _solved(g)[0])
    edges = _validate_branch(g, b)
    coloring = two_coloring(Graph.from_edges(g.n, edges))
    if coloring is None:
        raise InvalidParameterError("branch is not bipartite")
    # each vertex's side relative to the root's: 0 is the root's side
    part = [side ^ coloring.part[b.root] for side in coloring.part]
    zero_tol = PATTERN_TOL * float(np.abs(x).max())
    bad = []
    if abs(x[b.root]) <= zero_tol:
        for p in sorted(b.members):
            if abs(x[p]) > zero_tol:
                bad.append(("zero-branch", p, (float(x[p]),)))
    else:
        root_sign = 1.0 if x[b.root] > 0 else -1.0
        for p in sorted(b.members):
            if abs(x[p]) <= zero_tol:
                bad.append(("nonzero-branch", p, (float(x[p]),)))
            elif (x[p] * root_sign > 0) != (part[p] == 0):
                bad.append(("part-sign", p, (float(x[p]), part[p])))
        for u, v in edges:
            if not x[u] * x[v] < -zero_tol * zero_tol:
                bad.append(("edge-product", (u, v), (float(x[u]), float(x[v]))))
    return PatternReport.from_violations(bad)


def check_tree_monotone(g: Graph, x, b: BranchSpec) -> PatternReport:
    """Strict growth of |x| along every root-to-leaf path of a tree branch."""
    x = _normalized_eigenvector(g, x, _solved(g)[0])
    branch_edges = _validate_branch(g, b)
    if len(branch_edges) != len(b.members) - 1:
        raise InvalidParameterError("branch is not a tree")
    if two_coloring(g) is not None or not is_connected(g):
        raise InvalidParameterError("graph must be connected and non-bipartite")
    zero_tol = PATTERN_TOL * float(np.abs(x).max())
    if all(abs(x[p]) <= zero_tol for p in b.members):
        raise InvalidParameterError("branch is zero with respect to x")
    bad = []
    seen = {b.root}
    queue = deque([b.root])
    while queue:
        p = queue.popleft()
        for w in _bits(g.nbr[p]):
            if w in b.members and w not in seen:
                seen.add(w)
                queue.append(w)
                if not abs(x[w]) > abs(x[p]):
                    bad.append(("monotone", (p, w), (float(x[p]), float(x[w]))))
    return PatternReport.from_violations(bad)


def _validate_std_family(g: Graph, lm: ULandmarks) -> None:
    """Reject graphs that are not a standard cycle-stem-broom instance: the
    cycle, the stem after its first vertex and the ends of one or more pendant
    edges name each vertex once, and the graph's edges are the n they name."""
    try:
        cyc = tuple(map(operator.index, lm.cycle))
        stem = tuple(map(operator.index, lm.stem))
        anchor = operator.index(lm.anchor)
        paths = tuple(lm.pendant_paths)
        ends = tuple([operator.index(p[1]) for p in paths if len(p) == 2 and p[0] == anchor])
    except (AttributeError, TypeError):
        raise InvalidParameterError("landmarks must be sequences of vertex indices") from None
    if len(cyc) < 3 or len(cyc) % 2 == 0:
        raise InvalidParameterError("cycle landmark must have odd length >= 3")
    if not stem or stem[0] != cyc[-1] or anchor != stem[-1]:
        raise InvalidParameterError("stem landmark must run from the cycle to the anchor")
    if not ends or len(ends) != len(paths):
        raise InvalidParameterError("need one or more pendant paths, each one edge at the anchor")
    if sorted(cyc + stem[1:] + ends) != list(range(g.n)):
        raise InvalidParameterError("landmarks must name each vertex exactly once")
    nbr = g.nbr
    walk = cyc[-1:] + cyc + stem[1:]  # around the cycle, then down the stem
    for a, b in zip(walk, walk[1:]):
        if not nbr[a] >> b & 1:
            raise InvalidParameterError(f"missing landmark edge ({a},{b})")
    for b in ends:
        if not nbr[anchor] >> b & 1:
            raise InvalidParameterError(f"missing landmark edge ({anchor},{b})")
    if g.edge_count != g.n:
        raise InvalidParameterError("graph has edges the landmarks do not name")


def check_U_pattern(g: Graph, lm: ULandmarks, x) -> PatternReport:
    """All structural assertions for a first eigenvector of the standard
    cycle-stem-broom family.

    Writing v_1..v_g for the cycle landmarks and h = (g-1)/2: (1) mirror
    symmetry x(v_i) = x(v_{g-i}); (2) the single positive-product edge is
    v_h v_{h+1} and every other edge of the graph alternates in sign;
    (3) strict magnitude decay |x(v_g)| > |x(v_1)| > ... > |x(v_h)| > 0;
    plus no entry of x within ``PATTERN_TOL`` of zero.

    Raises DegenerateSpectrumError when the least eigenvalue is not simple.
    """
    _validate_std_family(g, lm)
    q, values, _ = _solved(g)
    x = _normalized_eigenvector(g, x, q).tolist()
    _, _, mult = _least_pair(values, None)
    if mult != 1:
        raise DegenerateSpectrumError(
            f"least eigenvalue has multiplicity {mult}; pattern needs 1"
        )
    cyc = lm.cycle
    gg = len(cyc)
    half = (gg - 1) // 2
    bad = []
    # (1) mirror symmetry across the cycle
    for i in range(1, half + 1):
        a, b = cyc[i - 1], cyc[gg - i - 1]
        if abs(x[a] - x[b]) > PATTERN_TOL:
            bad.append(("mirror", (a, b), (float(x[a]), float(x[b]))))
    # (2) sign pattern: one positive-product edge, all others alternate
    special = tuple(sorted((cyc[half - 1], cyc[half])))
    if not x[special[0]] * x[special[1]] > PATTERN_TOL:
        bad.append(
            ("special-edge", special, (float(x[special[0]]), float(x[special[1]])))
        )
    for u, v in g.edges():
        if (u, v) == special:
            continue
        if not x[u] * x[v] < -PATTERN_TOL:
            bad.append(("alternation", (u, v), (float(x[u]), float(x[v]))))
    # (3) strict magnitude decay from v_g around to the cycle's midpoint
    chain = [cyc[-1]] + [cyc[i] for i in range(half)]
    for a, b in zip(chain, chain[1:]):
        if not abs(x[a]) > abs(x[b]) + PATTERN_TOL:
            bad.append(("cycle-decay", (a, b), (float(x[a]), float(x[b]))))
    if not abs(x[chain[-1]]) > PATTERN_TOL:
        bad.append(("cycle-decay", chain[-1], (float(x[chain[-1]]),)))
    # no zero entries anywhere
    for p in range(g.n):
        if abs(x[p]) <= PATTERN_TOL:
            bad.append(("nonzero-entries", p, (float(x[p]),)))
    return PatternReport.from_violations(bad)


def alpha(n: int, k: int, g: int) -> float:
    """Least eigenvalue of the standard cycle-stem-broom graph.  The paper
    claims it is the class minimum over unicyclic graphs with these
    parameters; criterion 4 of ``tests/test_acceptance.py`` checks that by
    exhaustive search through n = 16; this function only assumes it."""
    graph, _ = build_U_std(n, k, g)
    return q_min_of(graph)[0]


def interlacing_check(g: Graph, e: tuple[int, int]) -> PatternReport:
    """Edge-deletion interlacing: with spectra ascending, every eigenvalue of
    G-e is at most its counterpart in G, which is at most the next one up in
    G-e."""
    try:
        u, v = e
    except (TypeError, ValueError):
        raise InvalidParameterError(f"an edge is a pair of vertices, got {e!r}") from None
    if not g.has_edge(u, v):
        raise InvalidParameterError(f"({u},{v}) is not an edge")
    pair = np.repeat(q_matrix(g)[None], 2, axis=0)
    deleted = pair[0]  # Q(G - e): entries uv and vu cleared, d(u) and d(v) one lower
    deleted[u, v] = deleted[v, u] = 0.0
    deleted[u, u] -= 1.0
    deleted[v, v] -= 1.0
    a, b = np.linalg.eigvalsh(pair).tolist()
    bad = []
    for i in range(g.n):
        if not a[i] <= b[i] + PATTERN_TOL:
            bad.append(("deleted-below", i, (float(a[i]), float(b[i]))))
        if i + 1 < g.n and not b[i] <= a[i + 1] + PATTERN_TOL:
            bad.append(("interlace", i, (float(b[i]), float(a[i + 1]))))
    return PatternReport.from_violations(bad)


@dataclass(frozen=True)
class RelocationResult:
    """Before/after least eigenvalues of moving a rooted branch between two
    attachment vertices, with the hypothesis bookkeeping and assertions."""

    q_before: float
    q_after: float
    x_v1: float
    x_v2: float
    weak_hypothesis: bool
    strict_hypothesis: bool
    equality_diagnostic: float
    report: PatternReport


def relocation_experiment(g1: Graph, v1: int, v2: int, g2: Graph, u: int) -> RelocationResult:
    """Attach ``g2`` (at its vertex ``u``) to ``g1`` at ``v2``, then compare
    against attaching at ``v1`` instead.

    With x a first eigenvector of the before-graph: if |x(v1)| >= |x(v2)| and
    g2 is bipartite, the move cannot raise the least eigenvalue (asserted to
    ``PATTERN_TOL``); if additionally g2 is a nontrivial path rooted at an
    end and g1 is connected non-bipartite, a strictly larger |x(v1)| (or
    equal and nonzero) forces a strict drop."""
    v1, v2, u = g1._check_vertex(v1), g1._check_vertex(v2), g2._check_vertex(u)
    if v1 == v2:
        raise InvalidParameterError("attachment vertices must differ")
    if not is_connected(g1) or not is_connected(g2):
        raise InvalidParameterError("both graphs must be connected")
    g2_bipartite = two_coloring(g2) is not None
    degs2 = sorted(g2.degrees())
    g2_path = (
        g2.n >= 2
        and g2.edge_count == g2.n - 1
        and degs2[-1] <= 2
        and g2.degree(u) == 1
    )
    if not g2_bipartite:
        raise InvalidParameterError(
            "the relocated branch must be bipartite (paths included)"
        )
    g1_nonbip = two_coloring(g1) is None
    before = coalesce(g1, v2, g2, u)
    after = coalesce(g1, v1, g2, u)
    q_before, x, _ = q_min_of(before)
    q_after = q_min_of(after)[0]
    a1, a2 = abs(float(x[v1])), abs(float(x[v2]))
    hyp_tol = PATTERN_TOL * float(np.abs(x).max())
    weak = a1 >= a2 - hyp_tol
    strict = g2_path and g1_nonbip and (a1 > a2 + hyp_tol or (a1 >= a2 - hyp_tol and a1 > hyp_tol))
    # diagnostic for the equality condition: d_{g2}(u) x(u) + sum of x over
    # u's neighbors inside the relocated branch (zero is necessary for ties)
    # (coalesce puts g2's vertex w != u at g1.n + w - (w > u))
    diag = g2.degree(u) * float(x[v2]) + sum(
        float(x[g1.n + w - (w > u)]) for w in g2.neighbors(u)
    )
    bad = []
    if weak and not q_after <= q_before + PATTERN_TOL:
        bad.append(("relocation-weak", (v1, v2), (q_before, q_after)))
    if strict and not q_before - q_after > PATTERN_TOL:
        bad.append(("relocation-strict", (v1, v2), (q_before, q_after)))
    return RelocationResult(
        q_before=q_before,
        q_after=q_after,
        x_v1=float(x[v1]),
        x_v2=float(x[v2]),
        weak_hypothesis=weak,
        strict_hypothesis=strict,
        equality_diagnostic=diag,
        report=PatternReport.from_violations(bad),
    )


@dataclass(frozen=True)
class MajorizationScan:
    """Unit-transfer majorization sweep over pendant profiles of one shape."""

    profiles_checked: int
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...], float, float, float], ...]
    report: PatternReport


def _profiles(length: int, total: int, cap: int | None = None):
    """All non-increasing nonnegative integer tuples of the given length/sum,
    no entry above ``cap`` (the sum if None)."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total if cap is None else min(total, cap), -1, -1):
        for rest in _profiles(length - 1, total - first, first):
            yield (first,) + rest


def _clique_family_q(profiles) -> np.ndarray:
    """Q(G) of ``build_K``'s graph G for each profile of one shape, as a
    (P, n, n) stack: the clique block, pendant vertex length + t joined to
    its owner (the number of prefix sums <= t), the degrees on the diagonal."""
    prof = np.array(profiles, dtype=np.float64)
    count, length = prof.shape
    n = length + int(prof[0].sum())
    slots = np.arange(n - length, dtype=np.float64)[:, None]
    owners = (np.cumsum(prof, axis=1)[:, None, :] <= slots).sum(axis=2)
    rows, pendants, diag = np.arange(count)[:, None], np.arange(length, n), np.arange(n)
    q = np.zeros((count, n, n))
    q[:, :length, :length] = 1.0 - np.eye(length)
    q[rows, pendants, owners] = q[rows, owners, pendants] = 1.0
    q[:, diag, diag] = q.sum(axis=2)
    return q


def majorization_scan(length: int, total: int) -> MajorizationScan:
    """For every profile pair differing by one unit transfer across a gap of
    at least 2, assert that the transfer cannot lower the clique family's
    least eigenvalue; also check, per profile with a simple least eigenvalue,
    that more pendants never means a strictly smaller eigenvector magnitude
    on the clique.  The Q matrices are written straight from the array of
    profiles, with no graph built."""
    length, total = _integer(length, "length"), _integer(total, "sum")
    if length < 3 or total < 1:
        raise InvalidParameterError(
            f"need length >= 3 and sum >= 1, got ({length}, {total})"
        )
    if length + total > 11:
        raise CapacityExceededError(
            f"scan needs graphs of order {length + total} > 11"
        )
    # a unit transfer keeps the shape, so every value compared is one of
    # these profiles': one stacked eigensolve serves the whole scan
    profiles = list(_profiles(length, total))
    least = dict(zip(profiles, map(_least_pair, *np.linalg.eigh(_clique_family_q(profiles)))))
    bad, rows = [], []
    for nu in profiles:
        qn, vec, mult = least[nu]
        vec = vec.tolist()
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
                if not qn <= qm + PATTERN_TOL:
                    bad.append(("majorization", (nu, mu), (qn, qm)))
        if mult == 1:
            for i in range(length):
                for j in range(length):
                    if nu[i] > nu[j] and not (
                        abs(vec[i]) >= abs(vec[j]) - PATTERN_TOL
                    ):
                        bad.append(
                            ("clique-magnitude", (nu, i, j), (abs(vec[i]), abs(vec[j])))
                        )
    return MajorizationScan(
        profiles_checked=len(profiles),
        pairs=tuple(rows),
        report=PatternReport.from_violations(bad),
    )
