"""Executable checks of first-eigenvector structure.

Each check takes a graph, a candidate eigenvector, and (where relevant) a
branch at a cut vertex, validates its own preconditions, and returns a
PatternReport listing every violated assertion instead of failing fast.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, InvalidParameterError
from .families import ULandmarks
from .graphs import Graph, _bits, is_connected, two_coloring
from .spectra import _least_pair, q_matrix, rayleigh, residual

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
    g._check_vertex(v)
    unseen = ((1 << g.n) - 1) & ~(1 << v)
    comps = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        reach = 1 << start
        frontier = reach
        while frontier:
            acc = 0
            for w in _bits(frontier):
                acc |= g.nbr[w] & unseen
            frontier = acc & ~reach
            reach |= frontier
        comps.append(reach)
        unseen &= ~reach
    return [
        BranchSpec(root=v, members=frozenset([v, *_bits(c)])) for c in comps
    ]


def _normalized_eigenvector(g: Graph, x) -> np.ndarray:
    """Unit-normalize x and verify it satisfies the eigen-equation for its
    own Rayleigh quotient; the associated eigenvalue need not be the least."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise InvalidParameterError(f"vector shape {x.shape} != ({g.n},)")
    norm = float(np.linalg.norm(x))
    if norm == 0:
        raise InvalidParameterError("zero vector is not an eigenvector")
    x = x / norm
    rho = rayleigh(g, x)
    if residual(g, rho, x) > EIGENVECTOR_CHECK_TOL:
        raise InvalidParameterError("vector does not satisfy the eigen-equation")
    return x


def _validate_branch(g: Graph, b: BranchSpec) -> list[tuple[int, int]]:
    """Check BranchSpec invariants; return the branch's induced edges."""
    if b.root not in b.members:
        raise InvalidParameterError("branch root must belong to the branch")
    for p in b.members:
        g._check_vertex(p)
    inner = b.members - {b.root}
    for p in inner:
        for w in _bits(g.nbr[p]):
            if w not in b.members:
                raise InvalidParameterError(
                    f"branch leaks: vertex {p} has neighbor {w} outside it"
                )
    edges = [(u, v) for u, v in g.edges() if u in b.members and v in b.members]
    # connectivity of the induced subgraph
    members = sorted(b.members)
    pos = {p: i for i, p in enumerate(members)}
    local = [0] * len(members)
    for u, v in edges:
        local[pos[u]] |= 1 << pos[v]
        local[pos[v]] |= 1 << pos[u]
    reach = 1
    frontier = 1
    while frontier:
        acc = 0
        for i in _bits(frontier):
            acc |= local[i]
        frontier = acc & ~reach
        reach |= frontier
    if reach != (1 << len(members)) - 1:
        raise InvalidParameterError("branch members do not induce a connected graph")
    return edges


def _branch_two_coloring(g: Graph, b: BranchSpec) -> dict[int, int]:
    """2-color the induced branch, root in part 0; error if not bipartite."""
    part = {b.root: 0}
    queue = deque([b.root])
    while queue:
        p = queue.popleft()
        for w in _bits(g.nbr[p]):
            if w not in b.members:
                continue
            if w not in part:
                part[w] = 1 - part[p]
                queue.append(w)
            elif part[w] == part[p]:
                raise InvalidParameterError("branch is not bipartite")
    return part


def check_bipartite_branch(
    g: Graph, x, b: BranchSpec, zero_tol: float | None = None
) -> PatternReport:
    """Zero/nonzero dichotomy of a bipartite branch under a first eigenvector.

    Root value (numerically) zero: the whole branch must vanish.  Root value
    nonzero: every branch entry is nonzero, signs follow the branch's
    2-coloring relative to the root, and values alternate in sign across
    every branch edge.
    """
    x = _normalized_eigenvector(g, x)
    edges = _validate_branch(g, b)
    part = _branch_two_coloring(g, b)
    if zero_tol is None:
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


def check_tree_monotone(
    g: Graph, x, b: BranchSpec, margin: float = 0.0
) -> PatternReport:
    """Strict growth of |x| along every root-to-leaf path of a tree branch."""
    x = _normalized_eigenvector(g, x)
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
                if not abs(x[w]) > abs(x[p]) + margin:
                    bad.append(("monotone", (p, w), (float(x[p]), float(x[w]))))
    return PatternReport.from_violations(bad)


def _validate_std_family(g: Graph, lm: ULandmarks) -> None:
    """Reject graphs that are not a standard cycle-stem-broom instance."""
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
    # unicyclic: the landmark count doubles as the edge count
    named = len(cyc) + (len(lm.stem) - 1) + len(lm.pendant_paths)
    if named != g.n or named != g.edge_count:
        raise InvalidParameterError("landmarks do not cover the graph exactly")


def check_U_pattern(
    g: Graph,
    lm: ULandmarks,
    x,
    tol: float = PATTERN_TOL,
) -> PatternReport:
    """All structural assertions for a first eigenvector of the standard
    cycle-stem-broom family.

    Writing v_1..v_g for the cycle landmarks and h = (g-1)/2: (1) mirror
    symmetry x(v_i) = x(v_{g-i}); (2) the single positive-product edge is
    v_h v_{h+1} and every other edge of the graph alternates in sign;
    (3) strict magnitude decay |x(v_g)| > |x(v_1)| > ... > |x(v_h)| > 0;
    plus no entry of x within ``tol`` of zero.

    Raises DegenerateSpectrumError when the least eigenvalue is not simple.
    """
    _validate_std_family(g, lm)
    x = _normalized_eigenvector(g, x)
    _, _, mult = _least_pair(np.linalg.eigvalsh(q_matrix(g)), None)
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
        if abs(x[a] - x[b]) > tol:
            bad.append(("mirror", (a, b), (float(x[a]), float(x[b]))))
    # (2) sign pattern: one positive-product edge, all others alternate
    special = tuple(sorted((cyc[half - 1], cyc[half])))
    if not x[special[0]] * x[special[1]] > tol:
        bad.append(
            ("special-edge", special, (float(x[special[0]]), float(x[special[1]])))
        )
    for u, v in g.edges():
        if (u, v) == special:
            continue
        if not x[u] * x[v] < -tol:
            bad.append(("alternation", (u, v), (float(x[u]), float(x[v]))))
    # (3) strict magnitude decay from v_g around to the cycle's midpoint
    chain = [cyc[-1]] + [cyc[i] for i in range(half)]
    for a, b in zip(chain, chain[1:]):
        if not abs(x[a]) > abs(x[b]) + tol:
            bad.append(("cycle-decay", (a, b), (float(x[a]), float(x[b]))))
    if not abs(x[chain[-1]]) > tol:
        bad.append(("cycle-decay", chain[-1], (float(x[chain[-1]]),)))
    # no zero entries anywhere
    for p in range(g.n):
        if abs(x[p]) <= tol:
            bad.append(("nonzero-entries", p, (float(x[p]),)))
    return PatternReport.from_violations(bad)
