"""Exhaustive searches over labeled graph classes at small order.

Classes are enumerated as edge subsets of the complete graph.  Edge b of
K_n (column order: (0,1), (0,2), (1,2), (0,3), ...) occupies bit M-1-b of
the subset mask, so the "first" adjacency decisions are the mask's top bits
and fixing the first ceil(log2 W) of them partitions the space into W
deterministic shards of contiguous mask ranges.  Visit order is increasing
mask within a shard; merged shard results equal the unsharded ones bit for
bit because ``qmin_stack`` gives each matrix the same least eigenvalue
whatever batch it is solved in (a test re-proves this on a whole class).

Labeled enumeration needs no isomorphism rejection: extremal values over
labeled graphs and over isomorphism classes coincide, and only the small
witness set is deduplicated up to isomorphism.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapacityExceededError, InvalidParameterError
from .families import PendantProfile, build_K, build_U_std
from .graphs import Graph, coalesce, is_connected, is_isomorphic, two_coloring
from .patterns import PatternReport
from .spectra import eig_sym, q_matrix, q_min_of, qmin_stack

GENERAL_ORDER_CAP = 8
UNICYCLIC_ORDER_CAP = 8  # may be raised to 9 explicitly; beyond is refused
UNICYCLIC_ORDER_MAX = 9
DEFAULT_TIE_TOL = 1e-8
_CHUNK = 1 << 16
_EIG_BATCH = 4096


@dataclass(frozen=True)
class ClassQuery:
    """A graph-class predicate: order, exact pendant count, connectivity,
    non-bipartiteness, and optionally "unicyclic with this odd girth"."""

    n: int
    k: int
    require_connected: bool = True
    require_nonbipartite: bool = True
    unicyclic_girth: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"order must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise InvalidParameterError(f"pendant count {self.k} out of range")
        if self.require_nonbipartite:
            if self.n < 3 or self.k > self.n - 3:
                raise InvalidParameterError(
                    f"an odd cycle needs 3 non-pendant vertices: k={self.k}, n={self.n}"
                )
        if self.unicyclic_girth is not None:
            g = self.unicyclic_girth
            if g < 3 or g % 2 == 0 or g > self.n:
                raise InvalidParameterError(f"unicyclic girth must be odd, 3..n, got {g}")
            if not self.require_connected:
                raise InvalidParameterError("unicyclic graphs are connected by definition")


def _edge_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def _shard_blocks(total_bits: int, shard_index: int, shard_count: int):
    """Contiguous mask ranges forming one shard (top-bit subcubes mod W)."""
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise InvalidParameterError(
            f"bad shard spec {shard_index}/{shard_count}"
        )
    bits = min((shard_count - 1).bit_length(), total_bits)
    width = 1 << (total_bits - bits)
    for sub in range(1 << bits):
        if sub % shard_count == shard_index:
            yield sub * width, (sub + 1) * width


def _nbrs_from_mask(n: int, mask: int, edges) -> list[int]:
    m = mask
    nbr = [0] * n
    total = len(edges)
    while m:
        low = m & -m
        pos = low.bit_length() - 1
        i, j = edges[total - 1 - pos]
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
        m ^= low
    return nbr


def _connected(nbr: list[int], n: int) -> bool:
    reach = 1
    frontier = 1
    while frontier:
        acc = 0
        m = frontier
        while m:
            low = m & -m
            acc |= nbr[low.bit_length() - 1]
            m ^= low
        frontier = acc & ~reach
        reach |= frontier
    return reach == (1 << n) - 1


def _bipartite(nbr: list[int], n: int) -> bool:
    part = [-1] * n
    for root in range(n):
        if part[root] >= 0:
            continue
        part[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            m = nbr[x]
            while m:
                low = m & -m
                y = low.bit_length() - 1
                m ^= low
                if part[y] < 0:
                    part[y] = 1 - part[x]
                    queue.append(y)
                elif part[y] == part[x]:
                    return False
    return True


def _unicyclic_cycle_len(nbr: list[int], n: int) -> int:
    """Length of the unique cycle of a connected graph with n edges,
    found by iteratively peeling degree-1 vertices."""
    local = list(nbr)
    deg = [m.bit_count() for m in local]
    leaves = deque(v for v in range(n) if deg[v] == 1)
    alive = n
    while leaves:
        v = leaves.popleft()
        if deg[v] != 1:
            continue
        alive -= 1
        m = local[v]
        local[v] = 0
        deg[v] = 0
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            local[w] &= ~(1 << v)
            deg[w] -= 1
            if deg[w] == 1:
                leaves.append(w)
    return alive


# -- candidate streams -------------------------------------------------------


def _general_stream(q: ClassQuery, shard_index: int, shard_count: int):
    """Yield (masks, bits, degrees) numpy blocks of class members, plus the
    per-edge incidence used to build them; masks increase within the shard."""
    n = q.n
    edges = _edge_list(n)
    m_edges = len(edges)
    shifts = np.arange(m_edges - 1, -1, -1, dtype=np.int64)  # bit of edge b
    inc = np.zeros((m_edges, n), dtype=np.uint8)
    for b, (i, j) in enumerate(edges):
        inc[b, i] = inc[b, j] = 1
    min_edges = 0
    if q.require_connected:
        min_edges = max(min_edges, n - 1)
    if q.require_nonbipartite:
        min_edges = max(min_edges, n if q.require_connected else 3)
    for lo, hi in _shard_blocks(m_edges, shard_index, shard_count):
        for start in range(lo, hi, _CHUNK):
            stop = min(start + _CHUNK, hi)
            masks = np.arange(start, stop, dtype=np.int64)
            bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
            ecount = bits.sum(axis=1)
            keep = ecount >= min_edges
            degs = bits @ inc
            keep &= (degs == 1).sum(axis=1) == q.k
            if q.require_connected and n > 1:
                keep &= degs.min(axis=1) >= 1
            idx = np.nonzero(keep)[0]
            if idx.size == 0:
                continue
            final = []
            for at, row in enumerate(bits[idx].tolist()):
                nbr = [0] * n
                for b, present in enumerate(row):
                    if present:
                        i, j = edges[b]
                        nbr[i] |= 1 << j
                        nbr[j] |= 1 << i
                if q.require_connected and not _connected(nbr, n):
                    continue
                if q.require_nonbipartite and _bipartite(nbr, n):
                    continue
                final.append(at)
            if final:
                sel = idx[np.asarray(final)]
                yield masks[sel], bits[sel], degs[sel]


@functools.lru_cache(maxsize=4)
def _combo_array(m_edges: int, n_pick: int) -> np.ndarray:
    """All n_pick-subsets of 0..m_edges-1, lexicographic, as a (C, n_pick)
    array.  Cached because every unicyclic query at one order shares it."""
    out = np.empty((math.comb(m_edges, n_pick), n_pick), dtype=np.int8)
    it = itertools.combinations(range(m_edges), n_pick)
    at = 0
    while True:
        block = list(itertools.islice(it, 200_000))
        if not block:
            break
        out[at : at + len(block)] = block
        at += len(block)
    return out


def _unicyclic_stream(q: ClassQuery, shard_index: int, shard_count: int):
    """Same contract as _general_stream for unicyclic-with-girth queries;
    enumerates the n-edge subsets of K_n in lexicographic combination order."""
    n = q.n
    edges = _edge_list(n)
    m_edges = len(edges)
    combos = _combo_array(m_edges, n)
    inc = np.zeros((m_edges, n), dtype=np.uint8)
    for b, (i, j) in enumerate(edges):
        inc[b, i] = inc[b, j] = 1
    shard_bits = (shard_count - 1).bit_length()
    bitpos = [1 << (m_edges - 1 - b) for b in range(m_edges)]
    for start in range(0, combos.shape[0], _CHUNK):
        block = combos[start : start + _CHUNK]
        degs = inc[block].sum(axis=1, dtype=np.uint8)
        keep = (degs == 1).sum(axis=1) == q.k
        keep &= degs.min(axis=1) >= 1
        if shard_bits:
            sub = np.zeros(block.shape[0], dtype=np.int64)
            for b in range(shard_bits):
                sub |= ((block == b).any(axis=1)).astype(np.int64) << (
                    shard_bits - 1 - b
                )
            keep &= (sub % shard_count) == shard_index
        idx = np.nonzero(keep)[0]
        if idx.size == 0:
            continue
        final = []
        masks = []
        for at, combo in enumerate(block[idx].tolist()):
            nbr = [0] * n
            mask = 0
            for b in combo:
                i, j = edges[b]
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
                mask |= bitpos[b]
            if not _connected(nbr, n):
                continue
            if _unicyclic_cycle_len(nbr, n) != q.unicyclic_girth:
                continue
            final.append(at)
            masks.append(mask)
        if final:
            sel = idx[np.asarray(final)]
            bits = np.zeros((sel.size, m_edges), dtype=np.uint8)
            rows = np.repeat(np.arange(sel.size), n)
            bits[rows, block[sel].reshape(-1)] = 1
            yield np.asarray(masks, dtype=np.int64), bits, degs[sel]


def _class_stream(q: ClassQuery, shard_index, shard_count, general_cap, unicyclic_cap):
    if q.unicyclic_girth is not None:
        cap = min(unicyclic_cap, UNICYCLIC_ORDER_MAX)
        if q.n > cap:
            raise CapacityExceededError(
                f"unicyclic enumeration capped at order {cap}; order {q.n} has "
                f"about {math.comb(math.comb(q.n, 2), q.n):.2e} edge subsets"
            )
        return _unicyclic_stream(q, shard_index, shard_count)
    if q.n > general_cap:
        raise CapacityExceededError(
            f"general enumeration capped at order {general_cap}; order {q.n} has "
            f"2^{math.comb(q.n, 2)} labeled graphs"
        )
    return _general_stream(q, shard_index, shard_count)


def enumerate_class(
    q: ClassQuery,
    visitor: Callable[[Graph], None],
    *,
    shard_index: int = 0,
    shard_count: int = 1,
    general_cap: int = GENERAL_ORDER_CAP,
    unicyclic_cap: int = UNICYCLIC_ORDER_CAP,
) -> int:
    """Visit every labeled graph of the class exactly once, deterministically.

    Cheap vectorized screens (edge-count bounds, degree profile) run before
    the exact connectivity/bipartiteness/girth checks.  Returns the count.
    """
    count = 0
    edges = _edge_list(q.n)
    for masks, _, _ in _class_stream(q, shard_index, shard_count, general_cap, unicyclic_cap):
        for mask in masks.tolist():
            visitor(Graph(q.n, tuple(_nbrs_from_mask(q.n, int(mask), edges))))
            count += 1
    return count


# -- extremal search ---------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one extremal search over a class."""

    objective: str
    extremal_value: float
    witnesses: tuple[Graph, ...]
    graphs_examined: int


@dataclass(frozen=True)
class _ShardScan:
    count: int
    min_value: float
    min_witnesses: tuple[tuple[int, float], ...]
    max_value: float
    max_witnesses: tuple[tuple[int, float], ...]


def _tie_window(value: float, tie_tol: float) -> float:
    return tie_tol * (1.0 + abs(value))


def _scan_shard(
    q: ClassQuery,
    tie_tol: float,
    shard_index: int,
    shard_count: int,
    general_cap: int,
    unicyclic_cap: int,
) -> _ShardScan:
    n = q.n
    count = 0
    best_min = math.inf
    best_max = -math.inf
    min_wit: list[tuple[int, float]] = []
    max_wit: list[tuple[int, float]] = []
    pend_masks: list[int] = []
    pend_rows: list[np.ndarray] = []
    pend_degs: list[np.ndarray] = []
    pend_size = 0
    ii = np.array([e[0] for e in _edge_list(n)])
    jj = np.array([e[1] for e in _edge_list(n)])
    ax = np.arange(n)

    def flush():
        nonlocal pend_size, best_min, best_max, min_wit, max_wit
        if not pend_size:
            return
        bits = np.concatenate(pend_rows, axis=0).astype(np.float64)
        degs = np.concatenate(pend_degs, axis=0).astype(np.float64)
        qs = np.zeros((bits.shape[0], n, n))
        qs[:, ii, jj] = bits
        qs[:, jj, ii] = bits
        qs[:, ax, ax] = degs
        values = qmin_stack(qs)
        for mask, val in zip(pend_masks, values.tolist()):
            if val < best_min:
                best_min = val
                win = _tie_window(best_min, tie_tol)
                min_wit = [(m, v) for m, v in min_wit if v <= best_min + win]
            if val <= best_min + _tie_window(best_min, tie_tol):
                min_wit.append((mask, val))
            if val > best_max:
                best_max = val
                win = _tie_window(best_max, tie_tol)
                max_wit = [(m, v) for m, v in max_wit if v >= best_max - win]
            if val >= best_max - _tie_window(best_max, tie_tol):
                max_wit.append((mask, val))
        pend_masks.clear()
        pend_rows.clear()
        pend_degs.clear()
        pend_size = 0

    for masks, bits, degs in _class_stream(
        q, shard_index, shard_count, general_cap, unicyclic_cap
    ):
        count += masks.shape[0]
        pend_masks.extend(int(m) for m in masks.tolist())
        pend_rows.append(bits)
        pend_degs.append(degs)
        pend_size += masks.shape[0]
        if pend_size >= _EIG_BATCH:
            flush()
    flush()
    return _ShardScan(
        count=count,
        min_value=best_min,
        min_witnesses=tuple(min_wit),
        max_value=best_max,
        max_witnesses=tuple(max_wit),
    )


@dataclass(frozen=True)
class _ClassScan:
    count: int
    minimum: SearchResult
    maximum: SearchResult


_scan_cache: dict = {}


def _dedup_witnesses(n: int, pairs, value: float, tie_tol: float, objective: str):
    """Reduce within-tolerance witnesses to one representative per
    isomorphism class, ordered by first appearance (lowest mask)."""
    edges = _edge_list(n)
    window = _tie_window(value, tie_tol)
    if objective == "min":
        kept = [(m, v) for m, v in pairs if v <= value + window]
    else:
        kept = [(m, v) for m, v in pairs if v >= value - window]
    kept.sort()
    reps: list[Graph] = []
    for mask, _ in kept:
        graph = Graph(n, tuple(_nbrs_from_mask(n, mask, edges)))
        if not any(is_isomorphic(graph, rep) for rep in reps):
            reps.append(graph)
    return tuple(reps)


def _run_scan(
    q: ClassQuery,
    tie_tol: float,
    shards: int,
    general_cap: int,
    unicyclic_cap: int,
) -> _ClassScan:
    key = (q, tie_tol, shards, general_cap, unicyclic_cap)
    hit = _scan_cache.get(key)
    if hit is not None:
        return hit
    partials = [
        _scan_shard(q, tie_tol, s, shards, general_cap, unicyclic_cap)
        for s in range(shards)
    ]
    count = sum(p.count for p in partials)
    if count == 0:
        empty_min = SearchResult("min", math.nan, (), 0)
        empty_max = SearchResult("max", math.nan, (), 0)
        scan = _ClassScan(0, empty_min, empty_max)
    else:
        best_min = min(p.min_value for p in partials)
        best_max = max(p.max_value for p in partials)
        min_pairs = [pair for p in partials for pair in p.min_witnesses]
        max_pairs = [pair for p in partials for pair in p.max_witnesses]
        scan = _ClassScan(
            count,
            SearchResult(
                "min",
                best_min,
                _dedup_witnesses(q.n, min_pairs, best_min, tie_tol, "min"),
                count,
            ),
            SearchResult(
                "max",
                best_max,
                _dedup_witnesses(q.n, max_pairs, best_max, tie_tol, "max"),
                count,
            ),
        )
    _scan_cache[key] = scan
    return scan


def find_extremal(
    q: ClassQuery,
    objective: str,
    tie_tol: float = DEFAULT_TIE_TOL,
    *,
    shards: int = 1,
    general_cap: int = GENERAL_ORDER_CAP,
    unicyclic_cap: int = UNICYCLIC_ORDER_CAP,
) -> SearchResult:
    """Stream the class, track the extremal least eigenvalue, and return all
    witnesses within the tie tolerance, deduplicated up to isomorphism.

    ``tie_tol`` is relative: the kept window is tie_tol * (1 + |optimum|).
    Results are cached per query, so asking for the other objective later
    reuses the same sweep.
    """
    if objective not in ("min", "max"):
        raise InvalidParameterError(f"objective must be 'min' or 'max', got {objective!r}")
    if shards < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    scan = _run_scan(q, tie_tol, shards, general_cap, unicyclic_cap)
    return scan.minimum if objective == "min" else scan.maximum


def alpha(n: int, k: int, g: int) -> float:
    """Least eigenvalue of the standard cycle-stem-broom graph, which is the
    class minimum over unicyclic graphs with these parameters."""
    graph, _ = build_U_std(n, k, g)
    return q_min_of(graph)[0]


def interlacing_check(g: Graph, e: tuple[int, int], tol: float = 1e-8) -> PatternReport:
    """Edge-deletion interlacing: with spectra ascending, every eigenvalue of
    G-e is at most its counterpart in G, which is at most the next one up in
    G-e."""
    u, v = e
    if not g.has_edge(u, v):
        raise InvalidParameterError(f"({u},{v}) is not an edge")
    a = eig_sym(q_matrix(g.without_edge(u, v))).eigenvalues
    b = eig_sym(q_matrix(g)).eigenvalues
    bad = []
    for i in range(g.n):
        if not a[i] <= b[i] + tol:
            bad.append(("deleted-below", i, (float(a[i]), float(b[i]))))
        if i + 1 < g.n and not b[i] <= a[i + 1] + tol:
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


def relocation_experiment(
    g1: Graph,
    v1: int,
    v2: int,
    g2: Graph,
    u: int,
    *,
    margin: float = 1e-8,
) -> RelocationResult:
    """Attach ``g2`` (at its vertex ``u``) to ``g1`` at ``v2``, then compare
    against attaching at ``v1`` instead.

    With x a first eigenvector of the before-graph: if |x(v1)| >= |x(v2)| and
    g2 is bipartite, the move cannot raise the least eigenvalue (asserted to
    ``margin``); if additionally g2 is a nontrivial path rooted at an end and
    g1 is connected non-bipartite, a strictly larger |x(v1)| (or equal and
    nonzero) forces a strict drop."""
    g1._check_vertex(v1)
    g1._check_vertex(v2)
    g2._check_vertex(u)
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
    hyp_tol = 1e-8 * float(np.abs(x).max())
    weak = a1 >= a2 - hyp_tol
    strict = g2_path and g1_nonbip and (a1 > a2 + hyp_tol or (a1 >= a2 - hyp_tol and a1 > hyp_tol))
    # diagnostic for the equality condition: d_{g2}(u) x(u) + sum of x over
    # u's neighbors inside the relocated branch (zero is necessary for ties)
    remap = {u: v2}
    nxt = g1.n
    for w in range(g2.n):
        if w != u:
            remap[w] = nxt
            nxt += 1
    diag = g2.degree(u) * float(x[v2]) + sum(
        float(x[remap[w]]) for w in g2.neighbors(u)
    )
    bad = []
    if weak and not q_after <= q_before + margin:
        bad.append(("relocation-weak", (v1, v2), (q_before, q_after)))
    if strict and not q_before - q_after > margin:
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


def _profiles(length: int, total: int):
    """All non-increasing nonnegative integer tuples of the given length/sum."""

    def rec(remaining, slots, cap):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(min(remaining, cap), -1, -1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    yield from rec(total, length, total)


def majorization_scan(
    length: int, total: int, *, margin: float = 1e-8
) -> MajorizationScan:
    """For every profile pair differing by one unit transfer across a gap of
    at least 2, assert that the transfer cannot lower the clique family's
    least eigenvalue; also check, per profile with a simple least eigenvalue,
    that more pendants never means a strictly smaller eigenvector magnitude
    on the clique."""
    if length < 3 or total < 1:
        raise InvalidParameterError(
            f"need length >= 3 and sum >= 1, got ({length}, {total})"
        )
    if length + total > 11:
        raise CapacityExceededError(
            f"scan needs graphs of order {length + total} > 11"
        )
    values: dict[tuple[int, ...], float] = {}
    vectors: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}

    def qmin_of_profile(entries: tuple[int, ...]) -> float:
        if entries not in values:
            graph, _ = build_K(PendantProfile(entries))
            val, vec, mult = q_min_of(graph)
            values[entries] = val
            vectors[entries] = (vec, mult)
        return values[entries]

    bad = []
    rows = []
    profiles = list(_profiles(length, total))
    for nu in profiles:
        qmin_of_profile(nu)
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
                qn = values[nu]
                qm = qmin_of_profile(mu)
                rows.append((nu, mu, qn, qm, qm - qn))
                if not qn <= qm + margin:
                    bad.append(("majorization", (nu, mu), (qn, qm)))
        vec, mult = vectors[nu]
        if mult == 1:
            for i in range(length):
                for j in range(length):
                    if nu[i] > nu[j] and not (
                        abs(vec[i]) >= abs(vec[j]) - margin
                    ):
                        bad.append(
                            ("clique-magnitude", (nu, i, j), (abs(vec[i]), abs(vec[j])))
                        )
    return MajorizationScan(
        profiles_checked=len(profiles),
        pairs=tuple(rows),
        report=PatternReport.from_violations(bad),
    )
