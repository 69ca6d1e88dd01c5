"""Exhaustive searches over labeled graph classes at small order.

Classes are enumerated as edge subsets of the complete graph.  Edge b of
K_n (column order: (0,1), (0,2), (1,2), (0,3), ...) occupies bit M-1-b of
the subset mask.  General classes are visited in increasing mask order;
fixing the first ceil(log2 W) adjacency decisions (the mask's top bits)
partitions them into W deterministic shards of contiguous mask ranges.
Unicyclic classes are visited as the n-edge subsets in lexicographic
combination order; shard s of W is the rank range [C*s/W, C*(s+1)/W) of the
C subsets, so no shard rescans another's.  Either way the unsharded visit
order is the shards' orders concatenated, and merged shard results equal
the unsharded ones bit for bit because ``qmin_stack`` gives each matrix the
same least eigenvalue whatever batch it is solved in (a test re-proves this
on a whole class).

Candidates travel in blocks: an (N,) int64 array of masks with an (N, n)
uint16 array of neighbour masks, row v holding the bitmask of v's
neighbours.  Every screen and exact test runs on a whole block at once.

Labeled enumeration needs no isomorphism rejection: extremal values over
labeled graphs and over isomorphism classes coincide, and only the small
witness set is deduplicated up to isomorphism, by striking each new
representative's relabellings from the rest.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapacityExceededError, InvalidParameterError
from .families import PendantProfile, build_K, build_U_std
from .graphs import Graph, coalesce, is_connected, two_coloring
from .patterns import PatternReport
from .spectra import eig_sym, q_matrix, q_min_of, qmin_stack

GENERAL_ORDER_CAP = 8
UNICYCLIC_ORDER_CAP = 8  # may be raised to 9 explicitly; beyond is refused
ORDER_MAX = 9  # neighbour masks index a 2^ORDER_MAX popcount table
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


# -- batch graph predicates --------------------------------------------------


@functools.cache
def _popcount() -> np.ndarray:
    """Bit counts of 0 .. 2^ORDER_MAX - 1, built on first use."""
    return np.array([bin(v).count("1") for v in range(1 << ORDER_MAX)], dtype=np.uint8)


@functools.cache
def _half_tables(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Neighbour masks of the edges in the low and in the high half of an
    edge-subset mask, indexed by that half's value."""
    edges = _edge_list(n)
    m_edges = len(edges)
    low_bits = m_edges // 2
    tables = []
    for lo, width in ((0, low_bits), (low_bits, m_edges - low_bits)):
        half = np.arange(1 << width, dtype=np.int64) << lo
        rows = np.zeros((half.size, n), dtype=np.uint16)
        for b, (i, j) in enumerate(edges):
            bit = m_edges - 1 - b
            if lo <= bit < lo + width:
                present = ((half >> bit) & 1).astype(np.uint16)
                rows[:, i] |= present << j
                rows[:, j] |= present << i
        tables.append(rows)
    return low_bits, tables[0], tables[1]


def _nbr_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """(N, n) neighbour masks of the graphs with these edge-subset masks."""
    low_bits, low, high = _half_tables(n)
    return low[masks & ((1 << low_bits) - 1)] | high[masks >> low_bits]


def _nbhd(nbr: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Per row, the union of the neighbourhoods of the vertices in ``sets``."""
    inside = (sets[:, None] >> np.arange(nbr.shape[1], dtype=np.uint16)) & 1
    return np.bitwise_or.reduce(nbr * inside, axis=1)


def _connected_rows(nbr: np.ndarray) -> np.ndarray:
    """Rows whose graph is connected: each round adds one BFS layer to the
    set reached from vertex 0, and n - 1 rounds reach every vertex."""
    reach = np.ones(nbr.shape[0], dtype=np.uint16)
    for _ in range(nbr.shape[1] - 1):
        reach |= _nbhd(nbr, reach)
    return reach == (1 << nbr.shape[1]) - 1


def _odd_cycle_rows(nbr: np.ndarray) -> np.ndarray:
    """Rows whose graph has an odd cycle, i.e. is not bipartite.

    The vertices reached from a root by walks of even and of odd length are
    grown together; they overlap exactly when the root's component has an
    odd cycle.  n rounds suffice: a root at distance d from an odd cycle of
    length g reaches the cycle's nearest vertex by walks of length d and
    d + g <= n.  Each component not yet reached is rooted at its lowest
    vertex in turn.
    """
    rows, n = nbr.shape
    even = np.zeros(rows, dtype=np.uint16)
    odd = np.zeros(rows, dtype=np.uint16)
    while True:
        rest = ((1 << n) - 1) & ~(even | odd)
        if not rest.any():
            return (even & odd) != 0
        even |= rest & (~rest + 1)
        for _ in range(n):
            even, odd = even | _nbhd(nbr, odd), odd | _nbhd(nbr, even)


def _cycle_len_rows(nbr: np.ndarray) -> np.ndarray:
    """Per row, the number of vertices left once leaves are peeled off
    repeatedly: the length of the cycle of a connected graph with n edges."""
    pop = _popcount()
    rows, n = nbr.shape
    vertex = (1 << np.arange(n)).astype(np.uint16)
    alive = np.full(rows, (1 << n) - 1, dtype=np.uint16)
    while True:
        leaf = pop[nbr & alive[:, None]] == 1
        leaves = np.bitwise_or.reduce(np.where(leaf, vertex, 0), axis=1) & alive
        if not leaves.any():
            return pop[alive]
        alive &= ~leaves


# -- candidate streams -------------------------------------------------------


def _members(q: ClassQuery, masks: np.ndarray, nbr: np.ndarray):
    """The rows of a candidate block that belong to the class: degree screens
    (edge count, pendant count, no isolated vertex) first, then the exact
    connectivity, odd-cycle and girth tests on the survivors."""
    n = q.n
    min_edges = 0
    if q.require_connected:
        min_edges = n - 1
    if q.require_nonbipartite:
        min_edges = max(min_edges, n if q.require_connected else 3)
    degs = _popcount()[nbr]
    keep = (degs == 1).sum(axis=1) == q.k
    keep &= degs.sum(axis=1) >= 2 * min_edges
    if q.require_connected and n > 1:
        keep &= degs.min(axis=1) >= 1
    masks, nbr = masks[keep], nbr[keep]
    ok = np.ones(masks.size, dtype=bool)
    if q.require_connected:
        ok &= _connected_rows(nbr)
    if q.unicyclic_girth is not None:
        ok &= _cycle_len_rows(nbr) == q.unicyclic_girth
    elif q.require_nonbipartite:
        ok &= _odd_cycle_rows(nbr)
    return masks[ok], nbr[ok]


def _shard_blocks(total_bits: int, shard_index: int, shard_count: int):
    """Contiguous mask ranges forming one shard (top-bit subcubes mod W)."""
    bits = min((shard_count - 1).bit_length(), total_bits)
    width = 1 << (total_bits - bits)
    for sub in range(1 << bits):
        if sub % shard_count == shard_index:
            yield sub * width, (sub + 1) * width


def _general_stream(q: ClassQuery, shard_index: int, shard_count: int):
    """Yield (masks, nbr) blocks of class members; masks increase within the
    shard."""
    n = q.n
    for lo, hi in _shard_blocks(n * (n - 1) // 2, shard_index, shard_count):
        for start in range(lo, hi, _CHUNK):
            masks = np.arange(start, min(start + _CHUNK, hi), dtype=np.int64)
            yield _members(q, masks, _nbr_rows(n, masks))


@functools.cache
def _rank_offsets(m: int, k: int) -> np.ndarray:
    """offsets[i, a] = sum over a' < a of C(m-1-a', k-1-i).  Among the
    k-subsets of 0..m-1 sharing entries 0..i-1, the last of them p, those
    whose entry i is c come after offsets[i, c] - offsets[i, p+1] others."""
    counts = [[math.comb(m - 1 - a, k - 1 - i) for a in range(m)] for i in range(k)]
    offsets = np.zeros((k, m + 1), dtype=np.int64)
    offsets[:, 1:] = np.cumsum(np.array(counts, dtype=np.int64), axis=1)
    return offsets


def _unrank(m: int, k: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the lexicographic list of the k-subsets of 0..m-1."""
    offsets = _rank_offsets(m, k)
    rank = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((rank.size, k), dtype=np.int64)
    least = np.zeros(rank.size, dtype=np.int64)  # smallest entry allowed next
    for i in range(k):
        skipped = offsets[i, least]
        out[:, i] = np.searchsorted(offsets[i], rank + skipped, side="right") - 1
        rank -= offsets[i, out[:, i]] - skipped
        least = out[:, i] + 1
    return out


def _unicyclic_stream(q: ClassQuery, shard_index: int, shard_count: int):
    """Same contract as _general_stream for unicyclic-with-girth queries;
    visits this shard's rank range of the n-edge subsets of K_n."""
    n = q.n
    m_edges = n * (n - 1) // 2
    total = math.comb(m_edges, n)
    edge_bit = 1 << np.arange(m_edges - 1, -1, -1, dtype=np.int64)
    lo = total * shard_index // shard_count
    hi = total * (shard_index + 1) // shard_count
    for start in range(lo, hi, _CHUNK):
        subsets = _unrank(m_edges, n, start, min(start + _CHUNK, hi))
        masks = edge_bit[subsets].sum(axis=1)
        yield _members(q, masks, _nbr_rows(n, masks))


def _class_stream(q: ClassQuery, shard_index, shard_count, general_cap, unicyclic_cap):
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise InvalidParameterError(f"bad shard spec {shard_index}/{shard_count}")
    if q.unicyclic_girth is not None:
        cap = min(unicyclic_cap, ORDER_MAX)
        if q.n > cap:
            raise CapacityExceededError(
                f"unicyclic enumeration capped at order {cap}; order {q.n} has "
                f"about {math.comb(math.comb(q.n, 2), q.n):.2e} edge subsets"
            )
        return _unicyclic_stream(q, shard_index, shard_count)
    cap = min(general_cap, ORDER_MAX)
    if q.n > cap:
        raise CapacityExceededError(
            f"general enumeration capped at order {cap}; order {q.n} has "
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
    for masks, nbr in _class_stream(q, shard_index, shard_count, general_cap, unicyclic_cap):
        for row in nbr.tolist():
            visitor(Graph(q.n, tuple(row)))
        count += masks.size
    return count


# -- extremal search ---------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one extremal search over a class."""

    objective: str
    extremal_value: float
    witnesses: tuple[Graph, ...]
    graphs_examined: int


def _tie_window(value: float, tie_tol: float) -> float:
    return tie_tol * (1.0 + abs(value))


def _keep_ties(objective: str, tie_tol: float, masks: np.ndarray, values: np.ndarray):
    """The best value, and the masks and values of the candidates within its
    tie window.  Applied to the ties kept so far plus a new batch, this keeps
    exactly what a one-at-a-time scan would, since the window's edge moves
    monotonically with the best value."""
    if objective == "min":
        best = float(values.min())
        keep = values <= best + _tie_window(best, tie_tol)
    else:
        best = float(values.max())
        keep = values >= best - _tie_window(best, tie_tol)
    return best, masks[keep], values[keep]


def _least_values(n: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Masks and least Q-eigenvalues of the members of some stream blocks."""
    masks = np.concatenate([m for m, _ in blocks])
    nbr = np.concatenate([b for _, b in blocks])
    ax = np.arange(n)
    qs = ((nbr[:, :, None] >> ax) & 1).astype(np.float64)
    qs[:, ax, ax] = _popcount()[nbr]
    return masks, qmin_stack(qs)


def _scan_shard(
    q: ClassQuery,
    tie_tol: float,
    shard_index: int,
    shard_count: int,
    general_cap: int,
    unicyclic_cap: int,
):
    """Count one shard's members and keep, per objective, the (masks, values)
    of every member within the tie window of the shard's best value."""
    ties = {obj: (np.zeros(0, dtype=np.int64), np.zeros(0)) for obj in ("min", "max")}
    count = 0
    pending: list = []

    def flush():
        masks, values = _least_values(q.n, pending)
        pending.clear()
        for obj in ("min", "max"):
            kept_masks, kept_values = ties[obj]
            _, kept_masks, kept_values = _keep_ties(
                obj,
                tie_tol,
                np.concatenate([kept_masks, masks]),
                np.concatenate([kept_values, values]),
            )
            ties[obj] = kept_masks, kept_values

    waiting = 0
    for masks, nbr in _class_stream(q, shard_index, shard_count, general_cap, unicyclic_cap):
        count += masks.size
        pending.append((masks, nbr))
        waiting += masks.size
        if waiting >= _EIG_BATCH:
            flush()
            waiting = 0
    if waiting:
        flush()
    return count, ties


_scan_cache: dict = {}


@functools.lru_cache(maxsize=2)
def _permutations(n: int) -> np.ndarray:
    """All n! relabellings of 0..n-1 as an (n!, n) int8 table."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return np.fromiter(flat, dtype=np.int8, count=math.factorial(n) * n).reshape(-1, n)


def _orbit(n: int, mask: int) -> np.ndarray:
    """Masks of the images of one labeled graph under every relabelling."""
    edges = _edge_list(n)
    m_edges = len(edges)
    bit = np.zeros((n, n), dtype=np.int64)
    for b, (i, j) in enumerate(edges):
        bit[i, j] = bit[j, i] = 1 << (m_edges - 1 - b)
    perms = _permutations(n)
    image = np.zeros(perms.shape[0], dtype=np.int64)
    for b, (i, j) in enumerate(edges):
        if (mask >> (m_edges - 1 - b)) & 1:
            image |= bit[perms[:, i], perms[:, j]]
    return image


def _dedup_witnesses(n: int, masks: np.ndarray) -> tuple[Graph, ...]:
    """One representative per isomorphism class of the witness masks, in
    order of first appearance (lowest mask).

    Each new representative strikes its whole orbit from the rest: W is
    isomorphic to R exactly when mask(W) is the mask of some relabelling of
    R.  The work grows with the number of classes, not of tied graphs.
    """
    rest = np.sort(masks)
    reps = []
    while rest.size:
        reps.append(Graph(n, tuple(_nbr_rows(n, rest[:1])[0].tolist())))
        rest = rest[~np.isin(rest, _orbit(n, int(rest[0])))]
    return tuple(reps)


def _run_scan(
    q: ClassQuery,
    tie_tol: float,
    shards: int,
    general_cap: int,
    unicyclic_cap: int,
) -> dict[str, SearchResult]:
    key = (q, tie_tol, shards, general_cap, unicyclic_cap)
    hit = _scan_cache.get(key)
    if hit is not None:
        return hit
    partials = [
        _scan_shard(q, tie_tol, s, shards, general_cap, unicyclic_cap)
        for s in range(shards)
    ]
    count = sum(c for c, _ in partials)
    scan = {}
    for obj in ("min", "max"):
        if count == 0:
            scan[obj] = SearchResult(obj, math.nan, (), 0)
            continue
        best, masks, _ = _keep_ties(
            obj,
            tie_tol,
            np.concatenate([ties[obj][0] for _, ties in partials]),
            np.concatenate([ties[obj][1] for _, ties in partials]),
        )
        scan[obj] = SearchResult(obj, best, _dedup_witnesses(q.n, masks), count)
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
    return _run_scan(q, tie_tol, shards, general_cap, unicyclic_cap)[objective]


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
