"""The labeled route: a slow, independent reference for ``qminlab.search``.

``qminlab.search`` eigensolves one representative per isomorphism class.
This module scans a class labeled graph by labeled graph instead, so the
tests can compare the two on every class small enough to scan.

Masks are edge subsets of K_n, laid out as in ``qminlab.search``.  A class
has C labeled candidates, each with a rank: a general class's candidates
are the 2^M masks in increasing order (rank = mask), a unicyclic class's
are the C(M, n) n-edge subsets in lexicographic combination order.  Shard s
of W visits the candidate ranks [C*s/W, C*(s+1)/W).  Candidates travel in
blocks of masks, each block turned into neighbour rows by lookup tables
indexed by the low and the high half of a mask (``_nbr_rows``).  Degree
screens run first, then exact connectivity, odd-cycle and
cycle-length tests written here apart from ``qminlab.graphs``.  The scan
(``labeled_ties``) eigensolves block by block and keeps the masks of the
members within the tie window as it goes, since order 8 has up to 2^28
candidates.  Extremal values over labeled graphs and over isomorphism
classes coincide, so a scan needs no isomorphism rejection; its tied
witnesses are deduplicated by striking whole orbits of n! relabellings
(``_dedup_witnesses``).
``lowest_mask_by_prefixes`` names a graph's lowest mask by a search over
labelling prefixes, for orders whose n! relabellings are too many to scan:
the search reports its witnesses as generated, so witnesses compared across
routes or versions are canonicalized by their lowest masks first.

``LabeledQuery`` also reads the two relaxations the search does not offer
(members may be disconnected, or bipartite), which some tests enumerate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from qminlab import search
from qminlab.errors import InvalidParameterError
from qminlab.graphs import Graph
from qminlab.search import ClassQuery
from qminlab.spectra import qmin_stack

_CHUNK = 1 << 16  # candidates per block


@dataclass(frozen=True)
class LabeledQuery:
    """A graph-class predicate: order, exact pendant count, connectivity,
    non-bipartiteness, and optionally "unicyclic with this odd girth"."""

    n: int
    k: int
    unicyclic_girth: Optional[int] = None
    require_connected: bool = True
    require_nonbipartite: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"order must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise InvalidParameterError(f"pendant count {self.k} out of range")
        if self.require_nonbipartite and (self.n < 3 or self.k > self.n - 3):
            raise InvalidParameterError(
                f"an odd cycle needs 3 non-pendant vertices: k={self.k}, n={self.n}"
            )
        if self.unicyclic_girth is not None:
            g = self.unicyclic_girth
            if g < 3 or g % 2 == 0 or g > self.n:
                raise InvalidParameterError(f"unicyclic girth must be odd, 3..n, got {g}")
            if not self.require_connected:
                raise InvalidParameterError("unicyclic graphs are connected by definition")


def _labeled(q) -> LabeledQuery:
    """A ``ClassQuery`` read as the ``LabeledQuery`` of the same class."""
    if isinstance(q, LabeledQuery):
        return q
    return LabeledQuery(q.n, q.k, q.unicyclic_girth)


# -- neighbour masks of edge-subset masks ---------------------------------------


@functools.cache
def _popcount() -> np.ndarray:
    """Bit counts of every uint16 neighbour mask, built on first use as the
    sum of the counts of its high and low byte; unpacking all 2^16 masks at
    once instead raised the peak RSS of an n=7 sweep by 1.7 MB."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    byte = bits.sum(axis=1, dtype=np.uint8)
    return np.add.outer(byte, byte).ravel()


@functools.cache
def _half_tables(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Neighbour masks of the edges in the low and in the high half of an
    edge-subset mask, indexed by that half's value."""
    edges = search._edge_list(n)
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


# -- batch graph predicates --------------------------------------------------


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


def _members(q, masks: np.ndarray, nbr: np.ndarray, any_pendants: bool):
    """The rows of a candidate block that belong to the class: degree screens
    (edge count, pendant count unless ``any_pendants``, no isolated vertex)
    first, then the exact connectivity, odd-cycle and girth tests on the
    survivors."""
    q = _labeled(q)
    n = q.n
    min_edges = 0
    if q.require_connected:
        min_edges = n - 1
    if q.require_nonbipartite:
        min_edges = max(min_edges, n if q.require_connected else 3)
    degs = _popcount()[nbr]
    keep = degs.sum(axis=1) >= 2 * min_edges
    if not any_pendants:
        keep &= (degs == 1).sum(axis=1) == q.k
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


def _candidates(n: int, unicyclic: bool, shard_index: int, shard_count: int):
    """Yield the masks of candidate ranks [C*s/W, C*(s+1)/W) of the C at
    order n, in rank order, in blocks."""
    m_edges = n * (n - 1) // 2
    edge_bit = 1 << np.arange(m_edges - 1, -1, -1, dtype=np.int64)
    total = math.comb(m_edges, n) if unicyclic else 1 << m_edges
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise InvalidParameterError(f"bad shard spec {shard_index}/{shard_count}")
    hi = total * (shard_index + 1) // shard_count
    for start in range(total * shard_index // shard_count, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
        if unicyclic:
            # the name keeps this block's subsets alive while the next block
            # is unranked: freed sooner, their memory goes back to the OS and
            # every block faults it in again (7x the minor faults at n=8)
            subsets = _unrank(m_edges, n, start, stop)
            yield edge_bit[subsets].sum(axis=1)
        else:
            yield np.arange(start, stop, dtype=np.int64)


def _class_stream(q, shard_index: int, shard_count: int):
    """Yield (masks, nbr, count) blocks of the labeled class members among
    candidate ranks [C*s/W, C*(s+1)/W) of the class's C, in rank order;
    count is the number of members in the block."""
    unicyclic = q.unicyclic_girth is not None
    for masks in _candidates(q.n, unicyclic, shard_index, shard_count):
        kept, nbr = _members(q, masks, _nbr_rows(q.n, masks), any_pendants=False)
        yield kept, nbr, kept.size


def enumerate_class(
    q,
    visitor: Callable[[Graph], None],
    *,
    shard_index: int = 0,
    shard_count: int = 1,
) -> int:
    """Visit every labeled graph of the class exactly once, deterministically.
    Returns the count."""
    count = 0
    for _, nbr, members in _class_stream(q, shard_index, shard_count):
        for row in nbr.tolist():
            visitor(Graph(q.n, tuple(row)))
        count += members
    return count


# -- results -------------------------------------------------------------------


def _dedup_witnesses(n: int, masks: np.ndarray) -> tuple[Graph, ...]:
    """One graph per isomorphism class of a labeled scan's witness masks,
    each relabelled to the lowest mask of its orbit, in increasing order of
    that mask.

    The tie set may hold every labeled member of a class, so each class
    strikes its whole orbit from the rest: W is isomorphic to R exactly when
    mask(W) is the mask of some relabelling of R, looked up by binary search
    in R's sorted orbit.
    """
    rest = np.sort(masks)
    lowest = []
    while rest.size:
        orbit = np.sort(search._orbit(n, int(rest[0])))
        lowest.append(orbit[0])
        found = orbit[np.searchsorted(orbit, rest).clip(max=orbit.size - 1)]
        rest = rest[found != rest]
    return search._witness_graphs(n, lowest)


def lowest_mask_by_prefixes(n: int, nbr) -> int:
    """The lowest mask over all relabellings of the graph with these
    neighbour rows, without enumerating the n! relabellings.

    Column j of a mask is the adjacency of the vertex labelled j to labels
    0..j-1, (0, j) its most significant bit, so the lowest mask is the
    lexicographic minimum of the columns taken in order.  Labels are given
    one at a time, keeping only the labelling prefixes whose columns so far
    are that minimum.  A prefix is held as a row of codes: entry v is v's
    column against the prefix, or ``used`` once v is labelled, and labelling
    u next turns each code c into 2c + adj(u, v).  Two prefixes whose rows
    are equal have the same futures, so equal rows are merged.  Codes are
    uint16: a code compared at label j has j <= 15 bits, below ``used``.
    Every ordering of an independent set is a prefix of its own, so at order
    16 a sparse graph takes 0.4-3 s and up to about 200 MB.
    """
    m_edges = n * (n - 1) // 2
    adj = (np.asarray(nbr, dtype=np.uint16)[:, None] >> np.arange(n, dtype=np.uint16)) & 1
    used = np.uint16(0xFFFF)  # above every code
    codes = np.zeros((1, n), dtype=np.uint16)
    lowest = 0
    for j in range(n):
        column = codes.min()
        lowest |= int(column) << (m_edges - j * (j + 1) // 2)
        rows, picked = np.nonzero(codes == column)
        codes = codes[rows]
        codes = np.where(codes == used, used, codes << 1 | adj[picked])
        codes[np.arange(rows.size), picked] = used
        codes = codes[np.lexsort(codes.T)]
        fresh = np.ones(rows.size, dtype=bool)
        fresh[1:] = (codes[1:] != codes[:-1]).any(axis=1)
        codes = codes[fresh]
    return lowest


def labeled_ties(n: int, blocks):
    """Eigensolve every member of some ``_class_stream`` (masks, nbr, count)
    blocks: the number of members and, per objective, the best value with
    the masks of the members within its tie window tol * (1 + |best|), tol
    the search's default (NaN and none for no members).

    Each block's values are merged with the ties kept so far and the window
    is applied again, which keeps exactly what one window over every member
    would: the window's edge moves monotonically with the best value.
    """
    tol, count = search.DEFAULT_TIE_TOL, 0
    ties = {obj: (math.nan, np.zeros(0, dtype=np.int64), np.zeros(0)) for obj in ("min", "max")}
    ax = np.arange(n, dtype=np.uint16)
    for masks, nbr, members in blocks:
        count += members
        if not masks.size:
            continue
        qs = ((nbr[:, :, None] >> ax) & 1).astype(np.float64)
        qs[:, ax, ax] = _popcount()[nbr]
        values = qmin_stack(qs)
        for obj in ("min", "max"):
            _, kept_masks, kept_values = ties[obj]
            kept_masks = np.concatenate([kept_masks, masks])
            kept_values = np.concatenate([kept_values, values])
            if obj == "min":
                best = float(kept_values.min())
                keep = kept_values <= best + tol * (1.0 + abs(best))
            else:
                best = float(kept_values.max())
                keep = kept_values >= best - tol * (1.0 + abs(best))
            ties[obj] = best, kept_masks[keep], kept_values[keep]
    return count, {obj: (best, masks) for obj, (best, masks, _) in ties.items()}


def labeled_result(q: ClassQuery, objective: str, blocks) -> search.SearchResult:
    """The labeled route's result: every labeled member of some
    ``_class_stream`` blocks eigensolved, the witnesses deduplicated."""
    count, ties = labeled_ties(q.n, blocks)
    best, masks = ties[objective]
    return search.SearchResult(objective, best, _dedup_witnesses(q.n, masks), count)


@functools.cache
def _cores(m: int) -> tuple[tuple[int, np.ndarray], ...]:
    """The connected non-bipartite graphs of order m, one per isomorphism
    class, in increasing order of the class's lowest mask: (that mask, its
    automorphisms as rows of ``search._permutations(m)``).

    The labeled candidates are streamed once with the pendant screen
    skipped.  They run in increasing mask order, so the first member not yet
    struck is its orbit's minimum; it starts a class, and its orbit is
    struck from a table of 2^C(m,2) bools indexed by mask.
    """
    query = LabeledQuery(n=m, k=0)
    struck = np.zeros(1 << m * (m - 1) // 2, dtype=bool)
    cores = []
    for masks in _candidates(m, False, 0, 1):
        masks, _ = _members(query, masks, _nbr_rows(m, masks), any_pendants=True)
        while True:
            masks = masks[~struck[masks]]
            if not masks.size:
                break
            lowest = int(masks[0])
            orbit = search._orbit(m, lowest)
            struck[orbit] = True
            cores.append((lowest, search._permutations(m)[orbit == lowest]))
    return tuple(cores)
