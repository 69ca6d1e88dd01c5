"""Exhaustive searches over graph classes at small order.

Classes are enumerated as edge subsets of the complete graph.  Edge b of
K_n (column order: (0,1), (0,2), (1,2), (0,3), ...) occupies bit M-1-b of
the subset mask.  A class has C labeled candidates, each with a rank: a
general class's candidates are the 2^M masks in increasing order (rank =
mask), a unicyclic class's are the C(M, n) n-edge subsets in lexicographic
combination order.  A class with more than CANDIDATE_CAP candidates is
refused: general classes run through order 8 (2^28), unicyclic ones through
order 9 on every route.

A search takes one of two routes, chosen from the query alone:

* By isomorphism class: each class is eigensolved once through one
  representative and counts n!/|Aut| towards ``graphs_examined``.  Shard s
  of W is the index range [R*s/W, R*(s+1)/W) of the R representatives in
  their fixed generation order.  Two generators supply them:

  - every unicyclic class, k = 0 included, from tree codes (see
    ``_unicyclic_classes``): the cycle C_g with a rooted tree hung at each
    cycle vertex, one cyclic sequence of trees per class, so no labeled
    candidate is enumerated;
  - every connected non-bipartite general class with k >= 1 pendants, as
    cores plus pendant placements (see ``_representatives``): the cores of
    order n - k come from the labeled candidates at that order only, one
    per isomorphism class, ordered by lowest mask, then placements.

* Labeled: every other class (a general one with k = 0, or without the
  connectivity or non-bipartiteness requirement) is scanned labeled graph
  by labeled graph.  Extremal values over labeled graphs and over
  isomorphism classes coincide, so the scan needs no isomorphism
  rejection.  Shard s of W visits the candidate ranks [C*s/W, C*(s+1)/W).
  ``enumerate_class`` always visits the labeled members, unicyclic ones
  included.

On both routes no shard rescans another's, the unsharded order is the
shards' orders concatenated, and merged shard results equal the unsharded
ones bit for bit because ``qmin_stack`` gives each matrix the same least
eigenvalue whatever batch it is solved in (a test re-proves this on a whole
class).  Tied witnesses are reported one per isomorphism class, each
relabelled to the lowest mask of its orbit, so every route names a class by
the same graph, and only for the objective asked for.  The by-class route
finds that mask by search (``_lowest_mask``), since its representatives are
already pairwise non-isomorphic; the labeled route strikes whole orbits of
n! relabellings from its tie set (``_dedup_witnesses``).

Candidates travel in blocks: an (N,) int64 array of masks with an (N, n)
uint16 array of neighbour masks, row v holding the bitmask of v's
neighbours.  Every screen and exact test runs on a whole block at once.
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

CANDIDATE_CAP = 1 << 28
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


def _members(q: ClassQuery, masks: np.ndarray, nbr: np.ndarray, any_pendants: bool):
    """The rows of a candidate block that belong to the class: degree screens
    (edge count, pendant count unless ``any_pendants``, no isolated vertex)
    first, then the exact connectivity, odd-cycle and girth tests on the
    survivors."""
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


def _candidate_count(n: int, unicyclic: bool) -> int:
    """The number C of labeled candidates at order n, refused over the cap."""
    m_edges = n * (n - 1) // 2
    total = math.comb(m_edges, n) if unicyclic else 1 << m_edges
    if total > CANDIDATE_CAP:
        raise CapacityExceededError(
            f"order {n} has 2^{math.log2(total):.1f} candidate edge subsets, "
            f"over the cap of 2^{math.log2(CANDIDATE_CAP):.0f}"
        )
    return total


def _shard_chunks(total: int, shard_index: int, shard_count: int):
    """Yield (start, stop) blocks of at most _CHUNK covering positions
    [total*s/W, total*(s+1)/W) of 0..total-1, for s = shard_index and
    W = shard_count."""
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise InvalidParameterError(f"bad shard spec {shard_index}/{shard_count}")
    lo = total * shard_index // shard_count
    hi = total * (shard_index + 1) // shard_count
    for start in range(lo, hi, _CHUNK):
        yield start, min(start + _CHUNK, hi)


def _candidates(n: int, unicyclic: bool, shard_index: int, shard_count: int):
    """Yield the masks of candidate ranks [C*s/W, C*(s+1)/W) of the C at
    order n, in rank order, in blocks."""
    m_edges = n * (n - 1) // 2
    edge_bit = 1 << np.arange(m_edges - 1, -1, -1, dtype=np.int64)
    total = _candidate_count(n, unicyclic)
    for start, stop in _shard_chunks(total, shard_index, shard_count):
        if unicyclic:
            # the name keeps this block's subsets alive while the next block
            # is unranked: freed sooner, their memory goes back to the OS and
            # every block faults it in again (7x the minor faults at n=8)
            subsets = _unrank(m_edges, n, start, stop)
            yield edge_bit[subsets].sum(axis=1)
        else:
            yield np.arange(start, stop, dtype=np.int64)


def _class_stream(q: ClassQuery, shard_index: int, shard_count: int):
    """Yield (masks, nbr, count) blocks of the labeled class members among
    candidate ranks [C*s/W, C*(s+1)/W) of the class's C, in rank order;
    count is the number of members in the block."""
    unicyclic = q.unicyclic_girth is not None
    for masks in _candidates(q.n, unicyclic, shard_index, shard_count):
        kept, nbr = _members(q, masks, _nbr_rows(q.n, masks), any_pendants=False)
        yield kept, nbr, kept.size


@functools.cache
def _cores(m: int) -> tuple[tuple[int, np.ndarray], ...]:
    """The connected non-bipartite graphs of order m, one per isomorphism
    class, in increasing order of the class's lowest mask: (that mask, its
    automorphisms as rows of ``_permutations(m)``).

    The labeled candidates are streamed once with the pendant screen
    skipped.  They run in increasing mask order, so the first member not yet
    struck is its orbit's minimum; it starts a class, and its orbit is
    struck from a table of 2^C(m,2) bools indexed by mask.
    """
    query = ClassQuery(n=m, k=0)
    struck = np.zeros(_candidate_count(m, False), dtype=bool)
    cores = []
    for masks in _candidates(m, False, 0, 1):
        masks, _ = _members(query, masks, _nbr_rows(m, masks), any_pendants=True)
        while True:
            masks = masks[~struck[masks]]
            if not masks.size:
                break
            lowest = int(masks[0])
            orbit = _orbit(m, lowest)
            struck[orbit] = True
            cores.append((lowest, _permutations(m)[orbit == lowest]))
    return tuple(cores)


@functools.cache
def _representatives(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One graph per isomorphism class of the connected non-bipartite graphs
    of order n with exactly k >= 1 pendant vertices: (edge-subset masks, the
    number of labeled graphs in each class), ordered by core, then by
    placement.

    Removing the pendants of such a graph G leaves its core H of order
    m = n - k, connected and non-bipartite, and G is H with a placement: a
    vector of pendant counts over H's vertices that sums to k and is >= 1 on
    every leaf of H, so that no core vertex becomes a pendant.  Every such
    pair is a class member, and two are isomorphic exactly when their cores
    are and an automorphism of H carries one placement to the other.  So
    each core of ``_cores(m)`` takes the placements that are the
    lexicographic maximum of their images under its automorphisms, in
    ``combinations_with_replacement`` order, and a class has
    n! / (|Stab(placement)| * prod of m_v!) labelings.  The core keeps
    labels 0..m-1; pendant m + t hangs from the t-th vertex of the
    placement's multiset.
    """
    m = n - k
    m_edges = n * (n - 1) // 2
    spots = np.array(
        list(itertools.combinations_with_replacement(range(m), k)), dtype=np.int64
    )
    placements = (spots[:, :, None] == np.arange(m)).sum(axis=1)
    pendant_col = m + np.arange(k)
    pendant_bits = (
        1 << (m_edges - 1 - pendant_col * (pendant_col - 1) // 2 - spots)
    ).sum(axis=1)
    weight = (k + 1) ** np.arange(m - 1, -1, -1)
    code = placements @ weight  # lexicographic order of the placements
    fact = np.array([math.factorial(c) for c in range(k + 1)], dtype=np.int64)
    relabelings = math.factorial(n) // fact[placements].prod(axis=1)
    masks = [np.zeros(0, dtype=np.int64)]
    counts = [np.zeros(0, dtype=np.int64)]
    for core, auts in _cores(m):
        leaves = _popcount()[_nbr_rows(m, np.array([core]))[0]] == 1
        images = placements[:, auts] @ weight
        keep = placements[:, leaves].all(axis=1) & (images.max(axis=1) == code)
        stabilizer = (images == code[:, None]).sum(axis=1)
        masks.append(core << (m_edges - m * (m - 1) // 2) | pendant_bits[keep])
        counts.append(relabelings[keep] // stabilizer[keep])
    return np.concatenate(masks), np.concatenate(counts)


@functools.cache
def _rooted_trees(size: int) -> tuple[tuple, ...]:
    """The rooted trees on ``size`` vertices, one per isomorphism class, each
    the sorted tuple of its root's child subtrees (a lone vertex is ()).

    A tree is a root over a multiset of smaller trees whose sizes sum to
    size - 1.  Each multiset is drawn once, as a non-decreasing sequence of
    positions in the list of smaller trees ordered by size, and sorting the
    children names isomorphic trees by the same tuple.
    """
    smaller = [(s, tree) for s in range(1, size) for tree in _rooted_trees(s)]
    trees = []

    def forests(start: int, room: int, children: tuple):
        if not room:
            trees.append(tuple(sorted(children)))
        for at in range(start, len(smaller)):
            s, tree = smaller[at]
            if s > room:
                break
            forests(at, room - s, children + (tree,))

    forests(0, size - 1, ())
    return tuple(trees)


@functools.cache
def _tree_automorphisms(tree: tuple) -> int:
    """|Aut| of a rooted tree: prod over its distinct child subtrees c, taken
    m times, of m! * |Aut(c)|^m."""
    count = 1
    for child, copies in itertools.groupby(tree):
        m = len(list(copies))
        count *= math.factorial(m) * _tree_automorphisms(child) ** m
    return count


def _tree_leaves(tree: tuple) -> int:
    """The number of childless vertices of a rooted tree, its root excluded."""
    return sum(_tree_leaves(child) if child else 1 for child in tree)


@functools.cache
def _unicyclic_classes(n: int, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The connected unicyclic graphs of order n whose cycle has length g,
    one per isomorphism class, in a fixed generation order: (edge-subset
    masks, pendant counts, the number of labeled graphs in each class).

    Such a graph is the cycle C_g with a rooted tree hung at each cycle
    vertex, and two of them are isomorphic exactly when a rotation or
    reflection of the cycle carries one sequence of trees onto the other.
    The sequences of positions in the list of rooted trees ordered by size
    whose sizes sum to n run in lexicographic order, and each is kept when
    it is the least of its 2g images.  Its pendants are the trees' non-root
    leaves, and |Aut| is the number of images equal to it times the
    product of the trees' automorphism counts, so the class has n!/|Aut|
    labelings.  Cycle vertex i keeps label i; the other vertices of the
    trees follow in preorder.
    """
    trees = [(s, tree) for s in range(1, n - g + 2) for tree in _rooted_trees(s)]
    m_edges = n * (n - 1) // 2
    masks, pendants, counts = [], [], []

    def sequences(prefix: tuple, room: int):
        if len(prefix) == g:
            if not room:
                yield prefix
            return
        # an entry below the first would start a smaller rotation
        for at in range(prefix[0] if prefix else 0, len(trees)):
            if trees[at][0] > room - (g - len(prefix) - 1):
                break
            yield from sequences(prefix + (at,), room - trees[at][0])

    def hang(edges: list, parent: int, tree: tuple):
        for child in tree:
            # as many edges as vertices so far: the new vertex is len(edges)
            edges.append((parent, len(edges)))
            hang(edges, len(edges) - 1, child)

    for seq in sequences((), n):
        images = [seq[r:] + seq[:r] for r in range(g)]
        images += [image[::-1] for image in images]
        if min(images) < seq:
            continue
        edges = [(i, i + 1) for i in range(g - 1)] + [(0, g - 1)]
        for i, at in enumerate(seq):
            hang(edges, i, trees[at][1])
        masks.append(sum(1 << (m_edges - 1 - j * (j - 1) // 2 - i) for i, j in edges))
        pendants.append(sum(_tree_leaves(trees[at][1]) for at in seq))
        aut = images.count(seq) * math.prod(_tree_automorphisms(trees[at][1]) for at in seq)
        counts.append(math.factorial(n) // aut)
    return tuple(np.array(col, dtype=np.int64) for col in (masks, pendants, counts))


def _representative_stream(q: ClassQuery, shard_index: int, shard_count: int):
    """Yield (masks, nbr, count) blocks of the class's representatives at
    positions [R*s/W, R*(s+1)/W) of its R, in ``_unicyclic_classes`` order
    for a unicyclic class and ``_representatives`` order otherwise; count is
    the number of labeled graphs the block's classes hold.  A class over the
    cap is refused, as on the labeled route."""
    _candidate_count(q.n, q.unicyclic_girth is not None)
    if q.unicyclic_girth is None:
        masks, counts = _representatives(q.n, q.k)
    else:
        masks, pendants, counts = _unicyclic_classes(q.n, q.unicyclic_girth)
        masks, counts = masks[pendants == q.k], counts[pendants == q.k]
    for start, stop in _shard_chunks(masks.size, shard_index, shard_count):
        block = masks[start:stop]
        yield block, _nbr_rows(q.n, block), int(counts[start:stop].sum())


def _by_core(q: ClassQuery) -> bool:
    """Whether the query's class is searched one isomorphism class at a
    time: every unicyclic class, and the connected non-bipartite general
    classes with pendants."""
    general = q.k >= 1 and q.require_connected and q.require_nonbipartite
    return q.unicyclic_girth is not None or general


def enumerate_class(
    q: ClassQuery,
    visitor: Callable[[Graph], None],
    *,
    shard_index: int = 0,
    shard_count: int = 1,
) -> int:
    """Visit every labeled graph of the class exactly once, deterministically.

    Cheap vectorized screens (edge-count bounds, degree profile) run before
    the exact connectivity/bipartiteness/girth checks.  Returns the count.
    """
    count = 0
    for _, nbr, members in _class_stream(q, shard_index, shard_count):
        for row in nbr.tolist():
            visitor(Graph(q.n, tuple(row)))
        count += members
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


def _scan_shard(n: int, tie_tol: float, blocks):
    """Count the labeled graphs one shard's (masks, nbr, count) blocks stand
    for and keep, per objective, the (masks, values) of every block row
    within the tie window of the shard's best value."""
    ties = {obj: (np.zeros(0, dtype=np.int64), np.zeros(0)) for obj in ("min", "max")}
    count = 0
    pending: list = []

    def flush():
        masks, values = _least_values(n, pending)
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
    for masks, nbr, examined in blocks:
        count += examined
        pending.append((masks, nbr))
        waiting += masks.size
        if waiting >= _EIG_BATCH:
            flush()
            waiting = 0
    if waiting:
        flush()
    return count, ties


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


def _lowest_mask(n: int, mask: int) -> int:
    """The lowest mask over all relabellings of one labeled graph, found by
    search instead of by enumerating the n! of them.

    Column j of a mask is the adjacency of the vertex labelled j to labels
    0..j-1, (0, j) its most significant bit, so the lowest mask is the
    lexicographic minimum of the columns taken in order.  Labels are given
    one at a time, keeping only the labelling prefixes whose columns so far
    are that minimum.  A prefix is held as a row of codes: entry v is v's
    column against the prefix, or ``used`` once v is labelled, and labelling
    u next turns each code c into 2c + adj(u, v).  Two prefixes whose rows
    are equal have the same futures, so equal rows are merged (by
    ``np.lexsort``: ``np.unique`` would import ``numpy.ma``).
    """
    m_edges = n * (n - 1) // 2
    adj = np.zeros((n, n), dtype=np.int64)
    for b, (i, j) in enumerate(_edge_list(n)):
        adj[i, j] = adj[j, i] = (mask >> (m_edges - 1 - b)) & 1
    used = 1 << n  # above every code
    codes = np.zeros((1, n), dtype=np.int64)
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


def _witness_graphs(n: int, masks) -> tuple[Graph, ...]:
    """The graphs of some masks, in increasing mask order."""
    rows = _nbr_rows(n, np.sort(np.array(masks, dtype=np.int64)))
    return tuple(Graph(n, tuple(row)) for row in rows.tolist())


def _dedup_witnesses(n: int, masks: np.ndarray) -> tuple[Graph, ...]:
    """One graph per isomorphism class of a labeled scan's witness masks,
    each relabelled to the lowest mask of its orbit, in increasing order of
    that mask.

    The tie set may hold every labeled member of a class, so each class
    strikes its whole orbit from the rest: W is isomorphic to R exactly when
    mask(W) is the mask of some relabelling of R, looked up by binary search
    in R's sorted orbit.  (``np.isin`` would go through ``np.unique``, whose
    first call imports ``numpy.ma``, about 20 ms.)  The work grows with the
    number of classes, not of tied graphs.
    """
    rest = np.sort(masks)
    lowest = []
    while rest.size:
        orbit = np.sort(_orbit(n, int(rest[0])))
        lowest.append(orbit[0])
        found = orbit[np.searchsorted(orbit, rest).clip(max=orbit.size - 1)]
        rest = rest[found != rest]
    return _witness_graphs(n, lowest)


def _scan(n: int, tie_tol: float, shards) -> tuple[int, dict[str, tuple[float, np.ndarray]]]:
    """Merge the scans of some shards' block streams: the number of labeled
    graphs they stand for and, per objective, the best value with the masks
    within its tie window (NaN and no masks for an empty class)."""
    partials = [_scan_shard(n, tie_tol, blocks) for blocks in shards]
    count = sum(c for c, _ in partials)
    ties = {}
    for obj in ("min", "max"):
        masks = np.concatenate([shard_ties[obj][0] for _, shard_ties in partials])
        values = np.concatenate([shard_ties[obj][1] for _, shard_ties in partials])
        ties[obj] = _keep_ties(obj, tie_tol, masks, values)[:2] if count else (math.nan, masks)
    return count, ties


@functools.lru_cache(maxsize=32)
def _run_scan(q: ClassQuery, tie_tol: float, shards: int):
    """The query's ``_scan``, cached: one sweep serves both objectives."""
    stream = _representative_stream if _by_core(q) else _class_stream
    return _scan(q.n, tie_tol, [stream(q, s, shards) for s in range(shards)])


@functools.lru_cache(maxsize=32)
def _search(q: ClassQuery, tie_tol: float, shards: int, objective: str) -> SearchResult:
    """One objective's result, with only that objective's witnesses named.
    The by-class generators emit pairwise non-isomorphic representatives,
    so there each witness is only relabelled to its lowest mask; a labeled
    scan's witnesses are deduplicated."""
    count, ties = _run_scan(q, tie_tol, shards)
    best, masks = ties[objective]
    if _by_core(q):
        witnesses = _witness_graphs(q.n, [_lowest_mask(q.n, m) for m in masks.tolist()])
    else:
        witnesses = _dedup_witnesses(q.n, masks)
    return SearchResult(objective, best, witnesses, count)


def find_extremal(
    q: ClassQuery,
    objective: str,
    tie_tol: float = DEFAULT_TIE_TOL,
    *,
    shards: int = 1,
) -> SearchResult:
    """Stream the class, track the extremal least eigenvalue, and return all
    witnesses within the tie tolerance, one per isomorphism class.

    ``tie_tol`` is relative: the kept window is tie_tol * (1 + |optimum|),
    and it must be finite and positive.  Results are cached per query, so
    asking for the other objective later reuses the same sweep.
    """
    if objective not in ("min", "max"):
        raise InvalidParameterError(f"objective must be 'min' or 'max', got {objective!r}")
    if not 0 < tie_tol < math.inf:
        raise InvalidParameterError(f"tie_tol must be finite and positive, got {tie_tol}")
    if shards < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    return _search(q, tie_tol, shards, objective)


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
    # (coalesce puts g2's vertex w != u at g1.n + w - (w > u))
    diag = g2.degree(u) * float(x[v2]) + sum(
        float(x[g1.n + w - (w > u)]) for w in g2.neighbors(u)
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
