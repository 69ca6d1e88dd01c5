"""Exhaustive extremal searches over graph classes at small order, one
isomorphism class at a time, in two stages: class generation and the scan.
The property experiments live in ``patterns``.

A labeled graph of order n <= 16 travels as its neighbour rows: n uint16
masks, bit u of row v set when u and v are adjacent.

Generation.  Two generators build one representative per isomorphism class
straight from its edge list, for the one pendant count k asked, and each
class counts n!/|Aut| towards ``graphs_examined``; neither enumerates
labeled candidates:

* every unicyclic class from tree codes (see ``_unicyclic_classes``): the
  cycle C_g with a rooted tree hung at each cycle vertex, one cyclic
  sequence of trees per class, drawing only trees and prefixes that can
  still make exactly k pendants;
* every general class (connected, non-bipartite, exactly k >= 0 pendants)
  as a core plus a pendant placement (see ``_representatives``): the cores
  of order n - k are the connected non-bipartite graphs of that order, one
  per isomorphism class, built by adding a vertex to the connected graphs
  one order down (see ``_connected_classes``).

Unicyclic classes are searched through order 16, the most a uint16 row
holds, and general ones through order 8; larger orders are refused.  General
order 9 needs the cores of order 8, which the vertex-adding build takes about
24 s cold to make (a general class of order 8 with no pendant needs them too).

Scan.  A class is scanned in one pass over its representatives, held in
memory in their fixed generation order: the least eigenvalues are solved in
batches of ``_EIG_BATCH`` matrices, then each objective keeps the positions
of the values within the tie window of its best value.  ``qmin_stack`` gives
each matrix the same least eigenvalue whatever batch it is solved in, so the
batch size does not reach the verdicts.  ``shards`` is accepted and checked
but has no effect.

Witnesses.  The tied representatives are reported as the generator emitted
them, in generation order and labelling, one per isomorphism class since the
generators emit one graph per class, and only for the objective asked for.

A mask is an edge subset of K_n as a Python int: edge b of K_n (column
order: (0,1), (0,2), (1,2), (0,3), ...) occupies bit M-1-b.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapacityExceededError, InvalidParameterError
from .graphs import Graph, _integer, two_coloring
# perfbench reaches these two property checks as qminlab.search.*
from .patterns import interlacing_check, majorization_scan
from .spectra import qmin_stack

DEFAULT_TIE_TOL = 1e-8
MAX_ORDER = 8
MAX_UNICYCLIC_ORDER = 16
_EIG_BATCH = 4096


@dataclass(frozen=True)
class ClassQuery:
    """A graph class: the connected non-bipartite graphs of order n with
    exactly k pendant vertices, optionally only the unicyclic ones whose
    cycle has this odd length."""

    n: int
    k: int
    unicyclic_girth: Optional[int] = None

    def __post_init__(self):
        names = ("n", "k") if self.unicyclic_girth is None else ("n", "k", "unicyclic_girth")
        for name in names:
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n < 1:
            raise InvalidParameterError(f"order must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise InvalidParameterError(f"pendant count {self.k} out of range")
        if self.n < 3 or self.k > self.n - 3:
            raise InvalidParameterError(
                f"an odd cycle needs 3 non-pendant vertices: k={self.k}, n={self.n}"
            )
        if self.unicyclic_girth is not None:
            g = self.unicyclic_girth
            if g < 3 or g % 2 == 0 or g > self.n:
                raise InvalidParameterError(f"unicyclic girth must be odd, 3..n, got {g}")


def _edge_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


# -- representatives -----------------------------------------------------------


@functools.cache
def _connected_classes(m: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The connected graphs of order m, one per isomorphism class, in
    increasing order of the class's lowest mask: (those masks, each class's
    automorphisms as rows of ``_permutations(m)``, in the same order).

    A connected graph of order m >= 2 stays connected without some vertex (a
    leaf of a spanning tree), so it is isomorphic to a connected graph of
    order m - 1, labelled by its lowest mask, with vertex m - 1 joined to a
    non-empty set of the others: column m - 1 of the mask.  The least of
    these extensions not yet struck starts a class, and the class's whole
    orbit is struck from the rest by binary search in its sorted masks
    (``np.isin`` and ``np.unique`` would import ``numpy.ma``, about 20 ms).
    The relabellings r that carry the extension to the lowest mask are the
    automorphisms of the lowest-mask graph after the first of them, r0, so
    r composed with the inverse of r0 runs through those automorphisms.  A
    class's lowest mask need not be an extension, so the classes are sorted
    at the end.
    """
    if m == 1:
        return np.zeros(1, dtype=np.int64), (np.zeros((1, 1), dtype=np.int8),)
    columns = np.arange(1, 1 << (m - 1), dtype=np.int64)
    rest = np.sort((_connected_classes(m - 1)[0][:, None] << (m - 1) | columns).ravel())
    lowest, auts = [], []
    while rest.size:
        orbit = _orbit(m, int(rest[0]))
        ordered = np.sort(orbit)
        lowest.append(ordered[0])
        reach = _permutations(m)[np.flatnonzero(orbit == ordered[0])]
        reach = reach[:, np.argsort(reach[0])]
        auts.append(reach[np.lexsort(reach.T[::-1])])
        found = ordered[np.searchsorted(ordered, rest).clip(max=ordered.size - 1)]
        rest = rest[found != rest]
    order = np.argsort(lowest)
    return np.array(lowest, dtype=np.int64)[order], tuple(auts[at] for at in order)


@functools.cache
def _representatives(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One graph per isomorphism class of the connected non-bipartite graphs
    of order n with exactly k >= 0 pendant vertices: (neighbour rows, the
    number of labeled graphs in each class), ordered by core, then by
    placement.

    Removing the pendants of such a graph G leaves its core H of order
    m = n - k, connected and non-bipartite, and G is H with a placement: a
    vector of pendant counts over H's vertices that sums to k and is >= 1 on
    every leaf of H, so that no core vertex becomes a pendant.  Every such
    pair is a class member, and two are isomorphic exactly when their cores
    are and an automorphism of H carries one placement to the other.  So
    each class of ``_connected_classes(m)`` is built once as a graph, a
    bipartite one is skipped, and each core takes the placements that are
    the lexicographic maximum of their images under its automorphisms, in
    ``combinations_with_replacement`` order, and a class has
    n! / (|Stab(placement)| * prod of m_v!) labelings.  The core keeps
    labels 0..m-1; pendant m + t hangs from the t-th vertex of the
    placement's multiset.  With k = 0 the one, empty, placement keeps the
    cores without a leaf, each standing for n!/|Aut| labelings.
    """
    m = n - k
    spots = np.array(list(itertools.combinations_with_replacement(range(m), k)), dtype=np.int64)
    placements = (spots[:, :, None] == np.arange(m)).sum(axis=1)
    # the pendants' rows, and their bits in the rows of the core vertices
    pendant_rows = np.zeros((len(spots), n), dtype=np.uint16)
    pendant_rows[:, m:] = 1 << spots
    for t in range(k):
        pendant_rows[np.arange(len(spots)), spots[:, t]] |= 1 << (m + t)
    weight = (k + 1) ** np.arange(m - 1, -1, -1)
    code = placements @ weight  # lexicographic order of the placements
    fact = np.array([math.factorial(c) for c in range(k + 1)], dtype=np.int64)
    relabelings = math.factorial(n) // fact[placements].prod(axis=1)
    rows = [np.zeros((0, n), dtype=np.uint16)]
    counts = [np.zeros(0, dtype=np.int64)]
    masks, auts_of = _connected_classes(m)
    for auts, core in zip(auts_of, _witness_graphs(m, masks)):
        if two_coloring(core) is not None:
            continue
        leaves = np.array(core.degrees()) == 1
        images = placements[:, auts] @ weight
        keep = placements[:, leaves].all(axis=1) & (images.max(axis=1) == code)
        stabilizer = (images == code[:, None]).sum(axis=1)
        block = pendant_rows[keep]
        block[:, :m] |= np.array(core.nbr, dtype=np.uint16)
        rows.append(block)
        counts.append(relabelings[keep] // stabilizer[keep])
    return np.concatenate(rows), np.concatenate(counts)


class _Tree(NamedTuple):
    """A rooted tree.  Keys are distinct, so records compare as their keys
    do: by size, then by their children's keys in turn."""

    key: tuple  # subtree sizes in preorder, children in key order
    pendants: int  # leaves besides the root
    aut: int  # automorphisms fixing the root
    template: tuple  # each non-root vertex's parent, in preorder; the root is 0
    tree: tuple  # the sorted tuple of the root's child subtrees; a lone vertex is ()


@functools.cache
def _rooted_trees(size: int, pendants: int) -> tuple[_Tree, ...]:
    """The rooted trees on ``size`` vertices with ``pendants`` leaves besides
    the root, one per isomorphism class, in key order.

    A tree is a root over a multiset of smaller trees whose sizes sum to
    size - 1 and whose leaves sum to ``pendants``, a lone child being one
    leaf.  Each multiset is drawn once, as a non-decreasing sequence of
    (size, leaves, index) positions, and a child is drawn only when the
    room left can still hold exactly the leaves left (r >= 1 vertices hold
    1..r).  Preorder takes the children in ``tree`` order, and |Aut| is the
    product over the distinct children c, taken m times, of m! * |Aut(c)|^m.
    """
    trees = []

    def forests(start: tuple, room: int, leaves: int, children: tuple):
        if not room and not leaves:
            children = sorted(children, key=lambda c: c.tree)
            up, aut = [], 1
            for c in children:
                up += [0] + [len(up) + 1 + p for p in c.template]
            for c, same in itertools.groupby(children):
                m = len(list(same))
                aut *= math.factorial(m) * c.aut**m
            key = (size,) + tuple(itertools.chain(*sorted(c.key for c in children)))
            trees.append(_Tree(key, pendants, aut, tuple(up), tuple(c.tree for c in children)))
        for s in range(start[0], room + 1):
            lo, hi = max(1, leaves - room + s), min(leaves - (s < room), max(1, s - 1))
            for l in range(max(lo, start[1]) if s == start[0] else lo, hi + 1):
                kids = _rooted_trees(s, l if s > 1 else 0)
                for at in range(start[2] if (s, l) == start[:2] else 0, len(kids)):
                    forests((s, l, at), room - s, leaves - l, children + (kids[at],))

    forests((1, 1, 0), size - 1, pendants, ())
    del forests  # it refers to itself: free its captured state now, not at a collection
    return tuple(sorted(trees))


@functools.cache
def _unicyclic_classes(n: int, g: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The connected unicyclic graphs of order n with exactly k pendant
    vertices whose cycle has length g, one per isomorphism class, in a fixed
    generation order: (neighbour rows, the number of labeled graphs in each
    class).

    Such a graph is the cycle C_g with a rooted tree hung at each cycle
    vertex, its pendants are the trees' non-root leaves, and two of them are
    isomorphic exactly when a rotation or reflection of the cycle carries
    one sequence of trees onto the other.  The sequences of trees in key
    order whose sizes sum to n and whose pendants sum to k run in
    lexicographic order, and each is kept when it is the least of its 2g
    images.  A slot draws only from the ``_rooted_trees`` buckets that leave
    the q later slots (r vertices, trees at least the first's size m) room
    for exactly the pendants left: r - q at most, and at least q if m >= 2,
    else min(1, r - q).  |Aut| is the number of images equal to the sequence
    times the trees' automorphism counts, so the class has n!/|Aut|
    labelings.  Cycle vertex i keeps label i; the trees' other vertices
    follow in preorder, each tree's template shifted into place.
    """
    seqs = []

    def extend(prefix: tuple, room: int, left: int, period: int):
        # necklace prefixes (Fredricksen-Kessler-Maiorana): an entry is at
        # least the one a period back, and a larger one starts a new period
        slots = g - len(prefix) - 1  # after this one
        lo = prefix[-period] if prefix else ()
        if not slots:  # and reflecting through the first puts the last second
            last = _rooted_trees(room, left)
            for t in last[bisect.bisect_left(last, max(lo, prefix[1])) :]:
                if g % (period if t == lo else g) == 0:
                    seqs.append(prefix + (t,))
            return
        for s in range(lo.key[0] if prefix else 1, room):
            least, rest = prefix[0].key[0] if prefix else s, room - s
            if slots * least > rest:
                break
            fewest = slots if least > 1 else min(1, rest - slots)
            spread = range(max(0, left - rest + slots), min(s - 1, left - fewest) + 1)
            trees = sorted(itertools.chain(*(_rooted_trees(s, p) for p in spread)))
            for t in trees[bisect.bisect_left(trees, lo) :]:
                grown = period if t == lo else len(prefix) + 1
                extend(prefix + (t,), rest, left - t.pendants, grown)

    extend((), n, k, 1)
    del extend  # it refers to itself: free its captured state now, not at a collection
    parents, counts = [], []
    for seq in seqs:
        images = [c[r:] + c[:r] for c in (seq, seq[::-1]) for r in range(g) if c[r] == seq[0]]
        if min(images) < seq:
            continue
        base = g
        for i, t in enumerate(seq):
            parents += [base - 1 + p if p else i for p in t.template]
            base += len(t.template)
        counts.append(math.factorial(n) // (images.count(seq) * math.prod(t.aut for t in seq)))
    parents = np.array(parents, dtype=np.int64).reshape(len(counts), n - g)
    rows = np.zeros((len(counts), n), dtype=np.uint16)
    rows[:, :g] = [1 << (i - 1) % g | 1 << (i + 1) % g for i in range(g)]
    rows[:, g:] = 1 << parents
    for j in range(n - g):
        rows[np.arange(len(counts)), parents[:, j]] |= np.uint16(1 << (g + j))
    return rows, np.array(counts, dtype=np.int64)


def _class_rows(q: ClassQuery) -> tuple[np.ndarray, np.ndarray]:
    """The neighbour rows of the class's representatives, in
    ``_unicyclic_classes`` order for a unicyclic class and
    ``_representatives`` order otherwise, with the number of labeled graphs
    in each class.  A class above its order cap is refused."""
    unicyclic = q.unicyclic_girth is not None
    cap = MAX_UNICYCLIC_ORDER if unicyclic else MAX_ORDER
    if q.n > cap:
        kind = "unicyclic" if unicyclic else "general"
        raise CapacityExceededError(
            f"order {q.n} is over the cap: {kind} classes are searched up to order {cap}"
        )
    if unicyclic:
        return _unicyclic_classes(q.n, q.unicyclic_girth, q.k)
    return _representatives(q.n, q.k)


# -- extremal search ---------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one extremal search over a class."""

    objective: str
    extremal_value: float
    witnesses: tuple[Graph, ...]
    graphs_examined: int


def _keep_ties(objective: str, tie_tol: float, values: np.ndarray):
    """The best value, and the positions of the values within its tie window
    tie_tol * (1 + |best|)."""
    if objective == "min":
        best = float(values.min())
        keep = values <= best + tie_tol * (1.0 + abs(best))
    else:
        best = float(values.max())
        keep = values >= best - tie_tol * (1.0 + abs(best))
    return best, np.flatnonzero(keep)


def _least_values(n: int, nbr: np.ndarray) -> np.ndarray:
    """The least Q-eigenvalues of the graphs with these neighbour rows:
    Q = D + A, the degrees being the adjacency rows' sums."""
    ax = np.arange(n)
    qs = ((nbr[:, :, None] >> ax) & 1).astype(np.float64)
    qs[:, ax, ax] = qs.sum(axis=2)
    return qmin_stack(qs)


@functools.lru_cache(maxsize=2)
def _permutations(n: int) -> np.ndarray:
    """All n! relabellings of 0..n-1 as an (n!, n) int8 table."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return np.fromiter(flat, dtype=np.int8, count=math.factorial(n) * n).reshape(-1, n)


@functools.lru_cache(maxsize=2)
def _edge_images(n: int) -> np.ndarray:
    """An (M, n!) table, one gather from the edges' bits: row b holds the
    mask bit of edge b's image under each relabelling in ``_permutations(n)``
    (9 MB at n = 8).  An orbit is then one gather and one OR-reduction; a cold
    ``_connected_classes(7)`` takes about 0.2 s so, 1.0-1.4 s image by image."""
    i, j = np.array(_edge_list(n), dtype=np.int64).reshape(-1, 2).T
    bit = np.zeros((n, n), dtype=np.int64)
    bit[i, j] = bit[j, i] = 1 << np.arange(i.size - 1, -1, -1, dtype=np.int64)
    perms = _permutations(n)
    return bit[perms[:, i].T, perms[:, j].T]


def _orbit(n: int, mask: int) -> np.ndarray:
    """Masks of the images of one labeled graph under every relabelling."""
    m_edges = n * (n - 1) // 2
    present = [b for b in range(m_edges) if (mask >> (m_edges - 1 - b)) & 1]
    return np.bitwise_or.reduce(_edge_images(n)[present], axis=0)


def _witness_graphs(n: int, masks) -> tuple[Graph, ...]:
    """The graphs of some masks, in increasing mask order."""
    edges = _edge_list(n)
    top = len(edges) - 1
    return tuple(
        Graph.from_edges(n, [e for b, e in enumerate(edges) if mask >> (top - b) & 1])
        for mask in sorted(int(mask) for mask in masks)
    )


@functools.lru_cache(maxsize=32)
def _run_scan(q: ClassQuery, tie_tol: float):
    """The number of labeled graphs in the class and, per objective, the
    best value with the positions of the representatives within its tie
    window (NaN and none for an empty class): one pass serves both
    objectives."""
    rows, counts = _class_rows(q)
    if not len(rows):
        return 0, dict.fromkeys(("min", "max"), (math.nan, np.zeros(0, dtype=np.int64)))
    values = np.concatenate(
        [_least_values(q.n, rows[at : at + _EIG_BATCH]) for at in range(0, len(rows), _EIG_BATCH)]
    )
    return sum(counts.tolist()), {obj: _keep_ties(obj, tie_tol, values) for obj in ("min", "max")}


def find_extremal(
    q: ClassQuery,
    objective: str,
    tie_tol: float = DEFAULT_TIE_TOL,
    *,
    shards: int = 1,
) -> SearchResult:
    """Scan the class, find the extremal least eigenvalue, and return all
    witnesses within the tie tolerance, one per isomorphism class.

    ``tie_tol`` is relative: the kept window is tie_tol * (1 + |optimum|),
    and it must be a finite positive real.  The scan is cached per query and
    ``tie_tol``, so asking for the other objective later reuses the same
    sweep; only the witnesses of the objective asked are built.  ``shards``,
    an integer >= 1, has no effect on the result.  The generators emit
    pairwise non-isomorphic representatives, so the witnesses are the tied
    representatives themselves, in generation order and labelling.
    """
    if not isinstance(q, ClassQuery):
        raise InvalidParameterError(f"query must be a ClassQuery, got {q!r}")
    if objective not in ("min", "max"):
        raise InvalidParameterError(f"objective must be 'min' or 'max', got {objective!r}")
    if isinstance(tie_tol, bool) or not isinstance(tie_tol, numbers.Real):
        raise InvalidParameterError(f"tie_tol must be a real number, got {tie_tol!r}")
    if not 0 < tie_tol < math.inf:
        raise InvalidParameterError(f"tie_tol must be finite and positive, got {tie_tol}")
    if _integer(shards, "shards") < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    count, ties = _run_scan(q, float(tie_tol))
    best, positions = ties[objective]
    rows = _class_rows(q)[0][positions].tolist()
    return SearchResult(objective, best, tuple(Graph(q.n, tuple(row)) for row in rows), count)
