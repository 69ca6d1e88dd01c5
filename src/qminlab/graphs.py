"""Simple undirected graphs on dense vertex sets 0..n-1.

Graphs are immutable values: adjacency is stored as one neighbor bitmask per
vertex, which keeps breadth-first searches and structural predicates cheap at
the orders this package works at (n <= 62).  Every "mutating" operation
returns a new graph.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import CapacityExceededError, InvalidParameterError

#: Largest order accepted by the exhaustive isomorphism test, that of the
#: largest searched class.
ISO_ORDER_CAP = 16


def _integer(value, what: str) -> int:
    """``value`` as a Python int; bools and non-integers are refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidParameterError(f"{what} must be an integer, got {value!r}")


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with vertices 0..n-1.

    ``nbr[v]`` is the bitmask of neighbors of ``v``; symmetry and
    irreflexivity are established at construction time.
    """

    n: int
    nbr: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph of order ``n`` from an iterable of (u, v) pairs."""
        n = _integer(n, "graph order")
        if n < 1:
            raise InvalidParameterError(f"graph order must be >= 1, got {n}")
        masks = [0] * n
        for u, v in edges:
            u, v = _integer(u, "edge end"), _integer(v, "edge end")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph(n, tuple(masks))

    def __post_init__(self):
        n, nbr = self.n, self.nbr
        # the builders and decode_graph6 pass a tuple of ints, kept as it is
        if type(n) is not int or type(nbr) is not tuple or not all(type(m) is int for m in nbr):
            n = _integer(n, "graph order")
            try:
                nbr = tuple(_integer(m, "neighbor mask") for m in nbr)
            except TypeError:
                message = f"neighbor masks must be iterable, got {nbr!r}"
                raise InvalidParameterError(message) from None
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "nbr", nbr)
        if n < 1 or len(nbr) != n:
            raise InvalidParameterError("inconsistent graph order")
        # symmetric: every bit above the diagonal is mirrored below it, and
        # no more bits are set below it than above
        full, above, total = (1 << n) - 1, 0, 0
        for v, m in enumerate(nbr):
            if m & ~full or m >> v & 1:
                break
            total += m.bit_count()
            up = m >> v + 1 << v + 1
            while up and nbr[(up & -up).bit_length() - 1] >> v & 1:
                up &= up - 1
                above += 1
            if up:
                break
        else:
            if total == 2 * above:
                return
        for v, m in enumerate(nbr):  # a fault: name the first, bit by bit
            if m & ~full:
                raise InvalidParameterError(f"neighbor mask of {v} out of range")
            if (m >> v) & 1:
                raise InvalidParameterError(f"self-loop at vertex {v}")
            for u in _bits(m):
                if not (nbr[u] >> v) & 1:
                    raise InvalidParameterError(f"asymmetric adjacency at ({v},{u})")

    # -- basic queries -----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.nbr[self._check_vertex(u)] >> self._check_vertex(v)) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.nbr[self._check_vertex(v)])

    def degree(self, v: int) -> int:
        return self.nbr[self._check_vertex(v)].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.nbr)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        out = []
        for u, m in enumerate(self.nbr):
            m >>= u + 1
            while m:
                low = m & -m
                out.append((u, u + low.bit_length()))
                m ^= low
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.nbr) // 2

    def adjacency_matrix(self) -> np.ndarray:
        """The 0/1 adjacency matrix as floats: row v is the bits of ``nbr[v]``."""
        width = (self.n + 7) // 8
        packed = b"".join([m.to_bytes(width, "little") for m in self.nbr])
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(self.n, width)
        return np.unpackbits(rows, axis=1, count=self.n, bitorder="little").astype(np.float64)

    def _check_vertex(self, v: int) -> int:
        """``v`` as a Python int, if it is a vertex of this graph."""
        if type(v) is int and 0 <= v < self.n:
            return v
        v = _integer(v, "vertex")
        if not 0 <= v < self.n:
            raise InvalidParameterError(f"vertex {v} not in 0..{self.n - 1}")
        return v

    # -- derived graphs ----------------------------------------------------

    def permuted(self, perm) -> "Graph":
        """Relabel: vertex ``v`` of self becomes ``perm[v]``."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise InvalidParameterError("perm is not a permutation of the vertices")
        return Graph.from_edges(self.n, [(perm[u], perm[v]) for u, v in self.edges()])

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise InvalidParameterError(f"({u},{v}) is not an edge")
        masks = list(self.nbr)
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        return Graph(self.n, tuple(masks))


# -- constructors ----------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    """The cycle on n >= 3 vertices with edges {i, (i+1) mod n}."""
    n = _integer(n, "graph order")
    if n < 3:
        raise InvalidParameterError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """The path on n >= 1 vertices; n = 1 is the trivial graph."""
    n = _integer(n, "graph order")
    if n < 1:
        raise InvalidParameterError(f"a path needs at least 1 vertex, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    """The complete graph on n >= 1 vertices."""
    n = _integer(n, "graph order")
    if n < 1:
        raise InvalidParameterError(f"a complete graph needs at least 1 vertex, got {n}")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def coalesce(g1: Graph, v: int, g2: Graph, u: int) -> Graph:
    """Glue ``g2`` onto ``g1`` by identifying vertex ``u`` with vertex ``v``.

    Re-indexing is fixed so constructions are byte-for-byte reproducible:
    g1's vertices keep their indices, the merged vertex keeps index ``v``,
    and g2's remaining vertices are appended in increasing original index.
    """
    v = g1._check_vertex(v)
    u = g2._check_vertex(u)
    masks = list(g1.nbr) + [0] * (g2.n - 1)
    for w, m in enumerate(g2.nbr):
        # g2's vertex x < u moves to g1.n + x, x > u to g1.n + x - 1, u to v
        row = (m & ((1 << u) - 1)) << g1.n | (m >> (u + 1)) << (g1.n + u) | (m >> u & 1) << v
        masks[v if w == u else g1.n + w - (w > u)] |= row
    return Graph(len(masks), tuple(masks))


def attach_pendants(g: Graph, v: int, m: int) -> Graph:
    """Attach ``m`` new degree-1 vertices to ``v``."""
    v, m = g._check_vertex(v), _integer(m, "pendant count")
    if m < 0:
        raise InvalidParameterError(f"pendant count must be >= 0, got {m}")
    edges = g.edges() + [(v, g.n + i) for i in range(m)]
    return Graph.from_edges(g.n + m, edges)


# -- structural predicates -------------------------------------------------


@dataclass(frozen=True)
class TwoColoring:
    """A proper 2-coloring: ``part[v]`` in {0, 1}, every edge bi-chromatic."""

    part: tuple[int, ...]


@dataclass(frozen=True)
class StructureReport:
    connected: bool
    bipartite: Optional[TwoColoring]
    girth: Optional[int]
    odd_girth: Optional[int]
    pendant_count: int
    min_degree: int
    degrees: tuple[int, ...]


def _reach_mask(nbr, start_mask: int) -> int:
    """Bitmask of all vertices reachable from the vertices in start_mask."""
    reach = start_mask
    frontier = start_mask
    while frontier:
        acc = 0
        for v in _bits(frontier):
            acc |= nbr[v]
        frontier = acc & ~reach
        reach |= frontier
    return reach


def is_connected(g: Graph) -> bool:
    return _reach_mask(g.nbr, 1) == (1 << g.n) - 1


def two_coloring(g: Graph) -> Optional[TwoColoring]:
    """A proper 2-coloring of g, or None if some component has an odd cycle."""
    part = [-1] * g.n
    for root in range(g.n):
        if part[root] >= 0:
            continue
        part[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in _bits(g.nbr[x]):
                if part[y] < 0:
                    part[y] = 1 - part[x]
                    queue.append(y)
                elif part[y] == part[x]:
                    return None
    return TwoColoring(tuple(part))


def _short_cycles(g: Graph) -> tuple[Optional[int], Optional[int], bool]:
    """(girth, odd girth, connected): the lengths of a shortest cycle and of a
    shortest odd cycle, each None where g has no such cycle, and whether g is
    connected.

    One layered BFS per root.  An edge inside layer d closes an odd closed
    walk of length 2d + 1 through the root, and a vertex of layer d + 1 with
    two neighbours in layer d ends two distinct paths of length d + 1 from
    it; the first holds an odd cycle no longer than 2d + 1, the second a
    cycle no longer than 2d + 2.  A shortest cycle and a shortest odd cycle
    are isometric, so a BFS from any of their vertices meets each at exactly
    its length: the minimum over roots is exact for both.  A triangle ends
    the search, as no cycle is shorter.  Root 0's BFS is run on to the end
    of its component, which decides connectivity.
    """
    absent = g.n + 1  # longer than any cycle
    best = odd = absent
    for root in range(g.n):
        seen = frontier = 1 << root
        depth = 0
        while frontier and 2 * depth + 1 < odd:
            if any(g.nbr[v] & frontier for v in _bits(frontier)):
                odd = 2 * depth + 1
                best = min(best, odd)
                break
            once = twice = 0
            for v in _bits(frontier):
                step = g.nbr[v] & ~seen
                twice |= once & step
                once |= step
            if twice:
                best = min(best, 2 * depth + 2)
            seen |= once
            frontier = once
            depth += 1
        if not root:
            connected = _reach_mask(g.nbr, seen) == (1 << g.n) - 1
        if odd == 3:
            break
    return (best if best < absent else None), (odd if odd < absent else None), connected


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for a forest."""
    return _short_cycles(g)[0]


def odd_girth(g: Graph) -> Optional[int]:
    """Length of a shortest odd cycle, or None if g is bipartite."""
    return _short_cycles(g)[1]


def structure_report(g: Graph) -> StructureReport:
    degs = g.degrees()
    shortest, shortest_odd, connected = _short_cycles(g)
    return StructureReport(
        connected=connected,
        bipartite=two_coloring(g) if shortest_odd is None else None,
        girth=shortest,
        odd_girth=shortest_odd,
        pendant_count=degs.count(1),
        min_degree=min(degs),
        degrees=degs,
    )


# -- isomorphism -------------------------------------------------------------


@functools.lru_cache(maxsize=65536)
def _refined_colors(g: Graph) -> tuple[int, ...]:
    """Iterative neighborhood color refinement (degree-partition and beyond).

    Color ids are assigned from the sorted signature list each round, so
    colors are directly comparable between different graphs.
    """
    colors = tuple(m.bit_count() for m in g.nbr)
    for _ in range(g.n):
        sigs = tuple(
            (colors[v], tuple(sorted(colors[u] for u in _bits(g.nbr[v]))))
            for v in range(g.n)
        )
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = tuple(palette[s] for s in sigs)
        if len(set(new)) == len(set(colors)):
            return new
        colors = new
    return colors


def _find_mapping(g: Graph, h: Graph) -> bool:
    """Backtracking search for an edge-preserving bijection g -> h.

    Vertices are assigned in order of ascending color-class size (most
    constrained first); a candidate image must carry the same refined color
    and reproduce the adjacency of the already-assigned prefix exactly.
    """
    n = g.n
    gc = _refined_colors(g)
    hc = _refined_colors(h)
    if sorted(gc) != sorted(hc):
        return False
    by_color: dict[int, list[int]] = {}
    for w in range(n):
        by_color.setdefault(hc[w], []).append(w)
    class_size = {c: len(ws) for c, ws in by_color.items()}
    order = sorted(range(n), key=lambda v: (class_size[gc[v]], gc[v], v))
    image = [-1] * n

    def assign(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        needed = 0
        for u in _bits(g.nbr[v]):
            if image[u] >= 0:
                needed |= 1 << image[u]
        for w in by_color[gc[v]]:
            if (used >> w) & 1:
                continue
            if h.nbr[w] & used != needed:
                continue
            image[v] = w
            if assign(i + 1, used | (1 << w)):
                return True
            image[v] = -1
        return False

    found = assign(0, 0)
    del assign  # it refers to itself: free its captured state now, not at a collection
    return found


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff some vertex bijection maps edges onto edges (order <= 16)."""
    if max(g.n, h.n) > ISO_ORDER_CAP:
        raise CapacityExceededError(
            f"isomorphism is capped at order {ISO_ORDER_CAP}, got {max(g.n, h.n)}"
        )
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return _find_mapping(g, h)
