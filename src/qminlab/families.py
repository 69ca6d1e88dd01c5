"""The two extremal families and the majorization order on pendant profiles.

* ``build_U``: an odd cycle, a stem path grown from one cycle vertex, and k
  pendant paths fanning out from the stem's far end (the "anchor").  With all
  pendant paths of length 2 this is the least-eigenvalue minimizer family.
* ``build_K``: a clique with prescribed numbers of pendant edges per clique
  vertex; balanced profiles give the least-eigenvalue maximizer family.

Both builders write the neighbour masks of the whole graph directly and
validate it once, returning it together with a landmark map naming the
vertex roles, so downstream eigenvector checks never re-derive them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError
from .graphs import Graph, _integer


@dataclass(frozen=True)
class UParams:
    """Parameters of the cycle-stem-broom family.

    Invariants: g odd >= 3, l >= 1, every pendant length >= 2, k >= 1, and
    g + l + sum(lengths) = n + k + 1 (the coalescences merge k + 1 vertices).
    """

    n: int
    k: int
    g: int
    l: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        for name in ("n", "k", "g", "l"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "lengths", tuple(_integer(li, "length") for li in self.lengths))
        if self.g < 3 or self.g % 2 == 0:
            raise InvalidParameterError(f"girth must be odd and >= 3, got {self.g}")
        if self.l < 1:
            raise InvalidParameterError(f"stem length must be >= 1, got {self.l}")
        if self.k < 1:
            raise InvalidParameterError(f"pendant count must be >= 1, got {self.k}")
        if len(self.lengths) != self.k:
            raise InvalidParameterError(
                f"expected {self.k} pendant path lengths, got {len(self.lengths)}"
            )
        if any(li < 2 for li in self.lengths):
            raise InvalidParameterError("every pendant path length must be >= 2")
        total = self.g + self.l + sum(self.lengths)
        if total != self.n + self.k + 1:
            raise InvalidParameterError(
                f"g + l + sum(lengths) = {total} != n + k + 1 = {self.n + self.k + 1}"
            )


@dataclass(frozen=True)
class ULandmarks:
    """Vertex roles of a built U graph.

    ``cycle`` lists the cycle vertices in anticlockwise order (the stem hangs
    off the last one); ``stem`` runs from that cycle vertex to the anchor;
    each entry of ``pendant_paths`` runs from the anchor outward.
    """

    cycle: tuple[int, ...]
    stem: tuple[int, ...]
    anchor: int
    pendant_paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class KLandmarks:
    """Vertex roles of a built K graph: clique vertices and their pendants."""

    clique: tuple[int, ...]
    pendants_of: tuple[tuple[int, ...], ...]


def build_U(params: UParams) -> tuple[Graph, ULandmarks]:
    """Build the cycle-stem-broom graph for ``params`` with landmarks.

    Indices are deterministic: cycle vertices 0..g-1 (the stem attaches at
    g-1), stem vertices appended next, then the pendant paths in order.
    """
    return _u_graph(params.n, params.g, params.l, params.lengths)


def _u_graph(n, g, l, lengths) -> tuple[Graph, ULandmarks]:
    """``build_U``'s graph and landmarks from parameters already validated."""
    stem = (g - 1,) + tuple(range(g, g + l - 1))
    paths = []
    start = g + l - 1
    for li in lengths:
        paths.append((stem[-1],) + tuple(range(start, start + li - 1)))
        start += li - 1
    masks = [0] * n
    for walk in (tuple(range(g)) + (0,), stem, *paths):
        for a, b in zip(walk, walk[1:]):
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    landmarks = ULandmarks(tuple(range(g)), stem, stem[-1], tuple(paths))
    return Graph(n, tuple(masks)), landmarks


def build_U_std(n: int, k: int, g: int) -> tuple[Graph, ULandmarks]:
    """The standard family member: all pendant paths of length 2."""
    n, k, g = _integer(n, "n"), _integer(k, "k"), _integer(g, "g")
    l = n + k + 1 - g - 2 * k
    if l < 1:
        raise InvalidParameterError(
            f"no stem fits: n + k + 1 - g - 2k = {l} < 1 for (n={n}, k={k}, g={g})"
        )
    if g < 3 or g % 2 == 0 or k < 1:
        UParams(n=n, k=k, g=g, l=l, lengths=(2,) * k)  # raises build_U's error
    return _u_graph(n, g, l, (2,) * k)


@dataclass(frozen=True)
class PendantProfile:
    """Non-increasing nonnegative integers; entry i is the pendant count of
    clique vertex i.  ``k`` is the total pendant count, ``n`` the graph order.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(_integer(e, "profile entry") for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if not self.entries:
            raise InvalidParameterError("empty pendant profile")
        if any(e < 0 for e in self.entries):
            raise InvalidParameterError(f"negative profile entry in {self.entries}")
        if any(a < b for a, b in zip(self.entries, self.entries[1:])):
            raise InvalidParameterError(f"profile {self.entries} is not non-increasing")

    @property
    def k(self) -> int:
        return sum(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries) + self.k


def build_K(nu: PendantProfile) -> tuple[Graph, KLandmarks]:
    """Clique on len(nu) vertices with nu[i] pendant edges at clique vertex i.

    Pendants are appended after the clique, grouped by owner, which fixes the
    vertex order referenced by the worked eigenvector examples.
    """
    core = len(nu.entries)
    if core <= 2:
        raise InvalidParameterError(
            f"clique order must be >= 3 for a non-bipartite graph, got {core}"
        )
    if nu.k < 1:
        raise InvalidParameterError("profile must place at least one pendant")
    full = (1 << core) - 1
    masks = [full ^ (1 << i) for i in range(core)]
    pendants = []
    for i, cnt in enumerate(nu.entries):
        mine = tuple(range(len(masks), len(masks) + cnt))
        masks[i] |= ((1 << cnt) - 1) << len(masks)
        masks.extend([1 << i] * cnt)
        pendants.append(mine)
    return Graph(len(masks), tuple(masks)), KLandmarks(tuple(range(core)), tuple(pendants))


def majorizes(nu: PendantProfile, mu: PendantProfile) -> bool:
    """True iff every prefix sum of nu is >= the matching prefix sum of mu.

    Defined only for profiles of equal length and equal total.
    """
    if len(nu.entries) != len(mu.entries):
        raise InvalidParameterError("majorization needs equal profile lengths")
    if nu.k != mu.k:
        raise InvalidParameterError("majorization needs equal profile sums")
    acc_nu = acc_mu = 0
    for a, b in zip(nu.entries, mu.entries):
        acc_nu += a
        acc_mu += b
        if acc_nu < acc_mu:
            return False
    return True


def balanced_profile(n: int, k: int) -> PendantProfile:
    """The unique profile of length n-k with entries differing by at most 1."""
    n, k = _integer(n, "n"), _integer(k, "k")
    core = n - k
    if core < 3:
        raise InvalidParameterError(f"need n - k >= 3, got {core}")
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    q, r = divmod(k, core)
    return PendantProfile((q + 1,) * r + (q,) * (core - r))
