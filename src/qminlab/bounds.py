"""Closed-form upper bounds on the least Q-eigenvalue.

Three formulas are evaluated, all driven by order n, pendant count k, and
minimum degree delta:

* ``bound_pendant(n, k)``: the pendant-count bound derived from the
  balanced clique-with-pendants maximizer.
* ``bound_submatrix(n, k)``: the sharper intermediate from the 2x2-block
  principal-submatrix step of the same derivation, with t = ceil(k/(n-k)).
* ``bound_lima(n, delta)``: the minimum-degree bound from the literature.

Each is the smaller root of a quadratic, computed as the product of the
roots over the larger root (for ``bound_lima``, roots in x - delta): the
textbook (A - sqrt(A^2 - 4P)) / 2 cancels as n grows, and at n = 10**9 it
rounds the delta = 1 bounds up to 1.0.

``compare_bounds`` tabulates the k-free variants side by side.  It reports
which is smaller and deliberately asserts no direction between the general
pendant bound and the delta = 1 bound: evaluated head to head, the delta = 1
bound is the smaller one throughout, so any claim of the opposite ordering
is surfaced as data rather than encoded as a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError
from .graphs import _integer


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameterError(msg)


def bound_pendant(n: int, k: int) -> float:
    """Upper bound on the least Q-eigenvalue from k pendant vertices."""
    n, k = _integer(n, "n"), _integer(k, "k")
    _require(k >= 1, f"need k >= 1, got {k}")
    _require(n - k >= 3, f"need n - k >= 3, got n={n}, k={k}")
    c = n - k
    return 2 * (c - 1) / (c + k / c + math.sqrt((c - 2) ** 2 + 2 * k + k * k / (c * c)))


def bound_pendant_general(n: int) -> float:
    """The k-free pendant bound; algebraically equal to bound_pendant(n, 1)."""
    n = _integer(n, "n")
    _require(n >= 4, f"need n >= 4, got {n}")
    return 2 * (n - 2) / (n - 1 + 1 / (n - 1) + math.sqrt(n * n - 6 * n + 11 + 1 / (n - 1) ** 2))


def bound_submatrix(n: int, k: int) -> float:
    """Least eigenvalue of the star-center principal block with
    t = ceil(k/(n-k)) pendants; at most bound_pendant(n, k)."""
    n, k = _integer(n, "n"), _integer(k, "k")
    _require(k >= 1, f"need k >= 1, got {k}")
    _require(n - k >= 3, f"need n - k >= 3, got n={n}, k={k}")
    c = n - k
    t = -(-k // c)
    return 2 * (c - 1) / (c + t + math.sqrt((c + t) ** 2 - 4 * (c - 1)))


def bound_lima(n: int, delta: int) -> float:
    """Minimum-degree upper bound; strictly below delta, though from n of
    about 10**17 the gap rounds away in floating point."""
    n, delta = _integer(n, "n"), _integer(delta, "delta")
    _require(n >= 2, f"need n >= 2, got {n}")
    _require(1 <= delta <= n - 1, f"need 1 <= delta <= n-1, got {delta}")
    s = n - 1 - delta
    return delta - 2 / (s + math.sqrt(s * s + 4))


@dataclass(frozen=True)
class BoundRow:
    """One line of the k-free comparison table."""

    n: int
    cor_pendant_general: float
    lima_delta1: float
    submatrix_k1: float

    @property
    def diff(self) -> float:
        return self.cor_pendant_general - self.lima_delta1

    @property
    def smaller(self) -> str:
        """The smaller bound, or "tie" where the floats are equal (n >= ~10**17)."""
        if self.lima_delta1 == self.cor_pendant_general:
            return "tie"
        return "lima" if self.lima_delta1 < self.cor_pendant_general else "pendant"


def compare_bounds(ns) -> list[BoundRow]:
    """Tabulate the k-free bounds for each order in ``ns``."""
    rows = []
    for n in ns:
        n = _integer(n, "n")
        _require(n >= 4, f"comparison needs n >= 4, got {n}")
        rows.append(
            BoundRow(
                n=n,
                cor_pendant_general=bound_pendant_general(n),
                lima_delta1=bound_lima(n, 1),
                submatrix_k1=bound_submatrix(n, 1),
            )
        )
    return rows
