"""Exact characteristic polynomials and rigorous smallest-root isolation.

This is the independent cross-check for the LAPACK eigensolver: integer
matrices get exact integer coefficients of det(lambda I - M) through the
Faddeev-LeVerrier recurrence, and the smallest real root is bisected to
1e-12 width using Sturm-chain sign-change counts (a bare sign-change test
would skip even-multiplicity roots, e.g. the doubled smallest eigenvalue of
a triangle's Q-matrix).

All arithmetic is on Python integers.  Rational or float coefficients are
first scaled to integers by a positive factor; the square-free part and the
Sturm chain come from integer pseudo-remainders scaled by |lc|^(delta+1),
and each chain member is divided by its positive content.  Every member is
therefore a positive multiple of the member the rational construction would
give, and a positive multiple has the same sign at every point, so the
sign-change counts are unchanged.  A bisection point a/b (b > 0) is
evaluated by homogeneous Horner, which yields the integer p(a/b) * b^deg:
it has the sign of p(a/b), so no rational number is ever formed.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidParameterError

ROOT_WIDTH = 1e-12


def _ratio(x) -> tuple[int, int]:
    """Exact (numerator, denominator > 0) of a finite real number."""
    if isinstance(x, numbers.Integral):
        return int(x), 1
    try:
        return x.as_integer_ratio()
    except (AttributeError, ValueError, OverflowError):
        raise InvalidParameterError(f"expected a finite real number, got {x!r}") from None


def _as_int_matrix(m) -> np.ndarray:
    """``m`` as an object array of Python ints (exact, cannot overflow)."""
    arr = np.asarray(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got shape {arr.shape}")
    ints = []
    for x in arr.ravel().tolist():
        num, den = _ratio(x)
        if den != 1:
            raise InvalidParameterError(f"non-integer entry {x!r}")
        ints.append(num)
    return np.array(ints, dtype=object).reshape(arr.shape)


def charpoly_coeffs(m) -> list[int]:
    """Integer coefficients of det(lambda I - M), descending powers.

    Faddeev-LeVerrier: M_1 = A, c_1 = -tr M_1, then
    M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k) / k (division exact).
    """
    a = _as_int_matrix(m)
    n = a.shape[0]
    diagonal = np.arange(n)
    coeffs = [1]
    mk = a
    for k in range(1, n + 1):
        if k > 1:
            shifted = mk.copy()
            shifted[diagonal, diagonal] += coeffs[-1]
            mk = a.dot(shifted)
        ck, rem = divmod(-int(mk.trace()), k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        coeffs.append(ck)
    return coeffs


# -- integer polynomial helpers (coefficient lists, descending powers) -------


def _poly_trim(p):
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _primitive(p):
    """``p`` divided by the positive gcd of its coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _poly_deriv(p):
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])] or [0]


def _pseudo_rem(num, den):
    """|lc(den)|^(delta+1) * rem(num, den), trimmed: a positive multiple of
    the remainder, with integer coefficients."""
    lead = den[0]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(num) >= len(den):
        top = sign * num[0]
        num = [scale * c - top * d for c, d in zip(num[1:], den[1:])] + [
            scale * c for c in num[len(den):]
        ]
    return _poly_trim(num or [0])


def _exact_div(num, den):
    """Quotient of ``num`` by ``den``; raises unless it is exact over Z."""
    quot = []
    while len(num) >= len(den):
        lead, rem = divmod(num[0], den[0])
        if rem:
            raise ArithmeticError("square-free division must be exact")
        quot.append(lead)
        num = [c - lead * d for c, d in zip(num[1:], den[1:])] + num[len(den):]
    if any(num):
        raise ArithmeticError("square-free division must be exact")
    return quot


def _poly_gcd(a, b):
    """Primitive gcd with a positive leading coefficient."""
    a, b = _primitive(a), _primitive(b)
    while any(b):
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a if a[0] > 0 else [-c for c in a]


def _squarefree(p):
    return _primitive(_exact_div(p, _poly_gcd(p, _poly_deriv(p))))


def _sturm_chain(p):
    chain = [p, _primitive(_poly_deriv(p))]
    while len(chain[-1]) > 1:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _sign_changes(chain, a: int, b: int) -> int:
    """Sign changes along the chain at x = a/b (b > 0), zeros skipped."""
    powers = [1]
    for _ in range(len(chain[0]) - 1):
        powers.append(powers[-1] * b)
    changes, last = 0, 0
    for p in chain:
        acc = 0
        for c, bk in zip(p, powers):
            acc = acc * a + c * bk  # acc ends as p(a/b) * b^deg p
        if acc:
            if last and (acc > 0) != (last > 0):
                changes += 1
            last = acc
    return changes


def smallest_real_root(coeffs, width: float = ROOT_WIDTH) -> float:
    """Smallest real root of a polynomial with all-real roots, to ``width``.

    Counts distinct roots in (lo, mid] via the Sturm chain of the square-free
    part and bisects toward the leftmost one.  The Cauchy bound frames the
    initial interval.  Coefficients may be integers, rationals or floats;
    ``width`` must be finite and positive.
    """
    if not (math.isfinite(width) and width > 0):
        raise InvalidParameterError(f"width must be finite and positive, got {width!r}")
    width_num, width_den = _ratio(width)
    ratios = [_ratio(c) for c in coeffs]
    scale = math.lcm(*(den for _, den in ratios))
    p = _poly_trim([num * (scale // den) for num, den in ratios])
    if len(p) < 2:
        raise InvalidParameterError("constant polynomial has no roots")
    chain = _sturm_chain(_squarefree(p))
    # the points lo/den, mid/den, hi/den are exactly the rational bisection
    # points from the Cauchy bound 1 + max|c_i / c_0| = hi/den
    den = abs(p[0])
    hi = den + max(abs(c) for c in p[1:])
    lo = -hi
    v_lo = _sign_changes(chain, lo, den)
    if v_lo - _sign_changes(chain, hi, den) == 0:
        raise InvalidParameterError("polynomial has no real roots in the Cauchy bound")
    while (hi - lo) * width_den > width_num * den:
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        if v_lo - _sign_changes(chain, mid, den) >= 1:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / (2 * den)


def charpoly_oracle(m) -> tuple[list[int], float]:
    """Exact charpoly coefficients plus the smallest real root.

    Intended for integer symmetric matrices of modest dimension; the root
    isolation assumes all roots are real (true for any symmetric input).
    """
    coeffs = charpoly_coeffs(m)
    return coeffs, smallest_real_root(coeffs)
