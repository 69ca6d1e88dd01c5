"""Exact characteristic polynomials and rigorous smallest-root isolation.

This is the independent cross-check for the LAPACK eigensolver: integer
matrices get exact integer coefficients of det(lambda I - M) through the
Faddeev-LeVerrier recurrence, and the smallest real root is bisected to the
fixed width ``ROOT_WIDTH`` (1e-12) from the Cauchy bound.  Each step asks
whether (lo, mid] holds a root and keeps the lower half if it does.  Every
answer is exact, so the bisection points, and the float returned, depend on
the polynomial alone.

Int64 coefficients.  With ||A|| the largest row sum of |A| and e >= max|M|,
every partial sum of an entry of A (M + cI) is at most ||A|| (e + |c|), and
every partial sum of its trace at most n times that.  The recurrence carries
e as a Python int (refreshed from the array when it grows too large) and runs
on int64 while n ||A|| (e + |c|) < 2^62, so no int64 sum can overflow; from
the first step where the bound fails it continues on Python ints.  Either
way every entry is the exact integer, so the coefficients are the same.  Two
buffers take turns: each product is written into the one not holding its
factor, and each trace is read from a view of the new one's diagonal.

Root isolation uses Python integers only.  Rational or float coefficients are
first scaled to integers by a positive factor; the Sturm chain comes from
integer pseudo-remainders scaled by |lc|^(delta+1), and each chain member is
divided by its positive content.  Every member is therefore a positive
multiple of the member the rational construction would give, and a positive
multiple has the same sign at every point, so the sign-change counts are
unchanged.  A point a/b (b > 0) is evaluated by homogeneous Horner, which
yields the integer p(a/b) * b^deg: it has the sign of p(a/b), so no rational
number is ever formed.

Sturm counts.  The chain p, p', ... of p itself ends in g = gcd(p, p') up to
sign, and p / g is the square-free part s.  Where g(x) != 0 every member is
g(x) times the member of a generalised Sturm sequence of s, so the sign
changes V count distinct roots: (x, y] holds V(x) - V(y) of them.  (A bare
sign test would skip even-multiplicity roots, e.g. the doubled smallest
eigenvalue of a triangle's Q-matrix.)  At a multiple root m every member
vanishes and V(m) reads 0, so V(lo) - V(m) reads at least the true count,
which is at least 1 as m is a root.  lo is never a root: it starts below
every root and moves only past intervals found root-free.  So the step's
test V(lo) - V(mid) >= 1 answers as it must even when mid is a multiple
root.  V(lo) is read at -infinity from the leading terms: no root lies at or
below lo, so V is constant there.

Certified bracket.  Laguerre's iteration on p (never the matrix being
checked) estimates the smallest root x; L = l/b <= x - delta and
H = h/b >= x + delta, delta = 1e-9 * (1 + |x|), b = 2^40 (a grid step of
9e-13, far below delta).  The Taylor shift t_j, the coefficients of
b^n p((l + u)/b) in powers of u, certifies that the smallest root r is
simple and the one root in (L, H] when: t_0 != 0 and the
t_j (-1)^j show no sign variation, so no root is <= L (Descartes' rule of
signs on p(L - z)); p(H) is 0 or of the other sign; and |t_1| > sum over
j >= 2 of j |t_j| (h - l)^(j-1), so p' has no root in [L, H].  A miss (a
float estimate of an order-16 p, whose coefficients pass 2^53) is retried
around the exact Newton point from L, (l t_1 - t_0) / (b t_1).  Only when
that fails (a multiple or clustered smallest root) is the Sturm chain built;
then the square-free part, with the roots of p each simple, is tried, and
without a certificate every bisection step asks the chain.

Final cell.  Bisecting J times cuts the Cauchy interval into 2^J cells
(y_i, y_i+1] of a fixed dyadic grid, J the fewest halvings that reach the
width, and ends on the one cell with y_i < r <= y_i+1; the float returned is
its midpoint.  That cell depends on r alone, so any exact way of finding it
returns the same float.  With a certified bracket the search starts at the
cell of the Newton point from L and gallops outward, then halves.  A probe
"r <= y?" is yes for y >= H, no for y <= L, and in between yes exactly when
the certified polynomial is 0 at y or of the sign opposite to that at L.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidParameterError

ROOT_WIDTH = 1e-12
_WIDTH_NUM, _WIDTH_DEN = ROOT_WIDTH.as_integer_ratio()
_INT64_SAFE = 2**62  # n * (entry bound) below this: no int64 sum can overflow


def _ratio(x) -> tuple[int, int]:
    """Exact (numerator, denominator > 0) of a finite real number."""
    if type(x) is int or isinstance(x, numbers.Integral):
        return int(x), 1
    try:
        return x.as_integer_ratio()
    except (AttributeError, ValueError, OverflowError):
        raise InvalidParameterError(f"expected a finite real number, got {x!r}") from None


def _as_int_matrix(m) -> np.ndarray:
    """``m`` as an exact integer array: int64 when every entry fits, else an
    object array of Python ints."""
    try:
        arr = np.asarray(m)
    except ValueError:
        raise InvalidParameterError("expected a square matrix, got ragged rows") from None
    if arr.dtype.kind not in "biufcO":
        raise InvalidParameterError(f"expected a numeric matrix, got dtype {arr.dtype}")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got shape {arr.shape}")
    kind = arr.dtype.kind
    if kind == "b" or (
        kind == "f" and (np.abs(arr) < 2.0**63).all() and (np.trunc(arr) == arr).all()
    ):
        return arr.astype(np.int64)  # finite, integral and in range: exact
    if kind in "iu":
        return arr.astype(np.int64 if np.can_cast(arr.dtype, np.int64) else object)
    ints = []  # complex or object entries, or floats that fail the check above
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
    Runs on int64 while the bound in the module docstring rules out
    overflow, on Python ints from the first step where it does not.
    """
    a = _as_int_matrix(m)
    n = a.shape[0]
    if a.dtype != object:
        entry = max(int(a.max(initial=0)), -int(a.min(initial=0)))  # max|M_k|, k = 1
        if n * entry < _INT64_SAFE:
            norm = int(np.abs(a).sum(axis=1).max(initial=0))  # max row sum of |A|
        else:
            a = a.astype(object)
    coeffs = [1]
    mk, spare = a.copy(), np.empty(a.shape, a.dtype)  # both C-ordered, as out= needs
    diag, spare_diag = mk.reshape(-1)[:: n + 1], spare.reshape(-1)[:: n + 1]
    for k in range(1, n + 1):
        if k > 1:
            if a.dtype != object:
                bound = norm * (entry + abs(coeffs[-1]))
                if n * bound >= _INT64_SAFE:  # tighten with the measured max|M_{k-1}|
                    bound = norm * (int(np.abs(mk).max()) + abs(coeffs[-1]))
                if n * bound >= _INT64_SAFE:
                    a, mk, spare = a.astype(object), mk.astype(object), np.empty(a.shape, object)
                    diag, spare_diag = mk.reshape(-1)[:: n + 1], spare.reshape(-1)[:: n + 1]
                entry = bound
            diag += coeffs[-1]
            mk, spare = np.dot(a, mk, out=spare), mk
            diag, spare_diag = spare_diag, diag
        ck, rem = divmod(-sum(diag.tolist()), k)
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


def _sturm_chain(p):
    """Sturm chain of ``p``; its last member is gcd(p, p') up to a constant."""
    chain = [p, _primitive(_poly_deriv(p))]
    while len(chain[-1]) > 1:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _scaled_value(p, a: int, b: int) -> int:
    """p(a/b) * b^deg p (b > 0): an integer with the sign of p(a/b)."""
    acc, bk = 0, 1
    for c in p:
        acc = acc * a + c * bk
        bk *= b
    return acc


def _sign_changes(chain, a: int, b: int) -> int:
    """Sign changes along the chain at x = a/b (b > 0), zeros skipped."""
    changes, last = 0, 0
    for p in chain:
        acc = _scaled_value(p, a, b)
        if acc:
            if last and (acc > 0) != (last > 0):
                changes += 1
            last = acc
    return changes


def _root_estimate(poly) -> float | None:
    """Float estimate of the smallest real root, from the polynomial alone:
    Laguerre's iteration, which climbs monotonically to the smallest root of
    a real-rooted p from the Laguerre-Samuelson bound below every root."""
    try:
        c = [float(x) for x in poly]
    except OverflowError:
        return None
    n = len(c) - 1
    mean, c2 = -c[1] / (n * c[0]), (c[2] if n > 1 else 0.0) / c[0]
    x = mean - math.sqrt(max(0.0, (n - 1) * ((n - 1) * mean * mean - 2 * c2 / n)))
    for _ in range(10):
        v = dv = half_ddv = 0.0
        for a in c:
            v, dv, half_ddv = v * x + a, dv * x + v, half_ddv * x + dv
        try:
            g = dv / v
            root = math.sqrt(max(0.0, (n - 1) * (n * (g * g - 2 * half_ddv / v) - g * g)))
            step = n / (g + math.copysign(root, g))
        except ZeroDivisionError:  # x is a root, or the step is undefined
            break
        x -= step
        if abs(step) <= 1e-9 * (1 + abs(x)):  # well inside the bracket
            break
    return x if math.isfinite(x) else None


def _taylor_shift(p, a: int, b: int) -> list[int]:
    """Coefficients t_0, t_1, ... (ascending) of b^deg * p((a + u)/b)."""
    d = [c * b**i for i, c in enumerate(p)]
    for i in range(len(d) - 1, 0, -1):
        for j in range(1, i + 1):
            d[j] += a * d[j - 1]
    return d[::-1]


def _isolates(poly, t, l: int, h: int, b: int) -> bool:
    """Whether (l/b, h/b] holds the smallest root of ``poly``, simple, and no
    other root, from t, the Taylor shift at l/b (see the module docstring)."""
    sign = 1 if t[0] > 0 else -1
    same, other = (t[::2], t[1::2]) if sign > 0 else (t[1::2], t[::2])
    if t[0] == 0 or min(same) < 0 or max(other) > 0:  # p(L - z) varies in sign
        return False
    if _scaled_value(poly, h, b) * sign > 0:
        return False
    slope = 0  # the sum over j >= 2 of j |t_j| (h - l)^(j-1), by Horner's rule
    for j in range(len(t) - 1, 1, -1):
        slope = (slope + j * abs(t[j])) * (h - l)
    return abs(t[1]) > slope


def _certified_bracket(poly):
    """Dyadic L = l/b < H = h/b around the estimate of ``poly``'s smallest
    root, certified by ``_isolates``: (l, h, b, sign at L, the exact Newton
    point from L, rounded), or None; a miss is retried around that point."""
    x, b = _root_estimate(poly), 2**40  # b: the denominator of L and H
    for _ in range(2 if x is not None else 0):
        delta = 1e-9 * (1 + abs(x))
        try:
            l, h = math.floor((x - delta) * b), math.ceil((x + delta) * b)
            t = _taylor_shift(poly, l, b)
            x = (l * t[1] - t[0]) / (b * t[1])
        except (OverflowError, ValueError, ZeroDivisionError):  # no finite point
            return None
        if _isolates(poly, t, l, h, b):
            return l, h, b, 1 if t[0] > 0 else -1, x.as_integer_ratio()
    return None


def smallest_real_root(coeffs) -> float:
    """Smallest real root of a polynomial with all-real roots, to ``ROOT_WIDTH``.

    Bisects toward the leftmost root from the Cauchy bound: a step keeps the
    lower half when (lo, mid] holds a root.  With a certified bracket the
    cell of the final bisection grid that holds the root is found next to an
    exact Newton point, each probe decided by comparison with the bracket's
    ends or by one sign of the certified polynomial; without one, every step
    counts Sturm-chain sign changes.  Both give the same float (see the
    module docstring).  Coefficients may be integers, rationals or floats.
    """
    if all(type(c) is int for c in coeffs):  # already integers: scale 1
        p = _poly_trim(list(coeffs))
    else:
        ratios = [_ratio(c) for c in coeffs]
        scale = math.lcm(*(den for _, den in ratios))
        p = _poly_trim([num * (scale // den) for num, den in ratios])
    if len(p) < 2:
        raise InvalidParameterError("constant polynomial has no roots")
    # the points lo/den, mid/den, hi/den are exactly the rational bisection
    # points from the Cauchy bound 1 + max|c_i / c_0| = hi/den
    den = abs(p[0])
    hi = den + max(abs(c) for c in p[1:])
    lo = -hi
    poly, bracket = p, _certified_bracket(p)
    if bracket is None:
        chain = _sturm_chain(p)
        if len(chain[-1]) > 1:  # a multiple root: certify the square-free part
            poly = _primitive(_exact_div(p, chain[-1]))
            bracket = _certified_bracket(poly)
    if bracket is None:
        # V(lo) = V(-infinity), read from the leading terms: no root is <= lo
        signs = [q[0] > 0 if len(q) % 2 else q[0] < 0 for q in chain]
        v_lo = sum(s != t for s, t in zip(signs, signs[1:]))
        if v_lo - _sign_changes(chain, hi, den) == 0:
            raise InvalidParameterError("polynomial has no real roots in the Cauchy bound")
        while (hi - lo) * _WIDTH_DEN > _WIDTH_NUM * den:
            mid = lo + hi
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
            if v_lo - _sign_changes(chain, mid, den) >= 1:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / (2 * den)
    # the final grid: the fewest halvings that reach the width leave cells of
    # numerator ``cell`` over ``den``, y_i = lo + i * cell; find the one holding r
    l_num, h_num, b, sign_at_low, (x_num, x_den) = bracket
    halvings = (-(-(hi - lo) * _WIDTH_DEN // (_WIDTH_NUM * den)) - 1).bit_length()
    lo, den, cell = lo << halvings, den << halvings, hi - lo
    lo_i, hi_i = 0, 1 << halvings  # r > y_0 and r <= y_(2^halvings)
    t = (x_num * den - lo * x_den) // (cell * x_den) + 1  # right end of x's cell
    step = 1
    while hi_i - lo_i > 1:
        if not lo_i < t < hi_i:
            t = (lo_i + hi_i) // 2
        y = lo + t * cell
        below = y * b >= h_num * den or (
            y * b > l_num * den and _scaled_value(poly, y, den) * sign_at_low <= 0
        )
        if below:  # r <= y: gallop down
            hi_i, t = t, t - step
        else:
            lo_i, t = t, t + step
        step *= 2
    return (2 * lo + (2 * lo_i + 1) * cell) / (2 * den)


def charpoly_oracle(m) -> tuple[list[int], float]:
    """Exact charpoly coefficients plus the smallest real root.

    Intended for integer symmetric matrices of modest dimension; the root
    isolation assumes all roots are real (true for any symmetric input).
    """
    coeffs = charpoly_coeffs(m)
    return coeffs, smallest_real_root(coeffs)
