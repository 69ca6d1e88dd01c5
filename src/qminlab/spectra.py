"""Signless-Laplacian matrices and their symmetric eigenproblems.

Eigenvalues and eigenvectors come from LAPACK through ``numpy.linalg``;
``charpoly`` is the independent exact route they are checked against.  A
stack passed to ``qmin_stack`` is solved one matrix at a time, each copied
into its own work buffer, so a matrix's result is bit for bit the same
whether it is solved alone or in a batch of any size: a search's verdicts do
not depend on how many representatives it solves at once.

One solve per graph.  A U-pattern check asks ``q_min_of`` for the first
eigenvector and then ``patterns.check_U_pattern`` for the same graph's Q and
least-eigenvalue multiplicity.  Both read ``_solved(g)``, a small memo keyed
by the immutable ``Graph`` that holds Q(g) and its ``eigh``, so Q is built
and solved once per check.  ``_solved`` calls ``eigh`` itself: ``q_matrix(g)``
is symmetric and integral by construction, so ``eig_sym``'s checks cannot
fail and its residual bound would go unused.  The memo's arrays are
read-only, since every caller shares them; the vector ``q_min_of`` returns is
a fresh writable copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .graphs import Graph

_GROUP_TOL = 1e-8  # relative; eigenvalues this close to the least share its multiplicity
_LEAD_TIE_TOL = 1e-8  # relative; magnitudes this close tie for the sign lead


def q_matrix(g: Graph) -> np.ndarray:
    """The signless Laplacian D + A of ``g`` as a dense float array."""
    q = g.adjacency_matrix()
    q.reshape(-1)[:: g.n + 1] = g.degrees()
    return q


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition: ascending eigenvalues, orthonormal columns.

    ``residual_bound`` dominates the max-norm residual of every eigenpair
    against the original matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_bound: float


def _check_symmetric(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got shape {m.shape}")
    if not (m == m.T).all():
        raise InvalidParameterError("matrix is not exactly symmetric")
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix has non-finite entries")
    return m


def eig_sym(m) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues come back ascending with matching orthonormal eigenvector
    columns; deterministic for fixed input.
    """
    m = _check_symmetric(m)
    values, vectors = np.linalg.eigh(m)
    resid = m @ vectors - vectors * values[None, :]
    bound = float(np.abs(resid).max()) if m.shape[0] else 0.0
    return Spectrum(eigenvalues=values, eigenvectors=vectors, residual_bound=bound)


def qmin_stack(mats: np.ndarray) -> np.ndarray:
    """Least eigenvalue of each matrix in a (B, n, n) symmetric stack."""
    return np.linalg.eigvalsh(mats)[:, 0]


def q_min_of(g: Graph) -> tuple[float, np.ndarray, int]:
    """Least Q-eigenvalue of ``g`` with a canonical eigenvector.

    Returns (value, vector, multiplicity).  Multiplicity counts eigenvalues
    within 1e-8 * (1 + |value|) of the least one.
    The vector is unit length and sign-normalized: its largest-magnitude
    entry is positive, ties (magnitudes within 1e-8 * max|x| of the largest)
    broken by lowest vertex index.
    """
    _, values, vectors = _solved(g)
    return _least_pair(values, vectors)


@functools.lru_cache(maxsize=8)
def _solved(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q(g), its ascending eigenvalues, their eigenvector columns), all
    read-only: one solve shared by ``q_min_of`` and ``check_U_pattern``."""
    q = q_matrix(g)
    values, vectors = np.linalg.eigh(q)
    for a in (q, values, vectors):
        a.flags.writeable = False
    return q, values, vectors


def _least_pair(values, vectors):
    """``q_min_of``'s (value, vector, multiplicity) from ascending eigenvalues
    and their eigenvector columns; with ``vectors`` None the vector is None."""
    values = values.tolist()
    value = values[0]
    bound = value + _GROUP_TOL * (1.0 + abs(value))
    multiplicity = sum(v <= bound for v in values)
    if vectors is None:
        return value, None, multiplicity
    column = vectors[:, 0]
    entries = column.tolist()
    top = max(map(abs, entries)) * (1.0 - _LEAD_TIE_TOL)
    lead = next(i for i, e in enumerate(entries) if abs(e) >= top)
    return value, -column if entries[lead] < 0 else column.copy(), multiplicity


def _check_vertex_vector(g: Graph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise InvalidParameterError(
            f"vertex vector has shape {x.shape}, expected ({g.n},)"
        )
    return x


def rayleigh(g: Graph, x) -> float:
    """Quadratic form sum over edges uv of (x(u) + x(v))^2; equals x^T Q x."""
    x = _check_vertex_vector(g, x).tolist()
    total = 0.0
    for u, v in g.edges():
        total += (x[u] + x[v]) ** 2
    return total


def residual(g: Graph, q: float, x) -> float:
    """Max-norm defect of the eigen-equation (q - d(v)) x(v) = sum of
    neighbor values; zero exactly when (q, x) is an eigenpair of Q(g)."""
    x = _check_vertex_vector(g, x)
    defect = q * x - q_matrix(g) @ x
    return float(np.abs(defect).max())
