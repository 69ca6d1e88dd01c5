"""Signless-Laplacian matrices and their symmetric eigenproblems.

Eigenvalues and eigenvectors come from LAPACK through ``numpy.linalg``;
``charpoly`` is the independent exact route they are checked against.  A
stack passed to ``qmin_stack`` is solved one matrix at a time, each copied
into its own work buffer, so a matrix's result is bit for bit the same
whether it is solved alone or in a batch of any size: a search's verdicts do
not depend on how it batches its candidates or splits them into shards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .graphs import Graph

DEFAULT_GROUP_TOL = 1e-8
_LEAD_TIE_TOL = 1e-8  # relative; magnitudes this close tie for the sign lead


def q_matrix(g: Graph) -> np.ndarray:
    """The signless Laplacian D + A of ``g`` as a dense float array."""
    q = g.adjacency_matrix()
    q[np.arange(g.n), np.arange(g.n)] = g.degrees()
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
    if not np.array_equal(m, m.T):
        raise InvalidParameterError("matrix is not exactly symmetric")
    if not np.all(np.isfinite(m)):
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


def q_min_of(
    g: Graph,
    *,
    group_tol: float | None = None,
) -> tuple[float, np.ndarray, int]:
    """Least Q-eigenvalue of ``g`` with a canonical eigenvector.

    Returns (value, vector, multiplicity).  Multiplicity counts eigenvalues
    within ``group_tol`` (default 1e-8 * (1 + |value|)) of the least one.
    The vector is unit length and sign-normalized: its largest-magnitude
    entry is positive, ties (magnitudes within 1e-8 * max|x| of the largest)
    broken by lowest vertex index.
    """
    spec = eig_sym(q_matrix(g))
    return _least_pair(spec.eigenvalues, spec.eigenvectors, group_tol)


def _least_pair(values, vectors, group_tol=None):
    """``q_min_of``'s (value, vector, multiplicity) from ascending eigenvalues
    and their eigenvector columns; with ``vectors`` None the vector is None."""
    value = float(values[0])
    if group_tol is None:
        group_tol = DEFAULT_GROUP_TOL * (1.0 + abs(value))
    multiplicity = int(np.sum(values <= value + group_tol))
    if vectors is None:
        return value, None, multiplicity
    vector = vectors[:, 0].copy()
    mags = np.abs(vector)
    lead = int(np.argmax(mags >= mags.max() * (1.0 - _LEAD_TIE_TOL)))
    if vector[lead] < 0:
        vector = -vector
    return value, vector, multiplicity


def _check_vertex_vector(g: Graph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise InvalidParameterError(
            f"vertex vector has shape {x.shape}, expected ({g.n},)"
        )
    return x


def rayleigh(g: Graph, x) -> float:
    """Quadratic form sum over edges uv of (x(u) + x(v))^2; equals x^T Q x."""
    x = _check_vertex_vector(g, x)
    total = 0.0
    for u, v in g.edges():
        total += (x[u] + x[v]) ** 2
    return float(total)


def residual(g: Graph, q: float, x) -> float:
    """Max-norm defect of the eigen-equation (q - d(v)) x(v) = sum of
    neighbor values; zero exactly when (q, x) is an eigenpair of Q(g)."""
    x = _check_vertex_vector(g, x)
    defect = q * x - q_matrix(g) @ x
    return float(np.abs(defect).max())
