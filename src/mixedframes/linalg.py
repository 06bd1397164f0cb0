"""Dense double-precision linear algebra used by every other module.

All matrices are 2-D ``numpy.ndarray`` objects with dtype complex128 in
row-major element order.  The inner product convention throughout the
package is

    <x, y> = sum_k x_k * conj(y_k)

i.e. linear in the *first* argument.  Every function here is pure: inputs
are never mutated and identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NumericalFailureError,
    ZeroVectorError,
)

#: Relative radius of eigenvalue clustering: values within
#: tol * (1 + spectral radius) of each other fall into one cluster.
DEFAULT_CLUSTER_TOL = 1e-6


def ensure_finite(a, what="array"):
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} contains NaN or Inf entries")
    return a


def as_matrix(a, what="matrix"):
    """Validate and normalize a dense matrix to complex128."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatchError(f"{what} must be 2-D with positive shape, got {m.shape}")
    ensure_finite(m, what)
    return m


def trace(a):
    a = as_matrix(a, "matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"trace needs a square matrix, got {a.shape}")
    return complex(np.trace(a))


def frobenius_norm(a):
    return float(np.linalg.norm(np.asarray(a)))


@dataclass(frozen=True)
class EigenResult:
    """Spectrum of a general (non-Hermitian) matrix.

    ``values`` holds all eigenvalues with multiplicity, sorted by
    descending real part, then descending imaginary part.  ``vectors``
    holds the matching unit-norm right eigenvectors as columns.
    ``backward_residual`` is max_k ||A v_k - lambda_k v_k|| / (1 + ||A||_F).
    Both arrays are read-only.
    """

    values: np.ndarray
    vectors: np.ndarray
    backward_residual: float

    def __post_init__(self):
        for a in (self.values, self.vectors):
            a.setflags(write=False)

    @property
    def spectral_radius(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def within(self, tol):
        """This result, or NumericalFailureError (carrying the residual)
        when the backward residual exceeds ``tol``."""
        if self.backward_residual > tol:
            raise NumericalFailureError(f"eigendecomposition residual {self.backward_residual:.3e}"
                                        f" exceeds tolerance {tol:.3e}",
                                        residual=self.backward_residual)
        return self


def _pair_conjugates(values, pair_tol):
    """Force the spectrum of a real matrix into exact conjugate pairs.

    Positive-imaginary eigenvalues are greedily matched with their nearest
    conjugate partner; each matched pair is replaced by (avg, conj(avg)).
    """
    values = values.copy()
    pos = [i for i, v in enumerate(values) if v.imag > pair_tol]
    neg = [i for i, v in enumerate(values) if v.imag < -pair_tol]
    for i in pos:
        if not neg:
            break
        j = min(neg, key=lambda k: abs(values[k] - np.conj(values[i])))
        neg.remove(j)
        avg = 0.5 * (values[i] + np.conj(values[j]))
        values[i] = avg
        values[j] = np.conj(avg)
    # anything left with tiny imaginary part is a real eigenvalue
    small = np.abs(values.imag) <= pair_tol
    values[small] = values[small].real
    return values


def _sort_spectrum(values, vectors):
    order = np.lexsort((-values.imag, -values.real))
    values = values[order]
    if vectors is not None:
        vectors = vectors[:, order]
    return values, vectors


def eig_general(a, tol=1e-9):
    """Full eigendecomposition of a general square matrix.

    Real input matrices get a post-hoc symmetrization pass so their
    spectra come out in exact conjugate pairs.  Raises
    NumericalFailureError (carrying the residual) if the backward residual
    exceeds ``tol * (1 + ||A||_F)`` or the QR iteration fails to converge.
    """
    a = as_matrix(a, "matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"eig_general needs a square matrix, got {a.shape}")

    is_real = not np.any(a.imag)
    try:
        if is_real:
            values, vectors = np.linalg.eig(a.real)
        else:
            values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # QR iteration did not converge
        raise NumericalFailureError(f"eigensolver failed to converge: {exc}", residual=np.inf) from exc

    values = np.asarray(values, dtype=np.complex128)
    vectors = np.asarray(vectors, dtype=np.complex128)

    norm_a = frobenius_norm(a)
    if is_real:
        values = _pair_conjugates(values, pair_tol=0.0)

    values, vectors = _sort_spectrum(values, vectors)

    # column k of A V - V diag(values) is A v_k - lambda_k v_k
    residual = float(np.linalg.norm(a @ vectors - vectors * values, axis=0).max())
    residual /= 1.0 + norm_a
    return EigenResult(values=values, vectors=vectors, backward_residual=residual).within(tol)


def orthonormal_span_basis(vectors, rank_tol=1e-12):
    """Orthonormal basis of span(vectors) by pivoted modified Gram-Schmidt.

    ``vectors`` is an iterable of vectors or a 2-D array with one vector
    per row.  A vector whose residual after projection onto the selected
    basis is <= rank_tol * max(1, ||v||) counts as dependent.  Returns
    ``(basis, rank)`` where ``basis`` has shape (rank, dim).

    The residuals of all vectors are the rows of one matrix: each step
    pivots on the first row of largest norm among those not yet chosen
    and removes the new direction from every row by one rank-1 update
    (Golub & Van Loan, Matrix Computations, section 5.2).
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        rows = vectors.astype(np.complex128)
    else:
        vecs = [np.asarray(v, dtype=np.complex128).ravel() for v in vectors]
        if len({v.size for v in vecs}) > 1:
            raise DimensionMismatchError("all vectors must share one dimension")
        rows = np.array(vecs, dtype=np.complex128)
    if rows.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0
    ensure_finite(rows, "span vector")

    n, dim = rows.shape
    flat = rows.view(np.float64)  # squared row norms in one pass each step
    thresholds = rank_tol * np.maximum(1.0, np.sqrt(np.einsum("ij,ij->i", flat, flat)))
    live = np.ones(n, dtype=bool)
    basis = np.zeros((min(n, dim), dim), dtype=np.complex128)
    rank = 0
    while rank < basis.shape[0]:
        norms2 = np.where(live, np.einsum("ij,ij->i", flat, flat), -1.0)
        pick = int(np.argmax(norms2))  # the first maximum
        if np.sqrt(norms2[pick]) <= thresholds[pick]:
            break
        # second projection pass guards against loss of orthogonality
        q = rows[pick] - (basis[:rank].conj() @ rows[pick]) @ basis[:rank]
        q /= np.linalg.norm(q)
        basis[rank] = q
        live[pick] = False
        rows -= (rows @ q.conj())[:, None] * q
        rank += 1
    return basis[:rank].copy(), rank


def lstsq_scalar(target, direction):
    """The c minimizing ||target - c * direction||.

    Closed form: c = <target, direction> / <direction, direction>.
    """
    t = ensure_finite(np.asarray(target, dtype=np.complex128).ravel(), "target")
    d = ensure_finite(np.asarray(direction, dtype=np.complex128).ravel(), "direction")
    if t.size != d.size:
        raise DimensionMismatchError("target and direction dimensions differ")
    denom = np.vdot(d, d).real
    if denom == 0.0:
        raise ZeroVectorError("least-squares direction is the zero vector")
    return complex(np.vdot(d, t) / denom)


def cluster_complex(values, radius):
    """Single-linkage clustering of complex numbers at the given radius.

    Returns a list of index lists, ordered by smallest index, members
    ascending.  Two values land in one cluster iff they are connected by
    a chain of steps each of length <= radius: the clusters are the
    connected components of the graph |values_i - values_j| <= radius.
    """
    values = np.asarray(values, dtype=np.complex128).ravel()
    adjacent = np.abs(values[:, None] - values[None, :]) <= radius
    unassigned = np.ones(values.size, dtype=bool)
    groups = []
    for i in range(values.size):
        if not unassigned[i]:
            continue
        member = np.zeros(values.size, dtype=bool)
        member[i] = True
        frontier = member
        while frontier.any():
            frontier = adjacent[frontier].any(axis=0) & ~member
            member |= frontier
        unassigned &= ~member
        groups.append(np.flatnonzero(member).tolist())
    return groups
