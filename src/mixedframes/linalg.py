"""Dense double-precision linear algebra used by every other module.

All matrices are 2-D ``numpy.ndarray`` objects in row-major element
order, float64 when they come from a real pair and complex128 otherwise
(``frames`` sets that rule); the functions here accept either.  The
inner product convention throughout the package is

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

#: The tol of ``cluster_radius`` unless a caller sets its own.
DEFAULT_CLUSTER_TOL = 1e-6

#: Bound on an eigendecomposition's relative backward residual.
DEFAULT_EIG_TOL = 1e-9


def ensure_finite(a, what="array"):
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} contains NaN or Inf entries")
    return a


def _as_inexact(a, what):
    """a checked finite, as float64 when its dtype is real (so it is solved
    in real arithmetic), else complex128, whatever its entries."""
    a = np.asarray(a)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    return ensure_finite(a, what)


@dataclass(frozen=True)
class EigenResult:
    """Spectrum of a general (non-Hermitian) matrix.

    ``values`` holds all eigenvalues with multiplicity, sorted by
    descending real part, then descending imaginary part, read-only.
    ``backward_residual`` is max_k ||A v_k - lambda_k v_k|| / (1 + ||A||_F)
    over the unit-norm right eigenvectors v_k, which are not kept.
    """

    values: np.ndarray
    backward_residual: float

    def __post_init__(self):
        self.values.setflags(write=False)

    def within(self, tol):
        """This result, or NumericalFailureError (carrying the residual)
        when the backward residual exceeds ``tol``."""
        if self.backward_residual > tol:
            raise NumericalFailureError(f"eigendecomposition residual {self.backward_residual:.3e}"
                                        f" exceeds tolerance {tol:.3e}",
                                        residual=self.backward_residual)
        return self


def eig_general(a, tol=DEFAULT_EIG_TOL):
    """Full eigendecomposition of a general square matrix.

    A real-dtype matrix is solved in real arithmetic (LAPACK ``geev``),
    which returns its nonreal eigenvalues in exact conjugate pairs, and a
    complex one in complex arithmetic, even with zero imaginary parts.
    Raises NumericalFailureError (carrying the residual) if the backward
    residual exceeds ``tol * (1 + ||A||_F)`` or the QR iteration fails to
    converge.
    """
    a = _as_inexact(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(
            f"eig_general needs a nonempty square matrix, got {a.shape}")

    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # QR iteration did not converge
        raise NumericalFailureError(f"eigensolver failed to converge: {exc}", residual=np.inf) from exc

    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((-values.imag, -values.real))
    values, vectors = values[order], np.asarray(vectors, dtype=np.complex128)[:, order]

    # column k of A V - V diag(values) is A v_k - lambda_k v_k
    residual = float(np.linalg.norm(a @ vectors - vectors * values, axis=0).max())
    residual /= 1.0 + float(np.linalg.norm(a))
    return EigenResult(values=values, backward_residual=residual).within(tol)


def orthonormal_span_basis(rows, rank_tol):
    """Orthonormal basis of the span of the rows of a 2-D array, from one SVD.

    The numerical rank counts the singular values above
    rank_tol * max(1, largest row norm), and the basis is the matching
    leading right singular vectors (Golub & Van Loan, Matrix Computations,
    4th ed., sections 2.4 and 5.4.1).  Real-dtype rows are decomposed in
    real arithmetic and give a float64 basis, complex ones a complex128
    basis, even with zero imaginary parts.  Returns ``(basis, rank)``
    where ``basis`` has shape (rank, dim).  A failed SVD raises
    NumericalFailureError.

    Rows that outnumber their dimension are first reduced to the dim x dim
    R factor of their QR decomposition, which has the same singular values
    and right singular vectors (Chan, ACM TOMS 8, 1982), so no n x dim left
    factor is formed: O(n dim^2) time and O(n dim) memory.  LAPACK's gesdd
    takes that path itself from n >= 11 dim / 6 (17 dim / 9 for complex
    rows), and there the basis is bit for bit that of the direct SVD.
    """
    rows = _as_inexact(rows, "span vector")
    try:
        square = np.linalg.qr(rows, mode="r") if len(rows) > rows.shape[-1] else rows
        _, sigma, vh = np.linalg.svd(square, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"span basis SVD failed: {exc}", residual=np.inf) from exc
    cut = rank_tol * max(1.0, np.linalg.norm(rows, axis=1).max(initial=0.0))
    rank = int(np.count_nonzero(sigma > cut))
    return vh[:rank], rank


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


def _row_blocks(n_rows, row_len):
    """Slices of consecutive rows, max(1, 2**16 // row_len) rows each, that
    cover n_rows rows of row_len entries: a pairwise array formed one such
    block at a time holds at most max(row_len, 2**16) entries (1 MB of
    complex128 per 2**16), whatever n_rows is.  Only memory depends on the
    block size, never a result."""
    step = max(1, 2**16 // max(row_len, 1))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def cluster_radius(values, tol=DEFAULT_CLUSTER_TOL):
    """The radius tol * (1 + max |values|) at which ``structure.classify``
    and ``potential.bound_report`` cluster a nonempty set of eigenvalues."""
    return tol * (1.0 + float(np.max(np.abs(values))))


def cluster_complex(values, radius):
    """Single-linkage clustering of complex numbers at the given radius.

    Returns a list of index lists, ordered by smallest index, members
    ascending.  Two values land in one cluster iff they are connected by
    a chain of steps each of length <= radius: the clusters are the
    connected components of the graph |values_i - values_j| <= radius.

    Each cluster grows from its smallest unassigned index by breadth-first
    search, each step comparing only the newly reached values against the
    still-unassigned ones, in ``_row_blocks``: a step over a frontier F and
    the rest R costs O(|F| |R|) time, O(N^2) over a whole clustering at
    worst (a chain) and O(N) for a few tight clusters, and O(N) memory; no
    N x N array is formed.
    """
    values = np.asarray(values, dtype=np.complex128).ravel()
    rest = np.arange(values.size)  # the unassigned indices, ascending
    groups = []
    while rest.size:
        members, frontier, rest = [rest[:1]], rest[:1], rest[1:]
        while frontier.size and rest.size:
            near = np.zeros(rest.size, dtype=bool)
            for block in _row_blocks(frontier.size, rest.size):
                near |= (np.abs(values[frontier[block], None] - values[rest]) <= radius).any(axis=0)
            frontier, rest = rest[near], rest[~near]
            members.append(frontier)
        groups.append(np.sort(np.concatenate(members)).tolist())
    return groups
