"""The mixed frame potential and its spectral identities and bounds.

The potential of a pair ({f_m}, {g_m}) is the double sum

    FP(F, G) = sum_{m,n} <f_m, g_n> <f_n, g_m>,

which equals Tr((TU*)^2) = sum lambda_n^2 over the spectrum of the mixed
operator, and reduces to the Benedetto-Fickus potential when F = G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .errors import NumericalFailureError
from .frames import ConstraintSpec, FramePair, FrameSequence

DEFAULT_CLASS_TOL = 1e-8  # the real/imaginary guard of every spectrum classification
SCALED_IDENTITY_TOL = 1e-9  # scaled_identity_check's cut on ||TU* - A Id||_F / sqrt(d)

ALL_REAL = "ALL_REAL"
ALL_IMAGINARY = "ALL_IMAGINARY"
MIXED = "MIXED"

LOWER_HOLDS = "LOWER_HOLDS"
UPPER_HOLDS = "UPPER_HOLDS"
EQUALITY = "EQUALITY"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class PotentialValue:
    value: complex


def _fp_of_gram(x):
    """FP = Tr(X^2) = sum(X * X^T) for X the N x N cross Gram C, whose
    entries give the double sum sum_{m,n} <f_m, g_n> <f_n, g_m>
    (``fp_direct``), or the d x d mixed operator TU* by the trace identity
    Tr(C^2) = Tr((TU*)^2) (every verdict and every search iterate).  A
    stack (K, d, d) gives an array of its K values, in the stack's dtype."""
    fp = (x * x.swapaxes(-1, -2)).sum(axis=(-2, -1))
    return fp if fp.ndim else complex(fp)


def fp_direct(pair: FramePair):
    """Literal double sum over the N x N cross Gram, formed on each call."""
    return PotentialValue(value=_fp_of_gram(frames.cross_gram(pair)))


def _spectrum(pair: FramePair, tol=linalg.DEFAULT_EIG_TOL):
    """The eigendecomposition of TU*, solved once per pair, checked at
    each caller's own ``tol`` as ``linalg.eig_general`` would check it."""
    eig = pair._derived("eig", lambda: linalg.eig_general(frames.mixed_operator(pair), np.inf))
    return eig.within(tol)


def fp_trace(pair: FramePair, tol=linalg.DEFAULT_EIG_TOL):
    """Tr((TU*)^2), cross-checked against the squared eigenvalue sum."""
    value = _fp_of_gram(frames.mixed_operator(pair))
    eig = _spectrum(pair, tol)
    by_spectrum = complex(np.sum(eig.values**2))
    gap = abs(value - by_spectrum)
    if gap > tol * (1.0 + abs(value)):
        raise NumericalFailureError(
            f"trace form and squared-spectrum form disagree by {gap:.3e}", residual=gap
        )
    return PotentialValue(value=value)


def fp_swap(pair: FramePair):
    """Potential of the swapped pair; equals conj(fp_direct(pair))."""
    return fp_direct(pair.swapped())


def bf_potential(seq: FrameSequence):
    """Benedetto-Fickus potential sum_{m,n} |<f_m, f_n>|^2."""
    gram = frames.cross_gram(FramePair(seq, seq))
    return float(np.sum(np.abs(gram) ** 2))


def _real_and_imaginary(values, tol):
    """(is_real, is_imaginary) per value: its imaginary, resp. real, part
    is at most tol * (1 + |value|).  A value near 0 is both."""
    values = np.asarray(values, dtype=np.complex128)
    guard = tol * (1.0 + np.abs(values))
    return np.abs(values.imag) <= guard, np.abs(values.real) <= guard


def classify_spectrum(values):
    """ALL_REAL, ALL_IMAGINARY or MIXED, each value tested by
    ``_real_and_imaginary`` at DEFAULT_CLASS_TOL; a value near 0 counts
    as real."""
    is_real, is_imag = _real_and_imaginary(values, DEFAULT_CLASS_TOL)
    if is_real.all():
        return ALL_REAL
    if (is_imag & ~is_real).all():
        return ALL_IMAGINARY
    return MIXED


@dataclass(frozen=True)
class BoundReport:
    """Spectral classification and the (sum alpha)^2 / d bound."""

    eigenvalues: np.ndarray
    spectrum_class: str
    class_tol: float
    r_value: float  # sum (Re l)^2 - (Im l)^2
    i_value: float  # 2 sum Re l * Im l
    alpha_sum: complex
    bound: complex  # (sum alpha)^2 / d
    bound_status: str
    trace_identity_residual: float  # |sum lambda - sum alpha|


def bound_report(pair: FramePair, spec: ConstraintSpec):
    frames.require_membership(pair, spec)
    eig = _spectrum(pair)
    values = eig.values

    spectrum_class = classify_spectrum(values)
    r_value = float(np.sum(values.real**2 - values.imag**2))
    i_value = float(2.0 * np.sum(values.real * values.imag))
    alpha_sum = complex(np.sum(spec.alpha))
    bound = alpha_sum**2 / pair.d
    fp = _fp_of_gram(frames.mixed_operator(pair))
    trace_residual = float(abs(np.sum(values) - alpha_sum))

    decomp_gap = abs(fp - complex(r_value, i_value))
    if decomp_gap > 1e-10 * (1.0 + abs(fp)):
        raise NumericalFailureError(
            f"potential disagrees with its eigenvalue decomposition by {decomp_gap:.3e}",
            residual=decomp_gap,
        )

    single_cluster = len(linalg.cluster_complex(values, linalg.cluster_radius(values))) == 1

    margin = 1e-9 * (1.0 + abs(bound))
    if spectrum_class == ALL_REAL and fp.real < bound.real - margin:
        raise NumericalFailureError(
            "real-spectrum lower bound violated despite constraint membership",
            residual=float(bound.real - fp.real),
        )
    if spectrum_class == ALL_IMAGINARY and fp.real > bound.real + margin:
        raise NumericalFailureError(
            "imaginary-spectrum upper bound violated despite constraint membership",
            residual=float(fp.real - bound.real),
        )

    if single_cluster:
        status = EQUALITY
    elif spectrum_class == ALL_REAL:
        status = LOWER_HOLDS
    elif spectrum_class == ALL_IMAGINARY:
        status = UPPER_HOLDS
    else:
        status = NOT_APPLICABLE

    return BoundReport(
        eigenvalues=values,
        spectrum_class=spectrum_class,
        class_tol=DEFAULT_CLASS_TOL,
        r_value=r_value,
        i_value=i_value,
        alpha_sum=alpha_sum,
        bound=complex(bound),
        bound_status=status,
        trace_identity_residual=trace_residual,
    )


def scaled_identity_check(pair: FramePair, spec: ConstraintSpec):
    """Whether TU* = A * Id, with A = trace(TU*) / d.

    When it is, A must equal (sum alpha) / d; that identity is enforced.
    Returns (is_scaled_identity, A, residual).
    """
    frames.require_membership(pair, spec)
    op = frames.mixed_operator(pair)
    a = complex(np.trace(op)) / pair.d
    residual = float(np.linalg.norm(op - a * np.eye(pair.d)))
    is_scaled = residual <= SCALED_IDENTITY_TOL * np.sqrt(pair.d)
    if is_scaled:
        alpha_mean = complex(np.sum(spec.alpha)) / pair.d
        gap = abs(a - alpha_mean)
        if gap > 1e-10 * (1.0 + abs(a)):
            raise NumericalFailureError(
                f"A = trace/d and (sum alpha)/d disagree by {gap:.3e}", residual=gap
            )
    return bool(is_scaled), complex(a), residual
