"""Critical-pair detection and the structure of critical pairs.

A pair in S(alpha) is critical when for each m there is a scalar c with

    sum_{n != m} <f_m, g_n> f_n = c f_m     and
    sum_{n != m} <g_m, f_n> g_n = conj(c) g_m.

At a critical pair every f_m is an eigenvector of TU* with eigenvalue
alpha_m + c_m (and g_m of UT* with the conjugate eigenvalue), the indices
split into eigenvalue groups that are lambda_j-generalized dual frames,
and the pair decomposes into a minimal-modulus group plus a generalized
biorthogonal complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import frames, linalg, potential
from .errors import (
    ClusterAmbiguityError,
    NotCriticalError,
    NumericalFailureError,
    ZeroAlphaError,
)
from .frames import ConstraintSpec, FramePair

DEFAULT_CRITICAL_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class CriticalPairReport:
    c: np.ndarray  # fitted multiplier per index
    f_residuals: np.ndarray
    g_residuals: np.ndarray
    is_critical: bool
    tol: float
    mixed_norm: float  # ||TU*||_F, the residual scale

    @property
    def max_residual(self):
        return float(max(self.f_residuals.max(), self.g_residuals.max()))


def _partial_sums(fv, gv, c=None):
    """The cross Gram C of (N, d) arrays F, G (unless given) and, per
    index m, (sum_{n!=m} <f_m,g_n> f_n, sum_{n!=m} <g_m,f_n> g_n)."""
    if c is None:
        c = fv @ gv.conj().T
    diag = np.diag(c)
    # row m of (C @ F) is sum_n <f_m,g_n> f_n; remove the n = m term
    s = c @ fv - diag[:, None] * fv
    # <g_m, f_n> = conj(C[n, m])
    t = c.conj().T @ gv - diag.conj()[:, None] * gv
    return c, s, t


def _merit_terms(fv, gv, cg=None):
    """(C, s, c, r_f, r_g) of the critical-pair equations on raw (N, d)
    arrays with nonzero rows: cross Gram (unless given), partial sums s,
    least-squares multipliers c and the residuals r_f = s - c f,
    r_g = t - conj(c) g.  The one residual kernel behind
    ``critical_report`` and the optimizer's merit."""
    cg, s, t = _partial_sums(fv, gv, cg)
    c = np.sum(s * fv.conj(), axis=1) / np.sum(np.abs(fv) ** 2, axis=1)
    rf = s - c[:, None] * fv
    rg = t - c.conj()[:, None] * gv
    return cg, s, c, rf, rg


def _scaled_rank_tol(rank_tol, *blocks):
    """rank_tol * max(1, largest row norm of the given (k, d) blocks): the
    span-rank cut of ``linalg.orthonormal_span_basis`` at the vectors'
    scale."""
    return rank_tol * max(1.0, *(float(np.linalg.norm(b, axis=1).max()) for b in blocks))


def critical_report(pair: FramePair, spec: ConstraintSpec, tol=DEFAULT_CRITICAL_TOL):
    """Fit c_m by least squares against f_m and measure both residuals,
    all indices at once through ``_merit_terms``.

    The g-side residual is taken against conj(c_m), never against an
    independently fitted constant: the Lagrange analysis forces conjugate
    multipliers, and fitting the g side separately would mask a
    violation of that coupling.
    """
    return _critical_report(pair, spec, tol)


def _critical_report(pair, spec, tol, terms=None):
    """``critical_report``, from the ``_merit_terms`` output ``terms`` of
    the pair's own arrays when the caller already holds it (the search's
    last iterate, which is not kept on the pair), else from the pair's
    kernel pass, run once per pair."""
    frames.require_membership(pair, spec)
    pair.require_nonzero()
    if terms is None:
        fv, gv = pair.f.vectors, pair.g.vectors
        terms = pair._derived("terms", lambda: _merit_terms(fv, gv, frames.cross_gram(pair)))
    _, s, c, rf, rg = terms
    linalg.ensure_finite(s, "partial sums")
    f_res = np.linalg.norm(rf, axis=1)
    g_res = np.linalg.norm(rg, axis=1)

    mixed_norm = linalg.frobenius_norm(frames.mixed_operator(pair))
    is_critical = max(f_res.max(), g_res.max()) <= tol * (1.0 + mixed_norm)
    return CriticalPairReport(
        c=c,
        f_residuals=f_res,
        g_residuals=g_res,
        is_critical=bool(is_critical),
        tol=tol,
        mixed_norm=mixed_norm,
    )


@dataclass(frozen=True)
class EigenClassification:
    """Index groups of a critical pair by eigenvalue cluster.

    ``distinct_eigenvalues[j]`` is the cluster mean; ``index_sets[j]`` the
    member indices (0-based).  ``right_span_bases[j]`` and
    ``left_span_bases[j]`` are orthonormal bases of span{f_m} and
    span{g_m} over the cluster.
    """

    distinct_eigenvalues: list
    index_sets: list
    assigned: np.ndarray  # cluster index per m
    per_index_eigenvalues: np.ndarray  # alpha_m + c_m
    f_eigen_residuals: np.ndarray
    g_eigen_residuals: np.ndarray
    right_span_bases: list
    left_span_bases: list
    cluster_radius: float
    report: CriticalPairReport = field(repr=False, default=None)


def classify(pair: FramePair, spec: ConstraintSpec, cluster_tol=linalg.DEFAULT_CLUSTER_TOL,
             critical_tol=DEFAULT_CRITICAL_TOL):
    report = critical_report(pair, spec, tol=critical_tol)
    if not report.is_critical:
        raise NotCriticalError(
            f"pair is not critical: max residual {report.max_residual:.3e} exceeds "
            f"{critical_tol:.3e} * (1 + ||TU*||_F)",
            report=report,
        )

    lam = spec.alpha + report.c
    spectral_radius = float(np.max(np.abs(lam))) if lam.size else 0.0
    radius = cluster_tol * (1.0 + spectral_radius)
    clusters = linalg.cluster_complex(lam, radius)
    distances = np.abs(lam[:, None] - lam[None, :])
    for idx in clusters:
        diameter = float(distances[np.ix_(idx, idx)].max())
        if diameter > radius:
            raise ClusterAmbiguityError(
                f"eigenvalue cluster {sorted(i + 1 for i in idx)} has diameter "
                f"{diameter:.3e} > clustering radius {radius:.3e}"
            )

    means = [complex(np.mean(lam[idx])) for idx in clusters]
    order = sorted(range(len(clusters)), key=lambda j: (-means[j].real, -means[j].imag))
    clusters = [sorted(clusters[j]) for j in order]
    means = [means[j] for j in order]

    assigned = np.zeros(pair.n, dtype=int)
    for j, idx in enumerate(clusters):
        assigned[idx] = j

    tu = frames.mixed_operator(pair, "TU*")
    ut = frames.mixed_operator(pair, "UT*")
    f_res = np.linalg.norm(pair.f.vectors @ tu.T - lam[:, None] * pair.f.vectors, axis=1)
    g_res = np.linalg.norm(pair.g.vectors @ ut.T - lam.conj()[:, None] * pair.g.vectors, axis=1)

    rank_tol = _scaled_rank_tol(DEFAULT_RANK_TOL, pair.f.vectors, pair.g.vectors)
    right = []
    left = []
    for idx in clusters:
        rb, _ = linalg.orthonormal_span_basis(pair.f.vectors[idx], rank_tol)
        lb, _ = linalg.orthonormal_span_basis(pair.g.vectors[idx], rank_tol)
        right.append(rb)
        left.append(lb)

    return EigenClassification(
        distinct_eigenvalues=means,
        index_sets=clusters,
        assigned=assigned,
        per_index_eigenvalues=lam,
        f_eigen_residuals=f_res,
        g_eigen_residuals=g_res,
        right_span_bases=right,
        left_span_bases=left,
        cluster_radius=radius,
        report=report,
    )


def check_generalized_biorthogonal(pair: FramePair, spec: ConstraintSpec, idx):
    """Residual of the generalized biorthogonality conditions on idx:
    max of |<f_n, g_m>| over n != m and |<f_m, g_m> - alpha_m|.

    An empty index set and a singleton's off-diagonal part are vacuous.
    """
    idx = sorted(idx)
    for m in idx:
        if spec.alpha[m] == 0:
            raise ZeroAlphaError(
                f"alpha_{m + 1} = 0: generalized biorthogonality needs nonzero alpha",
                index=m,
            )
    if not idx:
        return 0.0
    sub = frames.cross_gram(pair)[np.ix_(idx, idx)]
    diag_res = float(np.abs(np.diag(sub) - spec.alpha[idx]).max())
    off = sub - np.diag(np.diag(sub))
    off_res = float(np.abs(off).max()) if len(idx) > 1 else 0.0
    return max(diag_res, off_res)


def check_a_generalized_dual(pair: FramePair, idx, a, rank_tol=DEFAULT_RANK_TOL):
    """Residual of the A-generalized dual frame conditions on idx.

    Tested on orthonormal bases b of span{f_m} and span{g_m} over idx:
    max over b of ||sum_m <b, g_m> f_m - A b|| and
    ||sum_m <b, f_m> g_m - conj(A) b||.

    ``rank_tol`` sets the span-rank cut; when verifying a numerically
    converged pair at tolerance t, pass rank_tol = t so that residual
    directions below t are not mistaken for genuine span directions.
    """
    idx = sorted(idx)
    if not idx:
        raise ValueError("index set must be nonempty")
    fv = pair.f.vectors[idx]
    gv = pair.g.vectors[idx]
    rank_tol = _scaled_rank_tol(rank_tol, fv, gv)
    f_basis, _ = linalg.orthonormal_span_basis(fv, rank_tol)
    g_basis, _ = linalg.orthonormal_span_basis(gv, rank_tol)
    return _a_dual_residual(fv, gv, f_basis, g_basis, a)


def _a_dual_residual(fv, gv, f_basis, g_basis, a):
    """The A-generalized dual residual of the rows fv, gv, tested on
    orthonormal bases of their spans (one basis vector per row)."""
    # row j of (B G^H) F is sum_m <b_j, g_m> f_m for the basis row b_j
    f_images = (f_basis @ gv.conj().T) @ fv - a * f_basis
    g_images = (g_basis @ fv.conj().T) @ gv - np.conj(a) * g_basis
    return float(max(np.linalg.norm(f_images, axis=1).max(initial=0.0),
                     np.linalg.norm(g_images, axis=1).max(initial=0.0)))


def principal_sqrt(z):
    """Square root with nonnegative real part (positive imaginary part on
    the negative real axis); numpy's principal branch."""
    return complex(np.sqrt(complex(z)))


@dataclass(frozen=True)
class NormalizedGroup:
    """A nonminimal eigenvalue group rescaled by w with w^2 = lambda.

    The systems {f_m / w} and {g_m / conj(w)} must be biorthogonal;
    ``biorthogonality_residual`` is max |<f_l/w, g_m/conj(w)> - delta_lm|.
    """

    indices: list
    eigenvalue: complex
    w: complex
    biorthogonality_residual: float


@dataclass(frozen=True)
class DecompositionReport:
    group: list  # the minimal-modulus index set I (0-based)
    complement: list
    a: complex  # sum_{m in I} alpha_m / dim span{f_m}_I
    dim_span: int
    group_eigenvalue: complex
    biorthogonality_residual: float  # complement, part (b)
    dual_frame_residual: float  # part (c) on both spans
    cross_orthogonality_residual: float  # part (c) first clause
    a_eigenvalue_gap: float  # |A - lambda_I|
    normalized_groups: list
    classification: EigenClassification = field(repr=False, default=None)


def decompose(pair: FramePair, spec: ConstraintSpec, cluster_tol=linalg.DEFAULT_CLUSTER_TOL,
              critical_tol=DEFAULT_CRITICAL_TOL):
    """Split a critical pair into the minimal-modulus eigenvalue group and
    its generalized-biorthogonal complement.

    Group choice follows the proof convention |lambda_I| <= |lambda_j|;
    ties go to the first cluster in the deterministic eigenvalue order.
    """
    spec.require_nonzero()
    cls = classify(pair, spec, cluster_tol=cluster_tol, critical_tol=critical_tol)

    moduli = [abs(v) for v in cls.distinct_eigenvalues]
    j_min = int(np.argmin(moduli))  # argmin takes the first on ties
    group = list(cls.index_sets[j_min])
    complement = sorted(set(range(pair.n)) - set(group))
    lam_group = cls.distinct_eigenvalues[j_min]

    f_basis, g_basis = cls.right_span_bases[j_min], cls.left_span_bases[j_min]
    dim_span = f_basis.shape[0]
    a = complex(np.sum(spec.alpha[group])) / dim_span

    bio_res = check_generalized_biorthogonal(pair, spec, complement)
    dual_res = _a_dual_residual(pair.f.vectors[group], pair.g.vectors[group], f_basis, g_basis, a)

    gram = frames.cross_gram(pair)
    if complement:
        cross = max(
            float(np.abs(gram[np.ix_(group, complement)]).max()),
            float(np.abs(gram[np.ix_(complement, group)]).max()),
        )
    else:
        cross = 0.0

    normalized = []
    for j, idx in enumerate(cls.index_sets):
        if j == j_min:
            continue
        lam = cls.distinct_eigenvalues[j]
        if lam == 0:
            continue  # cannot happen after the minimal-modulus choice, kept as a guard
        w = principal_sqrt(lam)
        sub = gram[np.ix_(idx, idx)] / lam  # <f_l/w, g_m/conj(w)> = <f_l,g_m> / lambda
        res = float(np.abs(sub - np.eye(len(idx))).max())
        normalized.append(
            NormalizedGroup(
                indices=list(idx),
                eigenvalue=lam,
                w=w,
                biorthogonality_residual=res,
            )
        )

    return DecompositionReport(
        group=group,
        complement=complement,
        a=a,
        dim_span=dim_span,
        group_eigenvalue=lam_group,
        biorthogonality_residual=bio_res,
        dual_frame_residual=dual_res,
        cross_orthogonality_residual=cross,
        a_eigenvalue_gap=float(abs(a - lam_group)),
        normalized_groups=normalized,
        classification=cls,
    )


REAL_PART_SUFFICES = "REAL_PART_SUFFICES"
IMAG_PART_SUFFICES = "IMAG_PART_SUFFICES"
BOTH_SUFFICE = "BOTH_SUFFICE"
NEITHER = "NEITHER"
NOT_INJECTIVE = "NOT_INJECTIVE"


def proposition_applicability(pair: FramePair, tol=1e-9):
    """Which single-part extremality hypothesis applies to this pair.

    NOT_INJECTIVE when the minimal eigenvalue modulus is negligible
    against the spectral radius; otherwise reports whether some
    eigenvalue has nonzero real part, imaginary part, or both.
    """
    eig = potential._spectrum(pair)
    radius = eig.spectral_radius
    if radius == 0.0 or float(np.min(np.abs(eig.values))) <= tol * radius:
        return NOT_INJECTIVE
    has_re = bool(np.any(np.abs(eig.values.real) > tol * (1.0 + np.abs(eig.values))))
    has_im = bool(np.any(np.abs(eig.values.imag) > tol * (1.0 + np.abs(eig.values))))
    if has_re and has_im:
        return BOTH_SUFFICE
    if has_re:
        return REAL_PART_SUFFICES
    if has_im:
        return IMAG_PART_SUFFICES
    return NEITHER


CONDITIONS_MET = "CONDITIONS_MET"
CONDITIONS_FAILED = "CONDITIONS_FAILED"


@dataclass(frozen=True)
class CorollaryReport:
    """Dual-pair existence conditions for the prescribed products."""

    spectrum_all_real: bool
    fp_value: complex
    fp_equals_d: bool
    re_alpha_sum_ge_d: bool
    alpha_sum_equals_d: bool  # the N > d equivalence condition
    is_dual_pair: bool
    dual_deviation: float
    verdict: str


def corollary_check(pair: FramePair, spec: ConstraintSpec, tol=1e-8):
    """Evaluate the dual-pair equivalence on a pair in S(alpha).

    The forward direction (a dual pair meets all three conditions) is a
    hard internal consistency check.
    """
    frames.require_membership(pair, spec)
    d = pair.d
    eig = potential._spectrum(pair)
    all_real = bool(np.all(np.abs(eig.values.imag) <= tol * (1.0 + np.abs(eig.values))))
    fp = fp_value = potential.fp_direct(pair).value
    fp_equals_d = abs(fp - d) <= tol * (1.0 + d)
    alpha_sum = complex(np.sum(spec.alpha))
    re_ge_d = alpha_sum.real >= d - tol
    sum_eq_d = abs(alpha_sum - d) <= tol * (1.0 + d)
    dual, deviation = frames.is_dual_pair(pair, tol)
    verdict = CONDITIONS_MET if (all_real and fp_equals_d and re_ge_d) else CONDITIONS_FAILED

    if dual and verdict != CONDITIONS_MET:
        raise NumericalFailureError(
            "internal check failed: a dual pair must satisfy all corollary conditions",
            residual=deviation,
        )

    return CorollaryReport(
        spectrum_all_real=all_real,
        fp_value=fp_value,
        fp_equals_d=bool(fp_equals_d),
        re_alpha_sum_ge_d=bool(re_ge_d),
        alpha_sum_equals_d=bool(sum_eq_d),
        is_dual_pair=bool(dual),
        dual_deviation=deviation,
        verdict=verdict,
    )
