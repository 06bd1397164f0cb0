"""Critical-pair detection and the structure of critical pairs.

A pair in S(alpha) is critical when for each m there is a scalar c with

    sum_{n != m} <f_m, g_n> f_n = c f_m     and
    sum_{n != m} <g_m, f_n> g_n = conj(c) g_m.

The left sums are TU* f_m - <f_m, g_m> f_m and its UT* mirror, so every
f_m of a critical pair is an eigenvector of TU* with eigenvalue
alpha_m + c_m (and g_m of UT* with the conjugate eigenvalue): the form
the residuals are measured in.  The indices split into eigenvalue groups
that are lambda_j-generalized dual frames, and the pair decomposes into a
minimal-modulus group plus a generalized biorthogonal complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import frames, linalg, potential
from .errors import (
    ClusterAmbiguityError,
    NotCriticalError,
    NumericalFailureError,
)
from .frames import ConstraintSpec, FramePair

DEFAULT_CRITICAL_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-10
DEFAULT_COROLLARY_TOL = 1e-8
PROPOSITION_TOL = 1e-9  # proposition_applicability's injectivity cut and real/imaginary guard


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


class _MeritTerms(NamedTuple):
    """What one pass of ``_merit_terms`` forms from M = TU*: a search
    iterate's whole record, and, kept as is, a search result's state to
    resume from.  It has no <f_m, g_m>: only the search's result and the
    critical report read it, each forming it once."""

    tu: np.ndarray  # M = TU* = F^T conj(G)
    u: np.ndarray  # F M^T: row m is TU* f_m
    gm: np.ndarray  # G conj(M): row m is UT* g_m
    lam: np.ndarray  # Rayleigh quotients <u_m, f_m> / ||f_m||^2
    rf: np.ndarray  # u - lam f
    rg: np.ndarray  # G conj(M) - conj(lam) g
    f_norms2: np.ndarray  # ||f_m||^2
    merit: float  # sum_m ||r_f,m||^2 + ||r_g,m||^2, zero exactly at critical pairs
    fp: complex  # FP = Tr(M^2)


def _merit_terms(fv, gv, tu=None, f_norms2=None, fp=None):
    """The critical-pair equations on raw (N, d) arrays with nonzero rows,
    from M = TU* = F^T conj(G) (unless given), as a ``_MeritTerms``;
    ``f_norms2`` is ||f_m||^2 and ``fp`` Tr(M^2) when the caller has already
    formed them from this F and this M.  A stack (K, N, d) of trials gives
    each field a leading axis K, bit for bit: the merit is summed one way,
    over each trial's residuals as one row of N d entries, for a pair and a
    stack alike.
    O(N d^2) time, O(N d + d^2) memory; the one kernel behind
    ``critical_report``, the optimizer's merit, FP and both its gradients."""
    if tu is None:
        tu = fv.swapaxes(-1, -2) @ gv.conj()
    if fp is None:
        fp = potential._fp_of_gram(tu)
    u = fv @ tu.swapaxes(-1, -2)
    gm = gv @ tu.conj()
    if f_norms2 is None:
        f_norms2 = np.vecdot(fv, fv).real
    lam = np.vecdot(fv, u) / f_norms2
    rf = u - lam[..., None] * fv
    rg = gm - lam.conj()[..., None] * gv
    rf2, rg2 = rf.reshape(*rf.shape[:-2], -1), rg.reshape(*rg.shape[:-2], -1)
    merit = np.vecdot(rf2, rf2).real + np.vecdot(rg2, rg2).real
    return _MeritTerms(tu, u, gm, lam, rf, rg, f_norms2, merit, fp)


class _Criticality(NamedTuple):
    f_residuals: np.ndarray  # ||r_f,m||, or None when the merit alone decided
    g_residuals: np.ndarray  # ||r_g,m||, likewise
    mixed_norm: float  # ||TU*||_F
    is_critical: bool


def _criticality(terms, tol, rows=True):
    """The one criticality rule, on one pair's ``_MeritTerms``: every row
    residual ||r_f,m||, ||r_g,m|| is at most tol (1 + ||TU*||_F).
    ``critical_report`` reports it and CRITICAL_SEARCH stops on it.  Without
    ``rows``, a merit above 2N times that bound squared (twice over, against
    rounding) decides "not critical" alone, since some row's squared residual
    is at least merit / 2N, for one d x d vdot and no row norms (None);
    within it the row norms decide, so the verdict is the report's bit for bit."""
    mixed_norm = float(np.sqrt(np.vdot(terms.tu, terms.tu).real))
    bound = tol * (1.0 + mixed_norm)
    if not rows and terms.merit > 4 * len(terms.lam) * bound * bound:
        return _Criticality(None, None, mixed_norm, False)
    f_res = np.sqrt(np.vecdot(terms.rf, terms.rf).real)
    g_res = np.sqrt(np.vecdot(terms.rg, terms.rg).real)
    return _Criticality(f_res, g_res, mixed_norm, bool(max(f_res.max(), g_res.max()) <= bound))


def critical_report(pair: FramePair, spec: ConstraintSpec, tol=DEFAULT_CRITICAL_TOL):
    """Fit c_m by least squares against f_m and measure both residuals,
    all indices at once through ``_merit_terms``, judged by ``_criticality``.

    The g-side residual is taken against conj(c_m), never against an
    independently fitted constant: the Lagrange analysis forces conjugate
    multipliers, and fitting the g side separately would mask a
    violation of that coupling.

    It checks alpha's length, S(alpha), then f_m, g_m != 0, and runs the
    kernel once per pair on its memoized TU* (on a search's final pair, the
    last iterate's), never reading the state a search result keeps to resume;
    c_m = lam_m - <f_m, g_m> takes the products, which the kernel does not
    form, from the pair's rows.
    """
    frames.require_membership(pair, spec)
    pair.require_nonzero()
    fv, gv = pair.f.vectors, pair.g.vectors
    terms = pair._derived("terms", lambda: _merit_terms(fv, gv, frames.mixed_operator(pair)))
    linalg.ensure_finite(terms.u, "TU* f_m")
    verdict = _criticality(terms, tol)
    return CriticalPairReport(
        c=terms.lam - np.vecdot(gv, fv),  # least-squares multiplier of TU* f_m - <f_m, g_m> f_m
        f_residuals=verdict.f_residuals,
        g_residuals=verdict.g_residuals,
        is_critical=verdict.is_critical,
        tol=tol,
        mixed_norm=verdict.mixed_norm,
    )


@dataclass(frozen=True)
class EigenClassification:
    """Index groups of a critical pair by eigenvalue cluster.

    ``distinct_eigenvalues[j]`` is the cluster mean; ``index_sets[j]`` the
    member indices (0-based).  The eigen residuals are the report's, at
    lam_m = <f_m, g_m> + c_m (alpha_m + c_m on S(alpha)).  Span bases are
    not built here: only the group ``decompose`` reports needs them.
    """

    distinct_eigenvalues: list
    index_sets: list
    assigned: np.ndarray  # cluster index per m
    per_index_eigenvalues: np.ndarray  # alpha_m + c_m
    f_eigen_residuals: np.ndarray
    g_eigen_residuals: np.ndarray
    cluster_radius: float


def classify(pair: FramePair, spec: ConstraintSpec, cluster_tol=linalg.DEFAULT_CLUSTER_TOL,
             critical_tol=DEFAULT_CRITICAL_TOL):
    """The eigenvalue groups of a critical pair.

    NotCriticalError unless ``critical_report`` finds the pair critical at
    critical_tol; then lam_m = alpha_m + c_m are clustered by
    ``linalg.cluster_complex`` at radius cluster_tol (1 + max_m |lam_m|),
    and a cluster wider than that radius (a chain of shorter steps) raises
    ClusterAmbiguityError.  A cluster's diameter is first bounded by the
    diagonal of its bounding box, in O(|S|); only a cluster whose box is
    wider than the radius is measured pair by pair, in row blocks, for the
    error's message.  Beyond the report's O(N d^2), the clustering's time;
    O(N d) memory, with no N x N or |S| x |S| array.
    """
    report = critical_report(pair, spec, tol=critical_tol)
    if not report.is_critical:
        raise NotCriticalError(
            f"pair is not critical: max residual {report.max_residual:.3e} exceeds "
            f"{critical_tol:.3e} * (1 + ||TU*||_F)",
            report=report,
        )

    lam = spec.alpha + report.c
    radius = linalg.cluster_radius(lam, cluster_tol)
    clusters = linalg.cluster_complex(lam, radius)
    for idx in clusters:
        z = lam[idx]
        re, im = z.real, z.imag
        # the diagonal of the cluster's bounding box bounds its diameter (rounding is
        # monotone), so only a wider box needs the pairwise maximum, taken in row blocks
        if np.hypot(re.max() - re.min(), im.max() - im.min()) <= radius:
            continue
        diameter = max(float(np.abs(z[rows, None] - z).max())
                       for rows in linalg._row_blocks(z.size, z.size))
        if diameter > radius:
            raise ClusterAmbiguityError(
                f"eigenvalue cluster {sorted(i + 1 for i in idx)} has diameter "
                f"{diameter:.3e} > clustering radius {radius:.3e}"
            )

    means = [complex(np.mean(lam[idx])) for idx in clusters]
    order = sorted(range(len(clusters)), key=lambda j: (-means[j].real, -means[j].imag))
    clusters = [clusters[j] for j in order]
    means = [means[j] for j in order]

    assigned = np.zeros(pair.n, dtype=int)
    for j, idx in enumerate(clusters):
        assigned[idx] = j

    return EigenClassification(
        distinct_eigenvalues=means,
        index_sets=clusters,
        assigned=assigned,
        per_index_eigenvalues=lam,
        f_eigen_residuals=report.f_residuals,
        g_eigen_residuals=report.g_residuals,
        cluster_radius=radius,
    )


def _block_residual(pair, rows, cols, diagonal=None):
    """max |C[rows, cols] - target|, 0 for an empty block: each residual of
    the structure theorem is one block (<f_m, g_n>) of the cross Gram C
    against its target, zero, or diag(``diagonal``) for a square block
    (rows = cols).  Only that block of C is formed, in the row blocks of
    ``linalg._row_blocks``, each against its rows of the target: O((|rows|
    + |cols|) d) memory, with no |rows| x |cols| array past 2**16 entries."""
    fv, gh = pair.f.vectors[rows], pair.g.vectors[cols].conj().T
    worst = 0.0
    for block in linalg._row_blocks(len(rows), len(cols)):
        c = fv[block] @ gh
        if diagonal is not None:  # row k of the block is row block.start + k of the target
            c = c - np.eye(len(c), len(cols), block.start) * diagonal[block, None]
        worst = max(worst, float(np.abs(c).max(initial=0.0)))
    return worst


def _index_set(pair, idx):
    """idx sorted, or ValueError naming an index outside 0..N-1 or one
    given twice."""
    idx = sorted(idx)
    for k, m in enumerate(idx):
        if not 0 <= m < pair.n:
            raise ValueError(f"index {m} is outside 0..{pair.n - 1}")
        if k and idx[k - 1] == m:
            raise ValueError(f"index {m} is given twice")
    return idx


def check_generalized_biorthogonal(pair: FramePair, spec: ConstraintSpec, idx):
    """Residual of the generalized biorthogonality conditions on idx:
    max of |<f_n, g_m>| over n != m and |<f_m, g_m> - alpha_m|.

    An empty index set and a singleton's off-diagonal part are vacuous.
    """
    spec.require_length(pair.n)
    idx = _index_set(pair, idx)
    spec.require_nonzero(idx)
    return _block_residual(pair, idx, idx, spec.alpha[idx])


def check_a_generalized_dual(pair: FramePair, idx, a, rank_tol=DEFAULT_RANK_TOL):
    """Residual of the A-generalized dual frame conditions on idx.

    The larger of the Frobenius norms of the matrices whose rows are
    sum_m <b, g_m> f_m - A b over an orthonormal basis b of span{f_m}, and
    sum_m <b, f_m> g_m - conj(A) b over one of span{g_m} (m in idx).  The
    Frobenius norm is the same for every orthonormal basis of a span, so
    the residual depends on the spans only.

    ``rank_tol`` sets the span-rank cut; when verifying a numerically
    converged pair at tolerance t, pass rank_tol = t so that residual
    directions below t are not mistaken for genuine span directions.
    """
    idx = _index_set(pair, idx)
    if not idx:
        raise ValueError("index set must be nonempty")
    return _a_dual_residual(*_span_bases(pair, idx, rank_tol), a)


def _span_bases(pair, idx, rank_tol):
    """(F_I, G_I, basis of span F_I, basis of span G_I) for the rows I =
    idx, each basis from ``linalg.orthonormal_span_basis`` at rank_tol,
    which scales the cut by max(1, largest row norm) of its own rows."""
    fv, gv = pair.f.vectors[idx], pair.g.vectors[idx]
    f_basis, _ = linalg.orthonormal_span_basis(fv, rank_tol)
    g_basis, _ = linalg.orthonormal_span_basis(gv, rank_tol)
    return fv, gv, f_basis, g_basis


def _a_dual_residual(fv, gv, f_basis, g_basis, a):
    """The A-generalized dual residual of the rows fv, gv on orthonormal
    bases of their spans (one basis vector per row): the Frobenius norm
    of each image matrix, which no change of basis alters."""
    # row j of (B G^H) F is sum_m <b_j, g_m> f_m for the basis row b_j
    f_images = (f_basis @ gv.conj().T) @ fv - a * f_basis
    g_images = (g_basis @ fv.conj().T) @ gv - np.conj(a) * g_basis
    return float(max(np.linalg.norm(f_images), np.linalg.norm(g_images)))


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
    complement = np.flatnonzero(cls.assigned != j_min).tolist()
    lam_group = cls.distinct_eigenvalues[j_min]

    fv, gv, f_basis, g_basis = _span_bases(pair, group, DEFAULT_RANK_TOL)
    dim_span = f_basis.shape[0]
    if dim_span == 0:
        raise NumericalFailureError(
            f"group I = {sorted(i + 1 for i in group)} spans no direction above the rank cut "
            f"{DEFAULT_RANK_TOL:.0e} * max(1, largest row norm)"
        )
    a = complex(np.sum(spec.alpha[group])) / dim_span

    bio_res = _block_residual(pair, complement, complement, spec.alpha[complement])
    dual_res = _a_dual_residual(fv, gv, f_basis, g_basis, a)
    cross = max(_block_residual(pair, group, complement), _block_residual(pair, complement, group))

    # C_jj / lambda = (<f_l/w, g_m/conj(w)>), w^2 = lambda, against I: |C_jj - lambda I| / |lambda|
    normalized = [
        NormalizedGroup(list(idx), lam, principal_sqrt(lam),
                        _block_residual(pair, idx, idx, np.full(len(idx), lam)) / abs(lam))
        for j, (idx, lam) in enumerate(zip(cls.index_sets, cls.distinct_eigenvalues))
        if j != j_min
    ]

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


def proposition_applicability(pair: FramePair):
    """Which single-part extremality hypothesis applies to this pair.

    NOT_INJECTIVE when the minimal eigenvalue modulus is negligible
    against the spectral radius; otherwise reports whether some
    eigenvalue has nonzero real part, imaginary part, or both.
    """
    eig = potential._spectrum(pair)
    radius = float(np.abs(eig.values).max())
    if radius == 0.0 or float(np.min(np.abs(eig.values))) <= PROPOSITION_TOL * radius:
        return NOT_INJECTIVE
    is_real, is_imag = potential._real_and_imaginary(eig.values, PROPOSITION_TOL)
    has_re, has_im = not is_imag.all(), not is_real.all()
    if has_re and has_im:
        return BOTH_SUFFICE
    if has_re:
        return REAL_PART_SUFFICES
    if has_im:
        return IMAG_PART_SUFFICES
    return NEITHER


CONDITIONS_MET = "CONDITIONS_MET"
CONDITIONS_FAILED = "CONDITIONS_FAILED"


def _alpha_sum_conditions(alpha, d, tol):
    """(sum alpha, sum alpha = d, Re sum alpha >= d), both tests to
    within tol: the conditions on the products alone."""
    total = complex(np.sum(alpha))
    return total, bool(abs(total - d) <= tol * (1.0 + d)), bool(total.real >= d - tol)


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


def corollary_check(pair: FramePair, spec: ConstraintSpec, tol=DEFAULT_COROLLARY_TOL):
    """Evaluate the dual-pair equivalence on a pair in S(alpha).

    The forward direction (a dual pair meets all three conditions) is a
    hard internal consistency check.
    """
    frames.require_membership(pair, spec)
    d = pair.d
    eig = potential._spectrum(pair)
    all_real = bool(potential._real_and_imaginary(eig.values, tol)[0].all())
    fp = potential._fp_of_gram(frames.mixed_operator(pair))
    fp_equals_d = abs(fp - d) <= tol * (1.0 + d)
    _, sum_eq_d, re_ge_d = _alpha_sum_conditions(spec.alpha, d, tol)
    dual, deviation = frames.is_dual_pair(pair, tol)
    verdict = CONDITIONS_MET if (all_real and fp_equals_d and re_ge_d) else CONDITIONS_FAILED

    if dual and verdict != CONDITIONS_MET:
        raise NumericalFailureError(
            "internal check failed: a dual pair must satisfy all corollary conditions",
            residual=deviation,
        )

    return CorollaryReport(
        spectrum_all_real=all_real,
        fp_value=fp,
        fp_equals_d=bool(fp_equals_d),
        re_alpha_sum_ge_d=bool(re_ge_d),
        alpha_sum_equals_d=bool(sum_eq_d),
        is_dual_pair=bool(dual),
        dual_deviation=deviation,
        verdict=verdict,
    )
