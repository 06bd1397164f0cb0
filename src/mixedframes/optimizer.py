"""Search the prescribed inner-product set for critical and dual pairs.

Two modes:

* POTENTIAL_DESCENT descends the real or imaginary part of the potential
  with tangent-projected gradient steps and exact retraction.  The
  restricted potential is in general unbounded below, so divergence is a
  reported outcome, not a failure.
* CRITICAL_SEARCH descends the merit function (summed squared residuals
  of the critical-pair equations, multipliers eliminated by least
  squares) composed with the retraction, along its exact gradient from
  one hand-written reverse-mode sweep.  The merit is bounded below by 0
  and vanishes exactly at critical pairs.

Both use fixed-step descent with backtracking halving (factor 0.5, up to
30 halvings).  Restarts are independent: restart k uses seed ``seed + k``
and the reported result never depends on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import frames, structure
from .errors import DegeneratePairingError, MixedFramesError, ZeroVectorError
from .frames import ConstraintSpec, Field, FramePair, FrameSequence

POTENTIAL_DESCENT = "POTENTIAL_DESCENT"
CRITICAL_SEARCH = "CRITICAL_SEARCH"
REAL_PART = "REAL_PART"
IMAG_PART = "IMAG_PART"

CONVERGED = "CONVERGED"
MAX_ITERS = "MAX_ITERS"
DIVERGED = "DIVERGED"
DEGENERATE_RETRACTION = "DEGENERATE_RETRACTION"

_BACKTRACK_LIMIT = 30
_RERANDOMIZE_BUDGET = 3


@dataclass(frozen=True)
class OptimizerConfig:
    mode: str = CRITICAL_SEARCH
    objective: str = REAL_PART  # POTENTIAL_DESCENT only
    step_size: float = 0.25
    max_iters: int = 5000
    grad_tol: float = 1e-8
    merit_tol: float = 1e-16
    divergence_bound: float = 1e9
    seed: int = 0
    restarts: int = 0

    def __post_init__(self):
        if self.mode not in (POTENTIAL_DESCENT, CRITICAL_SEARCH):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.objective not in (REAL_PART, IMAG_PART):
            raise ValueError(f"unknown objective {self.objective!r}")
        if not (0 < self.step_size <= 1):
            raise ValueError("step_size must lie in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for name in ("grad_tol", "merit_tol", "divergence_bound"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")

    def to_dict(self):
        return {
            "mode": self.mode,
            "objective": self.objective,
            "step_size": self.step_size,
            "max_iters": self.max_iters,
            "grad_tol": self.grad_tol,
            "merit_tol": self.merit_tol,
            "divergence_bound": self.divergence_bound,
            "seed": self.seed,
            "restarts": self.restarts,
        }

    @classmethod
    def from_dict(cls, obj):
        return cls(**obj)


@dataclass(frozen=True)
class SearchResult:
    final_pair: FramePair
    objective_history: list
    merit_history: list
    constraint_residual_final: float
    critical_report_final: structure.CriticalPairReport
    status: str
    restart_seed: int = 0
    dual_deviation: float = field(default=np.inf)


def fp_gradient(pair: FramePair, objective=REAL_PART):
    """Analytic gradient of Re or Im of the potential.

    Arrays of shape (N, d) whose entry encodes the derivative with
    respect to the real component plus i times the derivative with
    respect to the imaginary component.  Over R the imaginary parts are
    identically zero.  The directional derivative along a perturbation
    (df, dg) in the same encoding is Re(sum conj(grad) * d).
    """
    fv, gv = pair.f.vectors, pair.g.vectors
    c = frames.cross_gram(pair)
    # holomorphic derivative w.r.t. f_m[k]:    2 sum_n conj(g_n[k]) C[n, m]
    # anti-holomorphic derivative (conj g):    2 sum_n f_n[k] C[m, n]
    df = 2.0 * (c.T @ gv.conj())  # row m = derivative for f_m
    dg_bar = 2.0 * (c @ fv)  # row m = derivative for conj(g_m)
    if objective == REAL_PART:
        gf, gg = df.conj(), dg_bar
    elif objective == IMAG_PART:
        gf, gg = 1j * df.conj(), -1j * dg_bar
    else:
        raise ValueError(f"unknown objective {objective!r}")
    if pair.field is Field.REAL:
        gf = gf.real.astype(np.complex128)
        gg = gg.real.astype(np.complex128)
    return gf, gg


def constraint_gradients(pair: FramePair, m):
    """Real-coordinate gradients of Re<f_m, g_m> and Im<f_m, g_m>.

    Each is a (df_m, dg_m) direction in the fp_gradient encoding; only
    the block of index m is nonzero.  Over R the imaginary-part
    constraint is vacuous and only the first direction is returned.
    """
    fm, gm = pair.f.vectors[m], pair.g.vectors[m]
    dirs = [(gm, fm)]
    if pair.field is Field.COMPLEX:
        dirs.append((1j * gm, -1j * fm))
    return dirs


def project_to_tangent(pair: FramePair, gf, gg):
    """Project a gradient onto the tangent space of S(alpha).

    The constraint gradients of distinct indices touch disjoint blocks
    and the two directions of one index are orthogonal in the real inner
    product, so the projection is a per-index subtraction.
    """
    gf = np.array(gf, dtype=np.complex128)
    gg = np.array(gg, dtype=np.complex128)
    for m in range(pair.n):
        for vf, vg in constraint_gradients(pair, m):
            nn = np.vdot(vf, vf).real + np.vdot(vg, vg).real
            if nn == 0.0:
                continue
            coef = (np.vdot(vf, gf[m]).real + np.vdot(vg, gg[m]).real) / nn
            gf[m] = gf[m] - coef * vf
            gg[m] = gg[m] - coef * vg
    if pair.field is Field.REAL:
        gf = gf.real.astype(np.complex128)
        gg = gg.real.astype(np.complex128)
    return gf, gg


def merit(pair: FramePair):
    """Summed squared residual of the critical-pair equations, with the
    multiplier of each index eliminated by the same least-squares rule
    the checker uses.  Zero exactly at critical pairs."""
    fv = pair.f.vectors
    gv = pair.g.vectors
    f_norms2 = np.sum(np.abs(fv) ** 2, axis=1)
    if np.any(f_norms2 == 0) or not np.all(np.sum(np.abs(gv) ** 2, axis=1) > 0):
        raise ZeroVectorError("merit needs nonzero f_m and g_m")
    *_, rf, rg = _merit_terms(fv, gv)
    return float(np.sum(np.abs(rf) ** 2) + np.sum(np.abs(rg) ** 2))


def _merit_terms(fv, gv):
    """(C, s, c, r_f, r_g) of the merit on raw (N, d) arrays with nonzero
    rows: cross Gram, partial sums s, least-squares multipliers c and the
    residuals r_f = s - c f, r_g = t - conj(c) g."""
    cg, s, t = structure._partial_sums(fv, gv)
    c = np.sum(s * fv.conj(), axis=1) / np.sum(np.abs(fv) ** 2, axis=1)
    rf = s - c[:, None] * fv
    rg = t - c.conj()[:, None] * gv
    return cg, s, c, rf, rg


def _fp_scalar(pair):
    c = frames.cross_gram(pair)
    return complex(np.sum(c * c.T))


def _objective_part(fp, objective):
    return fp.real if objective == REAL_PART else fp.imag


def _retract_with_recovery(pair, spec, rng):
    """Retract; on a degenerate pairing re-randomize the offending g_m
    (up to the per-index budget) before giving up."""
    attempts = {}
    while True:
        try:
            return frames.retract_to_constraint(pair, spec)
        except DegeneratePairingError as exc:
            m = exc.index
            attempts[m] = attempts.get(m, 0) + 1
            if attempts[m] > _RERANDOMIZE_BUDGET:
                raise
            gv = pair.g.vectors.copy()
            if pair.field is Field.REAL:
                gv[m] = rng.standard_normal(pair.d)
            else:
                gv[m] = rng.standard_normal(pair.d) + 1j * rng.standard_normal(pair.d)
            pair = FramePair(pair.f, FrameSequence(pair.field, gv))


def _merit_and_gradient(fv, gv, alpha, is_real):
    """merit(retract(F, G)) and its gradient on raw (N, d) arrays.

    The gradient is in the fp_gradient encoding (derivative with respect
    to the real component plus i times that with respect to the imaginary
    component; real part only over R).  It is one hand-written
    reverse-mode sweep: each ``x_bar`` below is dL/dRe x + i dL/dIm x for
    the intermediate x, so a product y = a * b sends y_bar * conj(b) to
    a_bar and y = conj(x) sends conj(y_bar) to x_bar.  Memory is
    O(N^2 + N d).  The caller guarantees <f_m, g_m> != 0.
    """
    if is_real:
        alpha = alpha.real  # retraction over R keeps only the real part of the rescaling
    # forward: the retraction, then the terms of `merit`
    ip = np.sum(fv * gv.conj(), axis=1)
    q = alpha / ip
    gr = gv * q.conj()[:, None]
    cg, s, c, rf, rg = _merit_terms(fv, gr)
    value = float(np.sum(np.abs(rf) ** 2) + np.sum(np.abs(rg) ** 2))
    f_norms2 = np.sum(np.abs(fv) ** 2, axis=1)
    c0 = cg.copy()
    np.fill_diagonal(c0, 0.0)  # s = C0 F and t = C0^H G_r: sums over n != m only

    # backward; c = num / |f|^2 with num_m = sum_k s_m[k] conj(f_m[k])
    rf_bar, rg_bar = 2.0 * rf, 2.0 * rg
    c_bar = -np.sum(rf_bar * fv.conj(), axis=1) - np.sum(rg_bar.conj() * gr, axis=1)
    f_bar = -c.conj()[:, None] * rf_bar
    gr_bar = -c[:, None] * rg_bar
    num_bar = c_bar / f_norms2
    norms2_bar = -np.real(c_bar * c.conj()) / f_norms2
    s_bar = rf_bar + num_bar[:, None] * fv
    f_bar += num_bar.conj()[:, None] * s + 2.0 * norms2_bar[:, None] * fv
    gr_bar += c0 @ rg_bar
    # adjoint of C off its diagonal; the merit does not depend on diag(C)
    c0_bar = s_bar @ fv.conj().T + gr @ rg_bar.conj().T
    np.fill_diagonal(c0_bar, 0.0)
    f_bar += c0.conj().T @ s_bar + c0_bar @ gr
    gr_bar += c0_bar.conj().T @ fv
    g_bar = gr_bar * q[:, None]
    q_bar = np.sum(gr_bar.conj() * gv, axis=1)  # through gr = gv * conj(q)
    ip_bar = -q_bar * (q / ip).conj()
    f_bar += ip_bar[:, None] * gv
    g_bar += ip_bar.conj()[:, None] * fv
    if is_real:
        f_bar = f_bar.real.astype(np.complex128)
        g_bar = g_bar.real.astype(np.complex128)
    return value, f_bar, g_bar


def _step(pair, gf, gg, step):
    fv = pair.f.vectors - step * gf
    gv = pair.g.vectors - step * gg
    if pair.field is Field.REAL:
        fv = fv.real.astype(np.complex128)
        gv = gv.real.astype(np.complex128)
    return FramePair(FrameSequence(pair.field, fv), FrameSequence(pair.field, gv))


def _finish(pair, spec, status, obj_hist, merit_hist, seed):
    try:
        report = structure.critical_report(pair, spec, tol=structure.DEFAULT_CRITICAL_TOL)
    except MixedFramesError:
        report = None  # e.g. round-off pushed a diverged iterate off the constraint
    _, deviation = frames.is_dual_pair(pair)
    return SearchResult(
        final_pair=pair,
        objective_history=obj_hist,
        merit_history=merit_hist,
        constraint_residual_final=float(frames.constraint_residual(pair, spec).max()),
        critical_report_final=report,
        status=status,
        restart_seed=seed,
        dual_deviation=deviation,
    )


def _run_single(spec, field_, d, cfg, seed, initial_pair=None):
    rng = np.random.default_rng(seed)
    if initial_pair is None:
        pair = frames.random_pair(field_, d, spec.n, seed)
    else:
        pair = initial_pair
    try:
        pair = _retract_with_recovery(pair, spec, rng)
    except DegeneratePairingError:
        return _finish_degenerate(pair, spec, seed)

    obj_hist = []
    merit_hist = []
    objective = cfg.objective
    is_real = pair.field is Field.REAL
    m0 = merit(pair)
    fp0 = _fp_scalar(pair)
    o0 = _objective_part(fp0, objective)

    for _ in range(cfg.max_iters):
        obj_hist.append(o0)
        merit_hist.append(m0)

        if abs(fp0) > cfg.divergence_bound:
            return _finish(pair, spec, DIVERGED, obj_hist, merit_hist, seed)

        if cfg.mode == CRITICAL_SEARCH:
            if m0 <= cfg.merit_tol:
                return _finish(pair, spec, CONVERGED, obj_hist, merit_hist, seed)
            _, gf, gg = _merit_and_gradient(pair.f.vectors, pair.g.vectors, spec.alpha, is_real)
            improved = False
            step = cfg.step_size
            for _ in range(_BACKTRACK_LIMIT):
                try:
                    trial = _retract_with_recovery(_step(pair, gf, gg, step), spec, rng)
                except DegeneratePairingError:
                    return _finish_degenerate(pair, spec, seed, obj_hist, merit_hist)
                m1 = merit(trial)
                if m1 < m0:
                    pair, m0 = trial, m1
                    fp0 = _fp_scalar(pair)
                    o0 = _objective_part(fp0, objective)
                    improved = True
                    break
                step *= 0.5
            if not improved:
                # no step along the exact gradient lowers the merit: round-off floor
                status = CONVERGED if m0 <= cfg.merit_tol else MAX_ITERS
                return _finish(pair, spec, status, obj_hist, merit_hist, seed)
        else:  # POTENTIAL_DESCENT
            gf, gg = fp_gradient(pair, objective)
            pf, pg = project_to_tangent(pair, gf, gg)
            gnorm = float(np.sqrt(np.vdot(pf, pf).real + np.vdot(pg, pg).real))
            if gnorm <= cfg.grad_tol:
                return _finish(pair, spec, CONVERGED, obj_hist, merit_hist, seed)
            improved = False
            step = cfg.step_size
            for _ in range(_BACKTRACK_LIMIT):
                try:
                    trial = _retract_with_recovery(_step(pair, pf, pg, step), spec, rng)
                except DegeneratePairingError:
                    return _finish_degenerate(pair, spec, seed, obj_hist, merit_hist)
                fp1 = _fp_scalar(trial)
                o1 = _objective_part(fp1, objective)
                if o1 < o0:
                    pair, fp0, o0 = trial, fp1, o1
                    m0 = merit(pair)
                    improved = True
                    break
                step *= 0.5
            if not improved:
                return _finish(pair, spec, MAX_ITERS, obj_hist, merit_hist, seed)

    obj_hist.append(o0)
    merit_hist.append(m0)
    if cfg.mode == CRITICAL_SEARCH and m0 <= cfg.merit_tol:
        return _finish(pair, spec, CONVERGED, obj_hist, merit_hist, seed)
    return _finish(pair, spec, MAX_ITERS, obj_hist, merit_hist, seed)


def _finish_degenerate(pair, spec, seed, obj_hist=None, merit_hist=None):
    _, deviation = frames.is_dual_pair(pair)
    return SearchResult(
        final_pair=pair,
        objective_history=obj_hist or [],
        merit_history=merit_hist or [],
        constraint_residual_final=float("inf"),
        critical_report_final=None,
        status=DEGENERATE_RETRACTION,
        restart_seed=seed,
        dual_deviation=deviation,
    )


_STATUS_RANK = {CONVERGED: 0, MAX_ITERS: 1, DIVERGED: 2, DEGENERATE_RETRACTION: 3}


def _result_key(res):
    # Prefer converged runs; among those, the pair closest to a dual pair
    # (the module exists to find dual pairs when they exist), then the
    # smaller merit.  Ties resolve by restart seed, so the outcome is
    # independent of execution order.
    last_merit = res.merit_history[-1] if res.merit_history else np.inf
    return (_STATUS_RANK[res.status], res.dual_deviation, last_merit, res.restart_seed)


def search(spec: ConstraintSpec, field_: Field, d, cfg: OptimizerConfig, initial_pair=None):
    """Run the configured search with restarts and return the best result.

    Restart k draws its starting pair from seed ``cfg.seed + k``; an
    explicitly supplied ``initial_pair`` is used for the base restart
    only.  Results are ranked by (status, duality deviation, merit).
    """
    spec.require_nonzero()
    results = []
    for k in range(cfg.restarts + 1):
        start = initial_pair if k == 0 else None
        results.append(_run_single(spec, field_, d, cfg, cfg.seed + k, initial_pair=start))
    return min(results, key=_result_key)
