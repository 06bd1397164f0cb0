"""Search the prescribed inner-product set for critical and dual pairs.

Two modes:

* POTENTIAL_DESCENT descends the real or imaginary part of the potential
  with tangent-projected gradient steps and exact retraction.  The
  restricted potential is in general unbounded below, so divergence is a
  reported outcome, not a failure.
* CRITICAL_SEARCH descends the merit function (summed squared residuals
  of the critical-pair equations, multipliers eliminated by least
  squares) composed with the retraction, along its exact gradient from
  one hand-written reverse-mode sweep, which takes the retraction's
  rescaling as 1 and r_f,m as orthogonal to f_m, as they are on S(alpha)
  to round-off.  The merit is bounded below by 0 and vanishes exactly at
  critical pairs.  The search stops CONVERGED at its first iterate that
  ``structure.critical_report`` calls critical (``structure._criticality``
  at DEFAULT_CRITICAL_TOL), tested before the divergence bound.

Both backtrack along the ladder step, step / 2, ..., step / 2^29 to its
first trial that strictly lowers the merit or the objective, starting at
the Polyak step merit / ||grad||^2 (CRITICAL_SEARCH: the merit's least
value, 0, is known) or at 1 / sqrt(2 max |eps_m|), where no pairing
alpha_m (1 + t^2 eps_m) of the tangent ray has moved by more than
alpha_m / 2 (POTENTIAL_DESCENT); both scale with the problem.  The loop
works from the d x d mixed operator M = TU*, in O(N d^2) time and
O(N d + d^2) memory, never from the N x N cross Gram: a trial is priced
at FP = Tr(M^2), and in CRITICAL_SEARCH by the residual kernel
``structure._merit_terms`` on that M, which descent runs only on the
accepted trial.  The kernel's output is the loop's whole record of the
iterate: merit, FP, and the u = F M^T, G conj(M) and ||f_m||^2 the
gradients and the tangent projection read; ``search`` keeps the last
output as is on the pair it returns, keyed by alpha's bytes (four
N x d arrays, M and two N-vectors per result), so a search on the same
alpha from that pair takes it as its start's: it skips the start's
zero-row check, retraction and kernel pass and continues the run bit for
bit.
That pair's vectors are the loop's last arrays, frozen in place; they
are scanned for inf and NaN only if the last merit is not finite, as a
non-finite entry would make it.
The loop's gradients are halves, so no doubled copy is formed:
``_fp_gradient`` gives G conj(M), F M^T and ``_merit_gradient`` sweeps
back from r_f, r_g, not from twice them.  The steps take the 2: along the
half gradient h, CRITICAL_SEARCH's Polyak step is 0.5 (merit / ||h||^2);
descent's first steps scale as 1 / ||h|| and double by themselves, and
its stop compares ||h|| with GRAD_TOL / 2.  Power-of-two scaling is exact,
so every trial is that of the whole gradient bit for bit, unless a
gradient entry is subnormal.
At small sizes a trial costs NumPy call overhead, so the ladder is priced
K = min(8, max(1, _STACK_ELEMENTS // (N d))) trials at a time, in blocks
of 8, 8, 8 and 6 rungs at K = 8: one step, retraction, M and kernel pass
or FP on (K, N, d) arrays, each trial's slice bit-identical to its (N, d)
call; at K = 1 a lone (N, d) trial.  A block costs the flops of K trials.
Per CRITICAL_SEARCH iteration over restarts of up to 1000 (d = 2), 300
(d = 8, 16) and 30 (d = 64) iterations (alpha = d/N, seeds 0-4 pooled,
1 BLAS thread, median of 8 rounds) against K = 1, R / C:

    (d, N)  (2, 4)     (8, 24)    (8, 48)    (16, 48)   (64, 192)
    K = 2   0.80/0.81  0.77/0.89  0.89/1.04  0.88/1.02  1.31/1.27
    K = 4   0.61/0.65  0.62/0.77  0.79/1.45  0.85/0.93  1.83/1.89
    K = 8   0.65/0.68  0.60/1.08  1.03/1.97  1.22/1.34  3.38/3.57

so K = 4 pays up to N d = 192 over both fields (_STACK_ELEMENTS = 4 x 192)
and K = 8 only below it.  These (2, 4) restarts seldom accept a trial past
the fourth, so K = 8 costs them its larger block; on the 32 restarts of
the digest's outcome table, where 41% of the iterations accept rung 4, 5
or 6, it makes one kernel pass an iteration against 1.41 at K = 4.
A pairing the retraction cannot rescale (<f_m, g_m> near 0), at the start
or in a trial behind only rejected ones, ends the restart as
DEGENERATE_RETRACTION; nothing is redrawn.
Restarts are independent: restart k uses seed ``seed + k`` and
the reported result never depends on execution order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import frames, potential, structure
from .errors import (
    DegeneratePairingError,
    DimensionMismatchError,
    NumericalFailureError,
)
from .frames import ConstraintSpec, Field, FramePair, FrameSequence

POTENTIAL_DESCENT = "POTENTIAL_DESCENT"
CRITICAL_SEARCH = "CRITICAL_SEARCH"
REAL_PART = "REAL_PART"
IMAG_PART = "IMAG_PART"

CONVERGED = "CONVERGED"
MAX_ITERS = "MAX_ITERS"
DIVERGED = "DIVERGED"
DEGENERATE_RETRACTION = "DEGENERATE_RETRACTION"

GRAD_TOL = 1e-8  # POTENTIAL_DESCENT converges at or below this tangent gradient norm
_BACKTRACK_LIMIT = 30
_STACK_ELEMENTS = 768  # a backtracking block stacks min(8, this // (N d)) trials, at least 1
_LADDER = 0.5 ** np.arange(_BACKTRACK_LIMIT)
_LADDER.setflags(write=False)
# the ladder in blocks of K = 1, ..., 8 trials (the cap is this table's length),
# each a lone trial's scalar at K = 1
_LADDER_BLOCKS = {k: [_LADDER[i:i + k, None, None] if k > 1 else _LADDER[i]
                      for i in range(0, _BACKTRACK_LIMIT, k)] for k in range(1, 9)}


@dataclass(frozen=True)
class OptimizerConfig:
    mode: str = CRITICAL_SEARCH
    objective: str = REAL_PART  # Re or Im FP: descent lowers it, both modes record it
    max_iters: int = 5000
    divergence_bound: float = 1e9
    seed: int = 0
    restarts: int = 0

    def __post_init__(self):
        if self.mode not in (POTENTIAL_DESCENT, CRITICAL_SEARCH):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.objective not in (REAL_PART, IMAG_PART):
            raise ValueError(f"unknown objective {self.objective!r}")
        for name, least in (("max_iters", 1), ("seed", 0), ("restarts", 0)):
            value = getattr(self, name)  # a bool is no count; a NumPy integer is
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not self.divergence_bound > 0:  # also rejects NaN
            raise ValueError("divergence_bound must be positive")


@dataclass(frozen=True)
class SearchResult:
    """A restart's outcome.  Its two verdicts on ``final_pair`` are formed on
    first read, so a slice that no caller asks them of pays for neither."""

    final_pair: FramePair
    objective_history: list
    merit_history: list
    status: str
    restart_seed: int
    _spec: ConstraintSpec = field(repr=False, compare=False)

    @functools.cached_property
    def constraint_residual_final(self):
        """max |<f_m, g_m> - alpha_m| over the final pair, inf after DEGENERATE_RETRACTION."""
        if self.status == DEGENERATE_RETRACTION:
            return float("inf")
        return float(frames.constraint_residual(self.final_pair, self._spec).max())

    @functools.cached_property
    def dual_deviation(self):
        """||TU* - I||_F of the final pair, as ``frames.is_dual_pair`` gives it."""
        return frames.is_dual_pair(self.final_pair)[1]


def fp_gradient(pair: FramePair, objective=REAL_PART):
    """Analytic gradient of Re or Im of the potential.

    Arrays of shape (N, d), in the dtype of the pair's vectors, whose
    entry encodes the derivative with respect to the real component plus
    i times the derivative with respect to the imaginary component (a
    real pair has no imaginary components).  The directional derivative
    along a perturbation (df, dg) in the same encoding is
    Re(sum conj(grad) * d).
    """
    tu = frames.mixed_operator(pair)
    return _fp_gradient(2.0 * (pair.f.vectors @ tu.T), 2.0 * (pair.g.vectors @ tu.conj()),
                        objective)


def _fp_gradient(u, gm, objective):
    """Half of ``fp_gradient``, from u = F M^T and G conj(M), M = TU*, as the
    kernel forms them (the loop's steps take the 2)."""
    # FP = Tr(M^2), M = sum_m f_m g_m^*: its holomorphic derivative w.r.t. f_m is
    # 2 M^T conj(g_m) = conj(row m of 2 G conj(M)), w.r.t. conj(g_m) 2 M f_m = row m of 2 u
    if objective == REAL_PART:
        return gm, u
    if objective != IMAG_PART:
        raise ValueError(f"unknown objective {objective!r}")
    if not np.iscomplexobj(u):  # Im FP vanishes identically on a real pair
        return np.zeros_like(u), np.zeros_like(gm)
    return 1j * gm, -1j * u


def project_to_tangent(pair: FramePair, gf, gg):
    """Project a gradient onto the tangent space of S(alpha).

    The constraint directions of index m are the gradients of
    Re<f_m, g_m> and Im<f_m, g_m> in real coordinates: (g_m, f_m) and
    (i g_m, -i f_m) in the fp_gradient encoding, only the first over R.
    Those of distinct indices touch disjoint blocks and the two of one
    index are orthogonal in the real inner product, so both coefficients
    of every index come from the unmodified rows in one pass.  An index
    with f_m = g_m = 0 has no constraint direction and is left unchanged.
    Over R only the real part of the gradient is a direction on the
    real pair, so the result is real.
    """
    if pair.field is Field.REAL:
        gf, gg = np.real(gf), np.real(gg)
    fv = pair.f.vectors
    return _project_to_tangent(fv, pair.g.vectors, gf, gg, np.vecdot(fv, fv).real)


def _project_to_tangent(fv, gv, gf, gg, f_norms2):
    """``project_to_tangent`` on raw (N, d) arrays and their ||f_m||^2; real
    arrays (a pair over R) have only the real-part constraint directions."""
    nn = f_norms2 + np.vecdot(gv, gv).real
    # <gf_m, g_m> + conj(<gg_m, f_m>): its real part is the real inner
    # product with (g_m, f_m), its imaginary part that with (i g_m, -i f_m)
    ip = np.vecdot(gv, gf) + np.vecdot(gg, fv)
    coef = np.divide(ip, nn, out=np.zeros_like(ip), where=nn != 0.0)
    return gf - coef[:, None] * gv, gg - coef.conj()[:, None] * fv


def merit(pair: FramePair):
    """Summed squared residual of the critical-pair equations, with the
    multiplier of each index eliminated by the same least-squares rule
    the checker uses.  Zero exactly at critical pairs."""
    pair.require_nonzero()
    return float(structure._merit_terms(pair.f.vectors, pair.g.vectors).merit)


def _objective_part(fp, objective):
    return fp.real if objective == REAL_PART else fp.imag


def _merit_gradient(fv, gv, alpha_c, terms):
    """Half the gradient of merit(retract(F, G)) at a pair (F, G) of raw
    (N, d) arrays already on S(alpha), from its ``_merit_terms`` output
    ``terms`` and alpha_c = conj(alpha).

    The gradient is in the fp_gradient encoding (derivative with respect
    to the real component plus i times that with respect to the imaginary
    component), real for real arrays and alpha.  It is the reverse sweep
    of one hand-written reverse-mode pass: each ``x_bar`` below is
    dL/dRe x + i dL/dIm x for the intermediate x, so a product y = a * b
    sends y_bar * conj(b) to a_bar and y = conj(x) sends conj(y_bar) to
    x_bar.  The forward is not run again, and the sweep takes two facts
    of the point it starts from, each exact up to round-off: on S(alpha)
    the retraction ``frames._retraction`` rescales G by q = alpha / ip = 1,
    so its output G_r is G and ip = <f_m, g_m> enters only through
    alpha; and at the least-squares lam, r_f,m is orthogonal to f_m, so
    r_f sends nothing to lam.  The sweep runs through M = TU* like the
    kernel, in O(N d^2) time and O(N d + d^2) memory.  It starts from
    r_f, r_g, half of the merit's r_f_bar = 2 r_f, r_g_bar = 2 r_g, so
    every ``x_bar`` below, and the result, is half.
    """
    tu, u, lam, rf, rg, f_norms2 = terms.tu, terms.u, terms.lam, terms.rf, terms.rg, terms.f_norms2
    lam_c = lam.conj()

    # backward through r_f = u - lam f, r_g = G_r conj(M) - conj(lam) G_r
    # and lam = num / |f|^2 with num_m = sum_k u_m[k] conj(f_m[k])
    rf_bar, rg_bar = rf, rg
    lam_bar = -np.vecdot(rg_bar, gv)
    num_bar = lam_bar / f_norms2
    norms2_bar = -np.real(lam_bar * lam_c) / f_norms2
    u_bar = rf_bar + num_bar[:, None] * fv
    # through u = F M^T, r_g and M = F^T conj(G_r)
    tu_bar = u_bar.T @ fv.conj() + gv.T @ rg_bar.conj()
    f_bar = (num_bar.conj()[:, None] * u - lam_c[:, None] * rf_bar
             + 2.0 * norms2_bar[:, None] * fv + u_bar @ tu.conj() + gv @ tu_bar.T)
    g_bar = rg_bar @ tu.T - lam[:, None] * rg_bar + fv @ tu_bar.conj()
    # through the retraction G_r = G * conj(alpha / <f_m, g_m>) at q = 1
    ip_bar = -np.vecdot(g_bar, gv) / alpha_c
    f_bar += ip_bar[:, None] * gv
    g_bar += ip_bar.conj()[:, None] * fv
    return f_bar, g_bar


def _accepted(fv, gv, f_norms2, best, critical, objective):
    """(F, G, kernel output) of a block's first trial, in ladder order, that
    lowers the iterate's merit (CRITICAL_SEARCH) or objective (descent),
    else None.  A block is (K, N, d) arrays, G cut before a degenerate
    trial, or a lone (N, d) trial, with the ||f_m||^2 of all of F.
    CRITICAL_SEARCH prices it in one kernel pass and slices the accepted
    output, descent at Tr(M^2) per trial."""
    fv, f_norms2 = fv[:len(gv)], f_norms2[:len(gv)]
    tu = fv.swapaxes(-1, -2) @ gv.conj()
    if critical:
        terms = structure._merit_terms(fv, gv, tu, f_norms2)
        lower = terms.merit < best.merit
    else:
        fp = potential._fp_of_gram(tu)
        lower = _objective_part(fp, objective) < _objective_part(best.fp, objective)
    if fv.ndim == 2:  # a lone trial
        if lower:
            return fv, gv, terms if critical else structure._merit_terms(fv, gv, tu, f_norms2, fp)
        return None
    j = int(lower.argmax())
    if not lower[j]:
        return None
    if critical:
        return fv[j], gv[j], structure._MeritTerms(*[x[j] for x in terms])
    return fv[j], gv[j], structure._merit_terms(fv[j], gv[j], tu[j], f_norms2[j], fp[j])


def _run_single(spec, alpha, field_, d, cfg, seed, initial_pair=None, terms=None):
    """One restart on raw (N, d) arrays, alpha in the field's dtype: past
    the start, only ``finish`` builds a FramePair.  The loop's state is
    the iterate (F, G) and its kernel output ``terms``; a degenerate
    pairing of the start or of a trial ends it as DEGENERATE_RETRACTION.
    Given ``terms``, the kernel output the start keeps to resume from, the
    run continues from it with no retraction or kernel pass."""
    if initial_pair is None:
        initial_pair = frames.random_pair(field_, d, spec.n, seed)
    critical = cfg.mode == CRITICAL_SEARCH
    alpha_c = alpha.conj()  # the merit gradient's, formed once per run
    blocks = _LADDER_BLOCKS[min(max(_STACK_ELEMENTS // (spec.n * d), 1), len(_LADDER_BLOCKS))]
    fv, gv = initial_pair.f.vectors, initial_pair.g.vectors
    obj_hist = []
    merit_hist = []

    def finish(status):
        """The search result: the one FramePair the run returns, frozen in
        place from the final arrays and seeded with their TU* and, to
        resume from, the last kernel output as is, keyed by alpha's bytes
        (the S(alpha) the pair lies on).  A finite kernel merit vouches
        for F and G: an inf or NaN entry would reach it through
        ||f_m||^2, the retraction or TU*.  Otherwise they are scanned."""
        finite = terms is not None and math.isfinite(terms.merit)
        pair = FramePair(FrameSequence._adopt(field_, fv, finite),
                         FrameSequence._adopt(field_, gv, finite))
        if terms is not None:
            pair._derived("TU*", lambda: terms.tu)
            pair._derived(("resume", alpha.tobytes()), lambda: terms)
        return SearchResult(
            final_pair=pair,
            objective_history=obj_hist,
            merit_history=merit_hist,
            status=status,
            restart_seed=seed,
            _spec=spec,
        )

    def record():
        obj_hist.append(float(_objective_part(terms.fp, cfg.objective)))
        merit_hist.append(float(terms.merit))

    def converged():
        """CRITICAL_SEARCH's stop: ``critical_report``'s verdict at its default tol."""
        return critical and structure._criticality(
            terms, structure.DEFAULT_CRITICAL_TOL, rows=False).is_critical

    if terms is None:
        try:
            gv = frames._retraction(fv, gv, alpha)
        except DegeneratePairingError:
            return finish(DEGENERATE_RETRACTION)
        if not np.isfinite(gv).all():  # the rescaling of a tiny pairing can overflow
            raise NumericalFailureError("the start's retraction onto S(alpha) is past float64")
        terms = structure._merit_terms(fv, gv)
        if np.isnan(terms.merit) or np.isnan(terms.fp):  # no NaN trial is ever accepted
            raise NumericalFailureError(f"the start's merit {terms.merit} or FP {terms.fp} is NaN")

    for _ in range(cfg.max_iters):
        record()
        if converged():  # before the bound: a critical iterate is CONVERGED at any scale
            return finish(CONVERGED)
        if abs(terms.fp) > cfg.divergence_bound:
            return finish(DIVERGED)
        if critical:
            gf, gg = _merit_gradient(fv, gv, alpha_c, terms)  # half the gradient
            grad2 = np.vdot(gf, gf).real + np.vdot(gg, gg).real
            if grad2 == 0.0:
                # a stationary point of the merit that is not critical: no step lowers it
                return finish(MAX_ITERS)
            # Polyak's step for the known least merit, 0, along twice (gf, gg)
            step = 0.5 * (terms.merit / grad2)
        else:
            gf, gg = _fp_gradient(terms.u, terms.gm, cfg.objective)  # half the gradient
            gf, gg = _project_to_tangent(fv, gv, gf, gg, terms.f_norms2)
            grad2 = np.vdot(gf, gf).real + np.vdot(gg, gg).real
            if np.sqrt(grad2) <= 0.5 * GRAD_TOL:
                return finish(CONVERGED)
            # <f_m - t gf_m, g_m - t gg_m> = alpha_m (1 + t^2 eps_m): move none by > alpha_m / 2;
            # both steps scale with 1 / |(gf, gg)|, so the half gradient doubles them
            eps = np.abs(np.vecdot(gg, gf) / alpha).max()
            if eps > 0.0:
                step = 1.0 / np.sqrt(2.0 * eps)
            else:  # the ray stays on S(alpha): a move as long as the pair itself
                step = np.sqrt((np.vdot(fv, fv).real + np.vdot(gv, gv).real) / grad2)

        for block in blocks:
            t = step * block
            f1 = fv - t * gf
            f_norms2 = np.vecdot(f1, f1).real  # the retraction's and the kernel's
            try:
                g1 = frames._retraction(f1, gv - t * gg, alpha, f_norms2)
            except DegeneratePairingError:  # the block's first trial's pairing
                return finish(DEGENERATE_RETRACTION)
            accepted = _accepted(f1, g1, f_norms2, terms, critical, cfg.objective)
            if accepted is not None:
                fv, gv, terms = accepted
                break
            if len(g1) < len(f1):  # a later trial's, behind only rejected ones
                return finish(DEGENERATE_RETRACTION)
        else:
            # no step lowers the merit or objective: a round-off floor (the
            # iterate of CRITICAL_SEARCH is not critical here)
            return finish(MAX_ITERS)

    record()
    return finish(CONVERGED if converged() else MAX_ITERS)


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
    only.  Results are ranked by (status, duality deviation, merit); with
    no restarts the one run is returned unranked.  A CRITICAL_SEARCH
    result that met no degenerate pairing is CONVERGED exactly when
    ``structure.critical_report(result.final_pair, spec)`` is critical: the
    run stops at its first critical iterate.

    A result's ``final_pair`` resumes its run: a search on the same alpha
    from it continues bit for bit, so slices resumed from each other's
    ``final_pair`` give the histories and final pair of one whole run,
    with no zero-row check, retraction or kernel pass at a slice's start,
    from the last kernel output each result's pair keeps, keyed by alpha's
    bytes: M, four N x d arrays (F M^T, G conj(M), r_f, r_g) and two
    N-vectors.  The rows of such a start need no check: its <f_m, g_m>
    are alpha_m != 0 to round-off.  Any other start, copies of that pair
    and an alpha of other bytes (a -0.0 imaginary part for 0.0) included,
    is checked and retracted onto S(alpha) first.  No critical
    report is built: ``structure.critical_report(result.final_pair, spec)``
    is the last iterate's, from one kernel pass on the kept M.

    The inputs are checked here, once: alpha must be nonzero, and real
    over R (MixedFramesError), and ``initial_pair`` must have the field,
    d and N of the search (DimensionMismatchError) and, unless it resumes,
    no zero f_m or g_m (ZeroVectorError).  A start whose retraction is not
    finite, or whose merit or FP is NaN (a problem past float64), raises
    NumericalFailureError.
    """
    spec.require_nonzero()
    alpha = spec.require_field(field_)
    resume = None
    if initial_pair is not None:
        if (initial_pair.field, initial_pair.d, initial_pair.n) != (field_, d, spec.n):
            raise DimensionMismatchError(
                f"initial_pair is a {initial_pair.field.value} pair with d = {initial_pair.d}, "
                f"N = {initial_pair.n}; the search is over {field_.value} with d = {d}, "
                f"N = {spec.n}"
            )
        resume = initial_pair._memo.get(("resume", alpha.tobytes()))
        if resume is None:  # a resumed start's <f_m, g_m> is alpha_m != 0: no row is zero
            initial_pair.require_nonzero()
    # min over a generator keeps a running best: a restart's result is dropped
    # as soon as it loses, so at most two are held whatever ``restarts`` is;
    # a lone run is not ranked, so its verdicts stay unformed until read
    runs = (_run_single(spec, alpha, field_, d, cfg, cfg.seed + k,
                        initial_pair=initial_pair if k == 0 else None,
                        terms=resume if k == 0 else None)
            for k in range(cfg.restarts + 1))
    return next(runs) if cfg.restarts == 0 else min(runs, key=_result_key)
