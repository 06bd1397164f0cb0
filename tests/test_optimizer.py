import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import retracted_random
from mixedframes import cli, fixtures, frames, optimizer, potential, structure
from mixedframes.errors import (
    DegeneratePairingError,
    DimensionMismatchError,
    MixedFramesError,
    NumericalFailureError,
    ZeroVectorError,
)
from mixedframes.frames import ConstraintSpec, Field, FramePair, FrameSequence


def _fd_gradient(pair, value, h=1e-6):
    """Central finite differences of value(FramePair) in real coordinates,
    in the fp_gradient encoding."""

    def at(fv, gv):
        return value(FramePair(FrameSequence(pair.field, fv), FrameSequence(pair.field, gv)))

    comps = (1.0,) if pair.field is Field.REAL else (1.0, 1j)
    out = []
    for which in range(2):
        arr = (pair.f.vectors, pair.g.vectors)[which]
        grad = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            for comp in comps:
                plus, minus = arr.copy(), arr.copy()
                plus[idx] += comp * h
                minus[idx] -= comp * h
                args_p = [pair.f.vectors, pair.g.vectors]
                args_m = [pair.f.vectors, pair.g.vectors]
                args_p[which], args_m[which] = plus, minus
                grad[idx] += (at(*args_p) - at(*args_m)) / (2 * h) * comp
        out.append(grad)
    return out


def _fd_shape(rng, trial):
    """(d, N) of a finite-difference trial: 20 small shapes, then N >> d."""
    if trial < 20:
        return int(rng.integers(1, 4)), int(rng.integers(1, 5))
    return int(rng.integers(1, 3)), int(rng.integers(8, 13))


def _potential_part(objective):
    def value(pair):
        v = complex(np.sum(frames.cross_gram(pair) * frames.cross_gram(pair).T))
        return v.real if objective == optimizer.REAL_PART else v.imag

    return value


@pytest.mark.parametrize("objective", [optimizer.REAL_PART, optimizer.IMAG_PART])
def test_gradient_against_finite_differences(field, objective):
    """fp_gradient against central differences of Re or Im FP.  Over R,
    Im FP is identically 0: its gradient is exactly zero in float64, and
    so are its differences."""
    zero = field is Field.REAL and objective == optimizer.IMAG_PART
    rng = np.random.default_rng(61)
    for trial in range(24):
        d, n = _fd_shape(rng, trial)
        pair = frames.random_pair(field, d, n, 2000 + trial)
        gf, gg = optimizer.fp_gradient(pair, objective)
        if zero:
            assert gf.dtype == gg.dtype == np.float64 and not gf.any() and not gg.any()
        ef, eg = _fd_gradient(pair, _potential_part(objective))
        scale = max(1.0, float(np.linalg.norm(ef)), float(np.linalg.norm(eg)))
        assert np.linalg.norm(gf - ef) / scale <= 1e-5
        assert np.linalg.norm(gg - eg) / scale <= 1e-5


def _loop_gradient(pair, alpha):
    """The merit gradient as the search loop takes it: from the kernel
    output of the pair, which is on S(alpha)."""
    fv, gv = pair.f.vectors, pair.g.vectors
    return optimizer._merit_gradient(fv, gv, alpha, structure._merit_terms(fv, gv))


def test_merit_gradient_against_finite_differences(field):
    """The reverse-mode merit gradient of CRITICAL_SEARCH, taken from the
    kernel output of a retracted pair with no second forward pass, is the
    gradient of merit(retract_to_constraint(.)) there, for random
    nonuniform alpha (its real part over R), at small shapes and at
    N >> d."""
    rng = np.random.default_rng(64)
    is_real = field is Field.REAL
    for trial in range(24):
        d, n = _fd_shape(rng, trial)
        alpha = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-1.0, 1.0, n))
        spec = ConstraintSpec(alpha.real if is_real else alpha)
        pair = frames.retract_to_constraint(frames.random_pair(field, d, n, 2200 + trial), spec)

        def value(p):
            return optimizer.merit(frames.retract_to_constraint(p, spec))

        gf, gg = _loop_gradient(pair, spec.require_field(field))
        ef, eg = _fd_gradient(pair, value)
        scale = max(1.0, float(np.linalg.norm(ef)), float(np.linalg.norm(eg)))
        assert np.linalg.norm(gf - ef) / scale <= 1e-5
        assert np.linalg.norm(gg - eg) / scale <= 1e-5
        if is_real:
            assert gf.dtype == gg.dtype == np.float64


def test_merit_gradient_vanishes_at_critical_fixtures():
    for name in ("FX-ONB2", "FX-MB", "FX-MIX", "FX-IMAG"):
        pair, spec = fixtures.fixture(name)
        gf, gg = _loop_gradient(pair, spec.require_field(pair.field))
        assert np.sqrt(np.vdot(gf, gf).real + np.vdot(gg, gg).real) <= 1e-10, name


def test_gradient_rejects_unknown_objective():
    pair = frames.random_pair(Field.REAL, 2, 2, 0)
    with pytest.raises(ValueError):
        optimizer.fp_gradient(pair, "MODULUS")


def _constraint_gradients(pair, m):
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


def test_tangent_projection_kills_constraint_directions(field):
    rng = np.random.default_rng(62)
    for trial in range(10):
        pair = frames.random_pair(field, 3, 4, 2100 + trial)
        gf = rng.standard_normal(pair.f.vectors.shape) + (
            1j * rng.standard_normal(pair.f.vectors.shape) if field is Field.COMPLEX else 0
        )
        gg = rng.standard_normal(pair.g.vectors.shape) + (
            1j * rng.standard_normal(pair.g.vectors.shape) if field is Field.COMPLEX else 0
        )
        pf, pg = optimizer.project_to_tangent(pair, gf, gg)
        for m in range(pair.n):
            for vf, vg in _constraint_gradients(pair, m):
                ip = np.vdot(vf, pf[m]).real + np.vdot(vg, pg[m]).real
                assert abs(ip) <= 1e-10 * (1 + np.linalg.norm(vf) + np.linalg.norm(vg))


def _project_sequentially(pair, gf, gg):
    """Reference projection: one constraint direction after the other,
    each coefficient taken from the rows the previous one left."""
    gf, gg = np.array(gf, dtype=np.complex128), np.array(gg, dtype=np.complex128)
    for m in range(pair.n):
        for vf, vg in _constraint_gradients(pair, m):
            nn = np.vdot(vf, vf).real + np.vdot(vg, vg).real
            if nn == 0.0:
                continue
            coef = (np.vdot(vf, gf[m]).real + np.vdot(vg, gg[m]).real) / nn
            gf[m] -= coef * vf
            gg[m] -= coef * vg
    if pair.field is Field.REAL:
        gf, gg = gf.real, gg.real
    return gf, gg


def test_tangent_projection_matches_sequential_reference(field):
    rng = np.random.default_rng(63)
    for trial in range(10):
        pair = frames.random_pair(field, 4, 6, 2300 + trial)
        gf = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        gg = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        pf, pg = optimizer.project_to_tangent(pair, gf, gg)
        rf, rg = _project_sequentially(pair, gf, gg)
        scale = 1.0 + np.linalg.norm(gf) + np.linalg.norm(gg)
        assert np.abs(pf - rf).max() <= 1e-12 * scale
        assert np.abs(pg - rg).max() <= 1e-12 * scale


def test_tangent_projection_skips_zero_index(field):
    """An index with f_m = g_m = 0 has no constraint direction: its rows of
    the gradient pass through unchanged, the others are still projected."""
    pair = frames.random_pair(field, 3, 4, 2200)
    fv, gv = pair.f.vectors.copy(), pair.g.vectors.copy()
    fv[1] = gv[1] = 0.0
    pair = frames.FramePair(frames.FrameSequence(field, fv), frames.FrameSequence(field, gv))
    gf, gg = optimizer.fp_gradient(frames.random_pair(field, 3, 4, 2201))
    pf, pg = optimizer.project_to_tangent(pair, gf, gg)
    assert np.array_equal(pf[1], gf[1]) and np.array_equal(pg[1], gg[1])
    assert np.all(np.isfinite(pf)) and np.all(np.isfinite(pg))
    vf, vg = _constraint_gradients(pair, 0)[0]
    assert abs(np.vdot(vf, pf[0]).real + np.vdot(vg, pg[0]).real) <= 1e-10


def test_projected_gradient_vanishes_at_mb():
    """FX-MB is a constrained critical point of the restricted potential."""
    pair, _ = fixtures.fixture("FX-MB")
    gf, gg = optimizer.fp_gradient(pair, optimizer.REAL_PART)
    pf, pg = optimizer.project_to_tangent(pair, gf, gg)
    assert np.sqrt(np.vdot(pf, pf).real + np.vdot(pg, pg).real) <= 1e-10


def test_merit_zero_exactly_at_critical_pairs():
    for name in ("FX-ONB2", "FX-MB", "FX-MIX", "FX-IMAG"):
        pair, _ = fixtures.fixture(name)
        assert optimizer.merit(pair) <= 1e-25, name
    pair, _ = retracted_random(Field.REAL, 2, 3, 63)
    assert optimizer.merit(pair) > 1e-4


def test_config_validation():
    with pytest.raises(ValueError):
        optimizer.OptimizerConfig(mode="WANDER")
    with pytest.raises(ValueError, match="unknown objective 'x'"):
        optimizer.OptimizerConfig(objective="x")
    with pytest.raises(ValueError):
        optimizer.OptimizerConfig(divergence_bound=float("nan"))
    with pytest.raises(ValueError):
        optimizer.OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        optimizer.OptimizerConfig(restarts=-1)
    # a count that is no integer, a bool or a negative seed fails here, naming
    # its field, not inside search's range or SeedSequence
    for name, value in (("max_iters", 2.5), ("restarts", 0.5), ("seed", 1.5), ("seed", -1),
                        ("max_iters", True), ("restarts", False), ("seed", np.bool_(True)),
                        ("seed", "3"), ("restarts", None)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            optimizer.OptimizerConfig(**{name: value})
    cfg = optimizer.OptimizerConfig(max_iters=np.int64(3), seed=np.uint8(1), restarts=np.int32(1))
    assert optimizer.search(ConstraintSpec(np.ones(2)), Field.REAL, 1, cfg).restart_seed in (1, 2)
    cfg = optimizer.OptimizerConfig(seed=5, restarts=2)
    assert optimizer.OptimizerConfig(**dataclasses.asdict(cfg)) == cfg


def test_critical_search_converges():
    spec = ConstraintSpec(np.ones(3))
    cfg = optimizer.OptimizerConfig(mode=optimizer.CRITICAL_SEARCH, seed=7, max_iters=5000)
    res = optimizer.search(spec, Field.REAL, 2, cfg)
    assert res.status == optimizer.CONVERGED
    assert res.merit_history[-1] <= 1e-10
    assert res.constraint_residual_final <= 1e-10
    assert structure.critical_report(res.final_pair, spec).is_critical


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_critical_search_converges_at_every_scale(scale):
    """The Polyak first step merit / ||grad||^2 scales with the problem:
    alpha = s * (1, 1, 1) converges at s = 1e-3, 1 and 1e3 alike (a fixed
    first step of 0.25 reached MAX_ITERS at both ends)."""
    spec = ConstraintSpec(np.full(3, scale))
    res = optimizer.search(spec, Field.REAL, 2, optimizer.OptimizerConfig(seed=7))
    assert res.status == optimizer.CONVERGED
    assert structure.critical_report(res.final_pair, spec).is_critical


def test_critical_search_stops_at_zero_gradient(monkeypatch):
    """A zero merit gradient at a start that is not critical ends the
    restart as MAX_ITERS at once, with no division by zero for the Polyak
    step."""
    def zero_gradient(fv, gv, alpha, terms):
        return np.zeros_like(fv), np.zeros_like(gv)

    monkeypatch.setattr(optimizer, "_merit_gradient", zero_gradient)
    spec = ConstraintSpec(np.full(4, 0.5))
    with np.errstate(all="raise"):
        res = optimizer.search(spec, Field.REAL, 2, optimizer.OptimizerConfig(seed=3))
    assert res.status == optimizer.MAX_ITERS
    assert len(res.merit_history) == 1
    assert not structure.critical_report(res.final_pair, spec).is_critical


@pytest.mark.parametrize("bound", [1e15, optimizer.OptimizerConfig().divergence_bound])
@pytest.mark.parametrize("name", ["FX-MB", "FX-MIX"])
def test_critical_start_off_scale_one_converges_at_once(name, bound):
    """A fixture with F and G times 1e3 and alpha times 1e6 is critical by
    critical_report (merit 2.3e-13; FP 4.5e12 and 8.5e12, past the default
    divergence bound 1e9).  Started from it,
    a search ends CONVERGED after 0 iterations under either divergence
    bound: the stop is critical_report's relative rule, read before the
    bound."""
    pair, spec = fixtures.fixture(name)
    scaled = FramePair(FrameSequence(pair.field, 1e3 * pair.f.vectors),
                       FrameSequence(pair.field, 1e3 * pair.g.vectors))
    spec = ConstraintSpec(1e6 * spec.alpha)
    assert structure.critical_report(scaled, spec).is_critical
    cfg = optimizer.OptimizerConfig(divergence_bound=bound)
    res = optimizer.search(spec, pair.field, pair.d, cfg, initial_pair=scaled)
    assert res.status == optimizer.CONVERGED and len(res.merit_history) == 1


# the CRITICAL_SEARCH problems of the benchmark and tools/digest.py
CRITICAL_PROBLEMS = [(Field.REAL, 2, np.full(4, 0.5)), (Field.COMPLEX, 2, np.ones(3))]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("field_,d,alpha", CRITICAL_PROBLEMS, ids=["R", "C"])
def test_critical_search_converges_exactly_at_the_first_critical_iterate(field_, d, alpha,
                                                                          seed):
    """A CRITICAL_SEARCH result is CONVERGED iff critical_report calls its
    final pair critical, and a CONVERGED run stops at its first critical
    iterate: the same run cut one iteration short ends MAX_ITERS on a pair
    that is not critical."""
    spec = ConstraintSpec(alpha)
    cfg = optimizer.OptimizerConfig(seed=seed, max_iters=300)
    res = optimizer.search(spec, field_, d, cfg)
    assert res.status in (optimizer.CONVERGED, optimizer.MAX_ITERS)
    is_critical = structure.critical_report(res.final_pair, spec).is_critical
    assert (res.status == optimizer.CONVERGED) == is_critical
    if res.status == optimizer.CONVERGED:
        iterations = len(res.merit_history) - 1
        short = optimizer.search(spec, field_, d,
                                 dataclasses.replace(cfg, max_iters=iterations - 1))
        assert short.status == optimizer.MAX_ITERS
        assert short.merit_history == res.merit_history[:-1]
        assert not structure.critical_report(short.final_pair, spec).is_critical


def test_search_deterministic():
    spec = ConstraintSpec(np.ones(3))
    cfg = optimizer.OptimizerConfig(seed=7, max_iters=300)
    a = optimizer.search(spec, Field.REAL, 2, cfg)
    b = optimizer.search(spec, Field.REAL, 2, cfg)
    assert a.status == b.status
    assert a.merit_history == b.merit_history
    assert np.array_equal(a.final_pair.g.vectors, b.final_pair.g.vectors)


def test_search_initial_pair_used_on_base_restart():
    pair, spec = fixtures.fixture("FX-MB")
    cfg = optimizer.OptimizerConfig(seed=0, max_iters=5)
    res = optimizer.search(spec, Field.REAL, 2, cfg, initial_pair=pair)
    # already critical: merit 0 at iteration 0
    assert res.status == optimizer.CONVERGED
    assert len(res.merit_history) == 1


def test_search_rejects_mismatched_initial_pair():
    """An initial pair over another field, or of another d or N, is refused
    instead of being searched as a different problem on restart 0."""
    spec = ConstraintSpec(np.full(4, 0.5))
    cfg = optimizer.OptimizerConfig(seed=3, restarts=2, max_iters=5)
    for field_, d, n in ((Field.COMPLEX, 4, 4), (Field.COMPLEX, 2, 4), (Field.REAL, 3, 4),
                         (Field.REAL, 2, 5)):
        start = frames.random_pair(field_, d, n, 0)
        with pytest.raises(DimensionMismatchError):
            optimizer.search(spec, Field.REAL, 2, cfg, initial_pair=start)


def test_search_rejects_nonreal_alpha_over_r():
    """Over R a complex alpha is refused, not searched as S(Re alpha)."""
    spec = ConstraintSpec(np.array([1 + 1j, 1, 1]))
    cfg = optimizer.OptimizerConfig(seed=7, max_iters=5)
    with pytest.raises(MixedFramesError, match="must be real"):
        optimizer.search(spec, Field.REAL, 2, cfg)
    res = optimizer.search(spec, Field.COMPLEX, 2, cfg)
    assert res.constraint_residual_final <= 1e-10


@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
def test_search_from_a_nan_start_is_a_numerical_failure(mode):
    """At alpha = 1e200 the start's FP, about 1e400, overflows and its merit
    is NaN: the search raises instead of backtracking on NaN to MAX_ITERS."""
    cfg = optimizer.OptimizerConfig(mode=mode, max_iters=3)
    with pytest.raises(NumericalFailureError), np.errstate(over="ignore", invalid="ignore"):
        optimizer.search(ConstraintSpec(np.full(3, 1e200)), Field.REAL, 2, cfg)


@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
def test_search_whose_start_retracts_past_float64_is_a_numerical_failure(mode):
    """At alpha = 1e308 the random start's rescaled G overflows: the search
    raises NumericalFailureError, a numerical failure, not an input error."""
    cfg = optimizer.OptimizerConfig(mode=mode, max_iters=3)
    with pytest.raises(NumericalFailureError, match="past float64"), \
            np.errstate(over="ignore", invalid="ignore"):
        optimizer.search(ConstraintSpec(np.full(3, 1e308)), Field.REAL, 2, cfg)


def test_search_rejects_zero_vector_start():
    """A zero f_m in the initial pair has no rescaling onto S(alpha): it is
    named before the retraction divides by <f_m, g_m> = 0."""
    f = FrameSequence(Field.REAL, np.array([[0.0, 0.0], [1.0, 0.0]]))
    g = FrameSequence(Field.REAL, np.array([[1.0, 0.0], [1.0, 1.0]]))
    spec, cfg = ConstraintSpec(np.ones(2)), optimizer.OptimizerConfig(max_iters=5)
    with pytest.raises(ZeroVectorError) as info, np.errstate(all="raise"):
        optimizer.search(spec, Field.REAL, 2, cfg, initial_pair=FramePair(f, g))
    assert info.value.index == 0


def test_search_loop_builds_no_frame_sequences(monkeypatch):
    """The search loop runs on raw arrays: a CRITICAL_SEARCH on criterion
    9's problem constructs no FrameSequence in 5 iterations or in 50. The
    random start adopts the arrays it draws, and the returned pair the
    loop's last arrays, neither validated again."""
    original = FrameSequence.__post_init__
    built = []

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(FrameSequence, "__post_init__", counting)
    spec = ConstraintSpec(np.full(4, 0.5))
    counts = []
    for max_iters in (5, 50):
        built.clear()
        cfg = optimizer.OptimizerConfig(seed=3, max_iters=max_iters)
        res = optimizer.search(spec, Field.REAL, 2, cfg)
        assert res.status == optimizer.MAX_ITERS
        assert len(res.merit_history) == max_iters + 1
        counts.append(len(built))
    assert counts == [0, 0]


@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
def test_final_pair_vectors_are_read_only(field, mode):
    """The returned pair's vectors are the loop's last arrays, frozen: no
    write reaches them, in a result resumed from it too."""
    spec = ConstraintSpec(np.full(4, 0.5))
    cfg = optimizer.OptimizerConfig(mode=mode, seed=3, max_iters=3)
    res = optimizer.search(spec, field, 2, cfg)
    resumed = optimizer.search(spec, field, 2, cfg, initial_pair=res.final_pair)
    for pair in (res.final_pair, resumed.final_pair):
        for v in (pair.f.vectors, pair.g.vectors):
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0, 0] = 0.0


# (mode, field, d, alpha, seed, max_iters, divergence_bound, status): criterion
# 9's problem and test_critical_search_converges' for CRITICAL_SEARCH,
# criterion 10's for POTENTIAL_DESCENT
REPORT_CASES = [
    (optimizer.CRITICAL_SEARCH, Field.REAL, 2, np.full(4, 0.5), 3, 5, 1e9, optimizer.MAX_ITERS),
    (optimizer.CRITICAL_SEARCH, Field.REAL, 2, np.ones(3), 7, 5000, 1e9, optimizer.CONVERGED),
    (optimizer.POTENTIAL_DESCENT, Field.COMPLEX, 2, np.ones(2), 0, 5, 1e6, optimizer.MAX_ITERS),
    (optimizer.POTENTIAL_DESCENT, Field.COMPLEX, 2, np.ones(2), 0, 5000, 1e6, optimizer.DIVERGED),
    (optimizer.POTENTIAL_DESCENT, Field.COMPLEX, 1, np.ones(2), 0, 5000, 1e6, optimizer.CONVERGED),
]


@pytest.mark.parametrize("mode,field_,d,alpha,seed,max_iters,bound,status", REPORT_CASES,
                         ids=[f"{c[0]}-{c[-1]}" for c in REPORT_CASES])
def test_search_report_equals_critical_report(capsys, mode, field_, d, alpha, seed, max_iters,
                                              bound, status):
    """The critical report ``optimize`` prints for a search is
    critical_report of the pair the library's search returns, to the last
    bit of every float."""
    flag = "critical" if mode == optimizer.CRITICAL_SEARCH else "potential"
    argv = ["optimize", "--alpha", ",".join(repr(float(a)) for a in alpha),
            "--field", field_.value, "--d", str(d), "--mode", flag, "--seed", str(seed),
            "--max-iters", str(max_iters), "--divergence-bound", repr(bound)]
    cli.main(argv)
    printed = json.loads(capsys.readouterr().out)["outputs"]["search"]
    spec = ConstraintSpec(alpha)
    cfg = optimizer.OptimizerConfig(mode=mode, seed=seed, max_iters=max_iters,
                                    divergence_bound=bound)
    res = optimizer.search(spec, field_, d, cfg)
    assert res.status == printed["status"] == status
    want = cli._json(structure.critical_report(res.final_pair, spec))
    assert printed["critical_report"] == json.loads(json.dumps(want))


@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
def test_search_builds_no_critical_report(monkeypatch, mode):
    """No restart of a search builds a CriticalPairReport, the winner's
    included: the report is critical_report of the returned pair."""
    built = []
    report = structure.CriticalPairReport
    monkeypatch.setattr(structure, "CriticalPairReport",
                        lambda *a, **k: (built.append(1), report(*a, **k))[1])
    spec = ConstraintSpec(np.ones(3))
    cfg = optimizer.OptimizerConfig(mode=mode, seed=0, max_iters=20, divergence_bound=1e6,
                                    restarts=3)
    res = optimizer.search(spec, Field.COMPLEX, 2, cfg)
    assert built == []
    assert structure.critical_report(res.final_pair, spec) is not None and built == [1]


def test_descent_runs_kernel_once_per_iterate(monkeypatch):
    """A descent prices its trials from TU*: the residual kernel runs once
    on the start and once per accepted iterate, on the TU* and the FP
    that priced it, and the finish runs it no more."""
    calls = []
    priced = []
    original = structure._merit_terms

    def counting(fv, gv, tu=None, fp=None):
        calls.append(tu is not None)
        priced.append(fp is not None)
        if fp is not None:
            assert fp == potential._fp_of_gram(tu)
        return original(fv, gv, tu, fp)

    monkeypatch.setattr(structure, "_merit_terms", counting)
    spec = ConstraintSpec(np.ones(2))
    for k in (1, 5):
        calls.clear()
        priced.clear()
        cfg = optimizer.OptimizerConfig(mode=optimizer.POTENTIAL_DESCENT, seed=0, max_iters=k,
                                        divergence_bound=1e6)
        res = optimizer.search(spec, Field.COMPLEX, 2, cfg)
        assert res.status == optimizer.MAX_ITERS
        assert len(res.merit_history) == k + 1
        assert len(calls) == 1 + k
        assert calls == [False] + [True] * k
        assert priced == calls


def test_descent_first_step_of_a_ray_that_stays_on_s_alpha(monkeypatch, field):
    """When every <gf_m, gg_m> is 0 the tangent ray never leaves S(alpha)
    and 1/sqrt(2 max |eps_m|) is infinite: the search starts instead at
    ||(F, G)|| / ||(gf, gg)||, finite and with no floating-point warning.
    F and G live in the first two coordinates and the stubbed gradient
    rows in the third and fourth, so every pairing of the ray is exact."""
    dtype = np.complex128 if field is Field.COMPLEX else np.float64
    fv = np.array([[1.0, 2.0, 0.0, 0.0], [0.5, -1.0, 0.0, 0.0]], dtype=dtype)
    gv = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, -0.5, 0.0, 0.0]], dtype=dtype)
    gf = np.array([[0.0, 0.0, 3.0, 0.0], [0.0, 0.0, -1.0, 0.0]], dtype=dtype)
    gg = np.array([[0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 4.0]], dtype=dtype)
    if field is Field.COMPLEX:
        fv[:, 1] *= 1j
        gf[:, 2] *= 1 - 1j
    monkeypatch.setattr(optimizer, "_fp_gradient", lambda u, gm, objective: (gf, gg))
    trials = []
    original = frames._retraction

    def recording(fv, gv, alpha):
        trials.append(fv)
        return original(fv, gv, alpha)

    monkeypatch.setattr(frames, "_retraction", recording)
    spec = ConstraintSpec(np.array([4.0, -0.5]))
    start = FramePair(FrameSequence(field, fv), FrameSequence(field, gv))
    cfg = optimizer.OptimizerConfig(mode=optimizer.POTENTIAL_DESCENT, max_iters=1)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        optimizer.search(spec, field, 4, cfg, initial_pair=start)
    gv = original(fv, gv, spec.alpha)  # the retracted start
    step = -trials[1][0][0, 2] / gf[0, 2]  # the first trial of the first block
    size2 = (np.vdot(fv, fv) + np.vdot(gv, gv)).real
    want = np.sqrt(size2 / (np.vdot(gf, gf) + np.vdot(gg, gg)).real)
    assert np.isfinite(step)
    assert abs(step - want) <= 1e-15 * want


DESCENT_PROBLEMS = [(Field.REAL, optimizer.REAL_PART), (Field.COMPLEX, optimizer.REAL_PART),
                    (Field.COMPLEX, optimizer.IMAG_PART)]


@pytest.mark.parametrize("field_,objective", DESCENT_PROBLEMS, ids=["R-REAL", "C-REAL", "C-IMAG"])
def test_descent_is_scale_equivariant(monkeypatch, field_, objective):
    """The first trial step is read off the retraction, so a descent from
    (sF, sG) on s^2 alpha takes the steps of the one from (F, G) on alpha:
    the same status and iterations, iterates s times and objectives s^4
    times as large (a fixed first step of 0.25 stopped after 2 or 3
    iterations at s = 1e3)."""
    iterates = []
    original = optimizer._accepted

    def recording(fv, gv, *args):
        accepted = original(fv, gv, *args)
        if accepted is not None:
            iterates.append(accepted[:2])
        return accepted

    monkeypatch.setattr(optimizer, "_accepted", recording)
    d, n = 3, 7
    raw = frames.random_pair(field_, d, n, 4)
    alpha = np.linspace(0.5, 2.0, n)
    cfg = optimizer.OptimizerConfig(mode=optimizer.POTENTIAL_DESCENT, objective=objective,
                                    max_iters=6, divergence_bound=1e300)

    def run(s):
        iterates.clear()
        start = FramePair(FrameSequence(field_, s * raw.f.vectors),
                          FrameSequence(field_, s * raw.g.vectors))
        res = optimizer.search(ConstraintSpec(s**2 * alpha), field_, d, cfg, initial_pair=start)
        return res, list(iterates)

    base, base_iterates = run(1.0)
    assert len(base_iterates) == 6
    for s in (1e-3, 1e3):
        res, scaled_iterates = run(s)
        assert res.status == base.status
        assert len(res.objective_history) == len(base.objective_history)
        for got, want in zip(scaled_iterates, base_iterates):
            for x, y in zip(got, want):
                assert np.max(np.abs(x - s * y)) <= 1e-12 * s * np.max(np.abs(y))
        for got, want in zip(res.objective_history, base.objective_history):
            assert abs(got - s**4 * want) <= 1e-12 * s**4 * abs(want)


def _counting_retraction(counts):
    """``frames._retraction``, counting the trials it is given (a block
    counts each of its trials) and those it does not retract: a raise
    counts one, a block cut at a degenerate pairing the trials it drops."""
    retraction = frames._retraction

    def counting(fv, gv, alpha):
        trials = len(fv) if fv.ndim == 3 else 1  # a block, or the start or a lone trial
        counts["retractions"] += trials
        try:
            out = retraction(fv, gv, alpha)
        except DegeneratePairingError:
            counts["degenerate"] += 1
            raise
        counts["degenerate"] += trials - (len(out) if fv.ndim == 3 else 1)
        return out

    return counting


def test_descent_prices_few_trials_per_iteration(monkeypatch):
    """Starting each backtracking search where no pairing moves by more
    than half of alpha_m, a descent at (16, 48) over C prices at most 3
    trials per iteration on average (about 14 from a fixed step of 0.25)
    and no trial meets a degenerate pairing."""
    counts = {"trials": 0, "retractions": 0, "degenerate": 0}
    accepted = optimizer._accepted

    def counting_accepted(fv, *args):
        counts["trials"] += len(fv) if fv.ndim == 3 else 1  # a block, or a lone trial
        return accepted(fv, *args)

    monkeypatch.setattr(optimizer, "_accepted", counting_accepted)
    monkeypatch.setattr(frames, "_retraction", _counting_retraction(counts))
    cfg = optimizer.OptimizerConfig(mode=optimizer.POTENTIAL_DESCENT, seed=2, max_iters=30)
    res = optimizer.search(ConstraintSpec(np.ones(48)), Field.COMPLEX, 16, cfg)
    iterations = len(res.merit_history) - 1
    assert iterations >= 10
    assert counts["trials"] <= 3 * iterations
    assert counts["degenerate"] == 0


def test_critical_search_meets_no_degenerate_pairing(monkeypatch):
    """On the problems of the critical-search benchmark (R, d = 2,
    alpha = 1/2 x 4, and C, d = 2, alpha = 1 x 3), 4 seeds each at 300
    iterations, no retraction of a start or a trial meets a degenerate
    pairing, so no search ends DEGENERATE_RETRACTION.  A block of trials
    counts each of its trials."""
    counts = {"retractions": 0, "degenerate": 0}
    monkeypatch.setattr(frames, "_retraction", _counting_retraction(counts))
    for field_, alpha in ((Field.REAL, np.full(4, 0.5)), (Field.COMPLEX, np.ones(3))):
        for seed in range(4):
            cfg = optimizer.OptimizerConfig(seed=seed, max_iters=300)
            res = optimizer.search(ConstraintSpec(alpha), field_, 2, cfg)
            assert res.status != optimizer.DEGENERATE_RETRACTION
    assert counts["retractions"] >= 8 * 300
    assert counts["degenerate"] == 0


@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
def test_degenerate_trial_ends_restart_at_last_accepted_iterate(monkeypatch, mode):
    """When the retraction of a trial meets a degenerate pairing behind
    only rejected trials, the restart ends DEGENERATE_RETRACTION and
    returns the last accepted iterate, with no constraint residual.  Here
    every trial from the fifth on is degenerate: the four before it are
    priced, and no trial after it."""
    counts, last = {"retracted": 0, "priced": 0}, {}
    retraction, accepted = frames._retraction, optimizer._accepted

    def failing_retraction(fv, gv, alpha):
        out = retraction(fv, gv, alpha)
        if fv.ndim == 2:  # the start
            last["f"], last["g"] = fv, out
            return out
        keep = 4 - counts["retracted"]  # the block's trials before the fifth
        counts["retracted"] += len(fv)
        if keep <= 0:  # the block's first trial is degenerate
            raise DegeneratePairingError("stub", index=0)
        return out[:keep]

    def recording_accepted(fv, gv, *args):
        counts["priced"] += len(gv)
        hit = accepted(fv, gv, *args)
        if hit is not None:
            last["f"], last["g"] = hit[:2]
        return hit

    monkeypatch.setattr(frames, "_retraction", failing_retraction)
    monkeypatch.setattr(optimizer, "_accepted", recording_accepted)
    cfg = optimizer.OptimizerConfig(mode=mode, seed=0, max_iters=50)
    res = optimizer.search(ConstraintSpec(np.ones(3)), Field.COMPLEX, 2, cfg)
    assert counts["priced"] == 4
    assert res.status == optimizer.DEGENERATE_RETRACTION
    assert res.final_pair.f.vectors.tobytes() == last["f"].tobytes()
    assert res.final_pair.g.vectors.tobytes() == last["g"].tobytes()
    assert res.constraint_residual_final == float("inf")


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
def test_backtracking_takes_the_first_accepted_or_degenerate_trial(monkeypatch, mode, k):
    """The ladder step, step / 2, ... is priced k trials at a time and read
    in ladder order.  If a plain run accepts trial a >= 1 of iteration i,
    a degenerate trial a + 1 changes nothing (with k = 4 it is priced, in
    trial a's block), and a degenerate trial a, behind only rejected ones,
    ends the restart DEGENERATE_RETRACTION at the iterate of iteration i.
    At k = 1 each trial is a lone (N, d) one, whose retraction raises."""
    monkeypatch.setattr(optimizer, "_STACK_ELEMENTS", 6 * k)  # N d = 6
    retraction, accepted = frames._retraction, optimizer._accepted
    at = {}
    taken = []  # per iteration: the ladder position of the accepted trial, its F and G

    def cutting_retraction(fv, gv, alpha):
        if not at["started"]:  # the start
            at["started"] = True
            return retraction(fv, gv, alpha)
        size = len(fv) if fv.ndim == 3 else 1
        at["first"], at["next"] = at["next"], at["next"] + size
        if at["cut"] is not None and at["cut"][0] == len(taken):
            position = at["cut"][1] - at["first"]
            if 0 <= position < size:
                at["cuts"] += 1
                if position == 0:  # a lone trial, or the first of the block
                    raise DegeneratePairingError("stub", index=0)
                return retraction(fv, gv, alpha)[:position]
        return retraction(fv, gv, alpha)

    def recording_accepted(fv, gv, *args):
        hit = accepted(fv, gv, *args)
        if hit is not None:
            j = 0 if gv.ndim == 2 else [g.tobytes() for g in gv].index(hit[1].tobytes())
            taken.append((at["first"] + j, *hit[:2]))
            at["next"] = 0
        return hit

    monkeypatch.setattr(frames, "_retraction", cutting_retraction)
    monkeypatch.setattr(optimizer, "_accepted", recording_accepted)
    cfg = optimizer.OptimizerConfig(mode=mode, seed=2, max_iters=30)

    def run(cut):
        at.update(started=False, next=0, cut=cut, cuts=0)
        taken.clear()
        return optimizer.search(ConstraintSpec(np.ones(3)), Field.COMPLEX, 2, cfg), list(taken)

    plain, steps = run(None)
    # the first iteration past the first whose accepted trial is not first, nor last in its block
    i = next(i for i, (a, _, _) in enumerate(steps) if i > 0 and a >= 1 and a % 4 < 3)
    a = steps[i][0]

    res, _ = run((i, a + 1))
    assert at["cuts"] == (k == 4)
    assert (res.status, res.merit_history) == (plain.status, plain.merit_history)
    assert res.final_pair.g.vectors.tobytes() == plain.final_pair.g.vectors.tobytes()

    res, _ = run((i, a))
    assert at["cuts"] == 1
    assert res.status == optimizer.DEGENERATE_RETRACTION
    assert res.merit_history == plain.merit_history[:i + 1]
    assert res.final_pair.f.vectors.tobytes() == steps[i - 1][1].tobytes()
    assert res.final_pair.g.vectors.tobytes() == steps[i - 1][2].tobytes()


def test_restart_ranking_prefers_dual():
    """With sum alpha = d, restarts should surface a near-dual pair."""
    spec = ConstraintSpec(np.full(4, 0.5))
    cfg = optimizer.OptimizerConfig(seed=3, restarts=7, max_iters=2000)
    res = optimizer.search(spec, Field.REAL, 2, cfg)
    assert res.status == optimizer.CONVERGED
    assert res.dual_deviation <= 1e-6


def test_critical_search_large_size():
    """One iteration at (d, N) = (64, 192) costs a few merit evaluations and
    O(N d + d^2) memory, not one merit evaluation per real coordinate."""
    spec = ConstraintSpec(np.ones(192))
    cfg = optimizer.OptimizerConfig(mode=optimizer.CRITICAL_SEARCH, seed=1, max_iters=2)
    res = optimizer.search(spec, Field.REAL, 64, cfg)
    assert res.status == optimizer.MAX_ITERS
    assert len(res.merit_history) == 3
    assert all(b < a for a, b in zip(res.merit_history, res.merit_history[1:]))


def test_kernel_memory_is_linear_in_n(field):
    """The merit gradient and the critical report work from the d x d
    mixed operator: at (d, N) = (4, 3000) neither allocates an N x N
    array (72 MB over R, 144 MB over C) at any point."""
    spec = ConstraintSpec(np.ones(3000))
    pair = frames.retract_to_constraint(frames.random_pair(field, 4, 3000, 5), spec)
    for run in (lambda: _loop_gradient(pair, spec.require_field(field)),
                lambda: structure.critical_report(pair, spec)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


def test_potential_descent_diverges_d2():
    """Over C at d = 2 the real part of the restricted potential is
    unbounded below, so descent must hit the divergence bound."""
    spec = ConstraintSpec(np.array([1.0, 1.0]))
    cfg = optimizer.OptimizerConfig(
        mode=optimizer.POTENTIAL_DESCENT,
        objective=optimizer.REAL_PART,
        seed=1,
        max_iters=5000,
        divergence_bound=1e6,
    )
    res = optimizer.search(spec, Field.COMPLEX, 2, cfg)
    assert res.status == optimizer.DIVERGED
    assert res.objective_history[-1] < -1e5


def test_potential_descent_d1_is_constant():
    """At d = 1 the trace identity pins the single eigenvalue, so the
    restricted potential is constant on S(alpha) and descent converges
    immediately instead of diverging."""
    spec = ConstraintSpec(np.array([1.0, 1.0]))
    cfg = optimizer.OptimizerConfig(
        mode=optimizer.POTENTIAL_DESCENT, seed=0, divergence_bound=1e6
    )
    res = optimizer.search(spec, Field.COMPLEX, 1, cfg)
    assert res.status == optimizer.CONVERGED
    assert res.objective_history[-1] == pytest.approx(4.0, abs=1e-10)


def test_degenerate_start_recovers():
    """An orthogonal starting pairing has no rescaling onto S(alpha): it
    ends its restart as DEGENERATE_RETRACTION, with an infinite
    constraint residual, and is not redrawn.  With a further
    restart the search recovers: restart 1's result wins."""
    f = FrameSequence(Field.REAL, np.array([[1.0, 0.0], [0.0, 1.0]]))
    g = FrameSequence(Field.REAL, np.array([[0.0, 1.0], [1.0, 0.0]]))
    spec = ConstraintSpec(np.ones(2))
    cfg = optimizer.OptimizerConfig(seed=4, max_iters=2000)
    res = optimizer.search(spec, Field.REAL, 2, cfg, initial_pair=FramePair(f, g))
    assert res.status == optimizer.DEGENERATE_RETRACTION
    assert res.constraint_residual_final == np.inf

    res = optimizer.search(spec, Field.REAL, 2, dataclasses.replace(cfg, restarts=1),
                           initial_pair=FramePair(f, g))
    alone = optimizer.search(spec, Field.REAL, 2, dataclasses.replace(cfg, seed=5))
    assert res.restart_seed == 5 and res.merit_history == alone.merit_history
    assert res.status in (optimizer.CONVERGED, optimizer.MAX_ITERS)
    assert res.constraint_residual_final <= 1e-10


@pytest.mark.parametrize("degenerate", [False, True], ids=["regular-start", "degenerate-start"])
def test_search_from_an_initial_pair_builds_no_generator(monkeypatch, degenerate):
    """A degenerate pairing is never redrawn, so a search from an
    initial_pair builds no generator in either mode, and a start whose
    two pairings are orthogonal ends DEGENERATE_RETRACTION."""
    if degenerate:  # both pairings of the start are orthogonal
        start = FramePair(FrameSequence(Field.REAL, np.array([[1.0, 0.0], [0.0, 1.0]])),
                          FrameSequence(Field.REAL, np.array([[0.0, 1.0], [1.0, 0.0]])))
    else:
        start = frames.random_pair(Field.REAL, 2, 4, 3)
    built_seeds = []
    original = np.random.default_rng

    def counting(*args, **kwargs):
        built_seeds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    for mode in (optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT):
        built_seeds.clear()
        cfg = optimizer.OptimizerConfig(mode=mode, seed=4, max_iters=50)
        res = optimizer.search(ConstraintSpec(np.full(start.n, 0.5)), Field.REAL, 2, cfg,
                               initial_pair=start)
        assert (res.status == optimizer.DEGENERATE_RETRACTION) == degenerate
        assert built_seeds == []


def test_converged_result_passes_structure_checks():
    spec = ConstraintSpec(np.ones(3))
    cfg = optimizer.OptimizerConfig(seed=7, max_iters=5000)
    res = optimizer.search(spec, Field.REAL, 2, cfg)
    cls = structure.classify(res.final_pair, spec, critical_tol=1e-6)
    assert cls.f_eigen_residuals.max() <= 1e-4
    dec = structure.decompose(res.final_pair, spec, critical_tol=1e-6)
    assert dec.dim_span >= 1


def _sliced(spec, field_, d, cfg, width):
    """``search`` run as slices of ``width`` iterations, each resumed from the
    previous slice's ``final_pair`` (as the benchmark's chains resume), and
    stitched into one result: the histories without each slice's repeated
    start, the last slice's pair."""
    merit, objective, start = [], [], None
    while True:
        left = cfg.max_iters - max(len(merit) - 1, 0)
        run = dataclasses.replace(cfg, max_iters=min(width, left))
        res = optimizer.search(spec, field_, d, run, initial_pair=start)
        merit += res.merit_history[len(merit) > 0:]
        objective += res.objective_history[len(objective) > 0:]
        if (res.status != optimizer.MAX_ITERS or len(res.merit_history) - 1 < width
                or len(merit) - 1 == cfg.max_iters):
            return dataclasses.replace(res, merit_history=merit, objective_history=objective)
        start = res.final_pair


def _result_bits(res, spec):
    """Everything a SearchResult reports, and the critical report of its
    final pair, as comparable bytes and values."""
    pair = res.final_pair
    rep = structure.critical_report(pair, spec)
    return (res.status, res.restart_seed, res.merit_history, res.objective_history,
            pair.f.vectors.tobytes(), pair.g.vectors.tobytes(),
            rep.c.tobytes(), rep.f_residuals.tobytes(), rep.g_residuals.tobytes(),
            rep.is_critical, rep.tol, rep.mixed_norm,
            res.constraint_residual_final, res.dual_deviation)


# (d, N, K): the ladder priced 4 trials at a time, and one at a time
RESUME_SHAPES = [(2, 4, 4), (16, 48, 1)]


@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
@pytest.mark.parametrize("d,n,k", RESUME_SHAPES, ids=["K4", "K1"])
def test_slices_resumed_from_final_pair_equal_one_whole_run(field, mode, d, n, k):
    """A search resumed from the final pair of the last continues it bit
    for bit: slices of 1 and 3 iterations stitch into the whole run's
    histories, final F and G and the report of that pair."""
    assert min(max(optimizer._STACK_ELEMENTS // (n * d), 1), 4) == k
    spec = ConstraintSpec(np.full(n, d / n))
    cfg = optimizer.OptimizerConfig(mode=mode, seed=5, max_iters=12)
    whole = optimizer.search(spec, field, d, cfg)
    assert len(whole.merit_history) > 4  # the run spans several slices
    for width in (1, 3):
        assert _result_bits(_sliced(spec, field, d, cfg, width), spec) == _result_bits(whole, spec)


def _kept_bits(pair, alpha):
    """The state a search result on ``alpha`` keeps to resume from, its last
    kernel output as is under alpha's bytes, as bytes and values; each of
    its 7 arrays must be read-only."""
    terms = pair._memo[("resume", alpha.tobytes())]
    assert isinstance(terms, structure._MeritTerms) and terms.tu is pair._memo["TU*"]
    arrays = [x for x in terms if isinstance(x, np.ndarray)]
    assert len(arrays) == 7 and not any(a.flags.writeable for a in arrays)
    scalars = [repr(x) for x in terms if not isinstance(x, np.ndarray)]
    return [a.tobytes() for a in arrays] + scalars


@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
def test_resumed_start_makes_no_retraction_or_kernel_pass(monkeypatch, field, mode):
    """A search resumed from a result on the same alpha neither checks its
    start's rows (its <f_m, g_m> are alpha_m != 0), retracts it nor runs
    the kernel on it; resuming the same pair twice gives the same result,
    and leaves the pair's kept state as it was."""
    spec = ConstraintSpec(np.full(4, 0.5))
    cfg = optimizer.OptimizerConfig(mode=mode, seed=3, max_iters=3)
    pair = optimizer.search(spec, field, 2, cfg).final_pair
    alpha = spec.require_field(field)
    kept = _kept_bits(pair, alpha)
    retracted, starts, checked = [], [], []
    retraction, kernel = frames._retraction, structure._merit_terms
    require_nonzero = FramePair.require_nonzero

    def counting_retraction(fv, gv, alpha):
        retracted.append(fv is pair.f.vectors)
        return retraction(fv, gv, alpha)

    def counting_kernel(fv, gv, *rest):
        starts.append(not rest)  # only a start's pass forms its own TU*
        return kernel(fv, gv, *rest)

    monkeypatch.setattr(frames, "_retraction", counting_retraction)
    monkeypatch.setattr(structure, "_merit_terms", counting_kernel)
    monkeypatch.setattr(FramePair, "require_nonzero",
                        lambda self: (checked.append(self), require_nonzero(self))[1])
    first = optimizer.search(spec, field, 2, cfg, initial_pair=pair)
    assert retracted and not any(retracted) and starts and not any(starts) and checked == []
    assert _result_bits(optimizer.search(spec, field, 2, cfg, initial_pair=pair), spec) == \
        _result_bits(first, spec)
    assert _kept_bits(pair, alpha) == kept


@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
def test_other_starts_are_retracted(monkeypatch, field, mode):
    """Only the pair a search returned, on the alpha it searched, resumes:
    that pair on another alpha (over C also on the same alpha with -0.0
    imaginary parts, whose bytes differ), a pair of copies of its vectors,
    a pair rebuilt from its sequences and its swapped pair (the last two
    keep no state) have their rows checked and are retracted like any
    start, and give the result of a start that never carried state."""
    spec = ConstraintSpec(np.full(4, 0.5))
    cfg = optimizer.OptimizerConfig(mode=mode, seed=3, max_iters=3)
    pair = optimizer.search(spec, field, 2, cfg).final_pair
    swapped = pair.swapped()
    assert set(pair._memo) == {"TU*", ("resume", spec.require_field(field).tobytes())}
    assert not swapped._memo
    copies = FramePair(FrameSequence(field, pair.f.vectors.copy()),
                       FrameSequence(field, pair.g.vectors.copy()))
    retracted, checked = [], []
    retraction, require_nonzero = frames._retraction, FramePair.require_nonzero

    def counting_retraction(fv, gv, alpha):
        retracted.append(fv)
        return retraction(fv, gv, alpha)

    monkeypatch.setattr(frames, "_retraction", counting_retraction)
    monkeypatch.setattr(FramePair, "require_nonzero",
                        lambda self: (checked.append(self), require_nonzero(self))[1])
    other = ConstraintSpec(np.array([0.5, 0.5, 0.5, 0.25]))
    rebuilt = FramePair(pair.f, pair.g)
    starts = [(pair, other), (copies, spec), (rebuilt, spec), (swapped, spec)]
    if field is Field.COMPLEX:
        starts.append((pair, ConstraintSpec(np.full(4, complex(0.5, -0.0)))))
    for start, on in starts:
        stateless = FramePair(FrameSequence(field, start.f.vectors.copy()),
                              FrameSequence(field, start.g.vectors.copy()))
        retracted.clear()
        checked.clear()
        res = optimizer.search(on, field, 2, cfg, initial_pair=start)
        assert retracted[0] is start.f.vectors and checked[0] is start
        assert _result_bits(res, on) == _result_bits(
            optimizer.search(on, field, 2, cfg, initial_pair=stateless), on)


def test_degenerate_and_converged_results_resume_as_they_ended(monkeypatch, field):
    """A result whose start was degenerate keeps no state to resume from: a
    search from its pair retracts that pair again and ends
    DEGENERATE_RETRACTION again.  A CONVERGED result resumed ends CONVERGED
    after 0 iterations, with its pair's bytes and its report unchanged."""
    f = FrameSequence(field, np.array([[1.0, 0.0], [0.0, 1.0]]))
    g = FrameSequence(field, np.array([[0.0, 1.0], [1.0, 0.0]]))
    spec, cfg = ConstraintSpec(np.ones(2)), optimizer.OptimizerConfig(seed=4, max_iters=50)
    res = optimizer.search(spec, field, 2, cfg, initial_pair=FramePair(f, g))
    assert res.status == optimizer.DEGENERATE_RETRACTION and set(res.final_pair._memo) == {"TU*"}
    retracted = []
    retraction = frames._retraction

    def counting_retraction(fv, gv, alpha):
        retracted.append(fv is res.final_pair.f.vectors)
        return retraction(fv, gv, alpha)

    monkeypatch.setattr(frames, "_retraction", counting_retraction)
    again = optimizer.search(spec, field, 2, cfg, initial_pair=res.final_pair)
    assert retracted == [True] and again.status == optimizer.DEGENERATE_RETRACTION

    spec = ConstraintSpec(np.full(4, 0.5) if field is Field.REAL else np.ones(3))
    cfg = optimizer.OptimizerConfig(seed=0, max_iters=2000)
    res = optimizer.search(spec, field, 2, cfg)
    assert res.status == optimizer.CONVERGED and len(res.merit_history) > 1
    retracted.clear()
    resumed = optimizer.search(spec, field, 2, cfg, initial_pair=res.final_pair)
    assert retracted == [] and resumed.status == optimizer.CONVERGED
    assert resumed.merit_history == res.merit_history[-1:]  # 0 iterations
    assert _result_bits(dataclasses.replace(resumed, merit_history=res.merit_history,
                                            objective_history=res.objective_history),
                        spec) == _result_bits(res, spec)
