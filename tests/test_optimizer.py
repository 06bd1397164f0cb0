import numpy as np
import pytest

from conftest import retracted_random
from mixedframes import fixtures, frames, optimizer, structure
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


def _potential_part(objective):
    def value(pair):
        v = complex(np.sum(frames.cross_gram(pair) * frames.cross_gram(pair).T))
        return v.real if objective == optimizer.REAL_PART else v.imag

    return value


@pytest.mark.parametrize("objective", [optimizer.REAL_PART, optimizer.IMAG_PART])
def test_gradient_against_finite_differences(field, objective):
    if field is Field.REAL and objective == optimizer.IMAG_PART:
        pytest.skip("the potential is real over R")
    rng = np.random.default_rng(61)
    for trial in range(20):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        pair = frames.random_pair(field, d, n, 2000 + trial)
        gf, gg = optimizer.fp_gradient(pair, objective)
        ef, eg = _fd_gradient(pair, _potential_part(objective))
        scale = max(1.0, float(np.linalg.norm(ef)), float(np.linalg.norm(eg)))
        assert np.linalg.norm(gf - ef) / scale <= 1e-5
        assert np.linalg.norm(gg - eg) / scale <= 1e-5


def test_merit_gradient_against_finite_differences(field):
    """The reverse-mode merit gradient of CRITICAL_SEARCH is the gradient
    of merit(retract_to_constraint(.)), for random nonuniform complex alpha."""
    rng = np.random.default_rng(64)
    is_real = field is Field.REAL
    for trial in range(20):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        alpha = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-1.0, 1.0, n))
        spec = ConstraintSpec(alpha)
        pair = frames.random_pair(field, d, n, 2200 + trial)

        def value(p):
            return optimizer.merit(frames.retract_to_constraint(p, spec))

        m, gf, gg = optimizer._merit_and_gradient(
            pair.f.vectors, pair.g.vectors, spec.alpha, is_real
        )
        assert m == pytest.approx(value(pair), rel=1e-12, abs=1e-14)
        ef, eg = _fd_gradient(pair, value)
        scale = max(1.0, float(np.linalg.norm(ef)), float(np.linalg.norm(eg)))
        assert np.linalg.norm(gf - ef) / scale <= 1e-5
        assert np.linalg.norm(gg - eg) / scale <= 1e-5
        if is_real:
            assert not np.any(gf.imag) and not np.any(gg.imag)


def test_merit_gradient_vanishes_at_critical_fixtures():
    for name in ("FX-ONB2", "FX-MB", "FX-MIX", "FX-IMAG"):
        pair, spec = fixtures.fixture(name)
        _, gf, gg = optimizer._merit_and_gradient(
            pair.f.vectors, pair.g.vectors, spec.alpha, pair.field is Field.REAL
        )
        assert np.sqrt(np.vdot(gf, gf).real + np.vdot(gg, gg).real) <= 1e-10, name


def test_gradient_rejects_unknown_objective():
    pair = frames.random_pair(Field.REAL, 2, 2, 0)
    with pytest.raises(ValueError):
        optimizer.fp_gradient(pair, "MODULUS")


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
            for vf, vg in optimizer.constraint_gradients(pair, m):
                ip = np.vdot(vf, pf[m]).real + np.vdot(vg, pg[m]).real
                assert abs(ip) <= 1e-10 * (1 + np.linalg.norm(vf) + np.linalg.norm(vg))


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
    with pytest.raises(ValueError):
        optimizer.OptimizerConfig(step_size=0.0)
    with pytest.raises(ValueError):
        optimizer.OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        optimizer.OptimizerConfig(restarts=-1)
    cfg = optimizer.OptimizerConfig(seed=5, restarts=2)
    assert optimizer.OptimizerConfig.from_dict(cfg.to_dict()) == cfg


def test_critical_search_converges():
    spec = ConstraintSpec(np.ones(3))
    cfg = optimizer.OptimizerConfig(
        mode=optimizer.CRITICAL_SEARCH, seed=7, max_iters=5000, merit_tol=1e-16
    )
    res = optimizer.search(spec, Field.REAL, 2, cfg)
    assert res.status == optimizer.CONVERGED
    assert res.merit_history[-1] <= 1e-10
    assert res.constraint_residual_final <= 1e-10
    assert res.critical_report_final is not None
    assert res.critical_report_final.is_critical


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


def test_restart_ranking_prefers_dual():
    """With sum alpha = d, restarts should surface a near-dual pair."""
    spec = ConstraintSpec(np.full(4, 0.5))
    cfg = optimizer.OptimizerConfig(seed=3, restarts=7, max_iters=2000)
    res = optimizer.search(spec, Field.REAL, 2, cfg)
    assert res.status == optimizer.CONVERGED
    assert res.dual_deviation <= 1e-6


def test_critical_search_large_size():
    """One iteration at (d, N) = (64, 192) costs a few merit evaluations and
    O(N^2 + N d) memory, not one merit evaluation per real coordinate."""
    spec = ConstraintSpec(np.ones(192))
    cfg = optimizer.OptimizerConfig(mode=optimizer.CRITICAL_SEARCH, seed=1, max_iters=2)
    res = optimizer.search(spec, Field.REAL, 64, cfg)
    assert res.status == optimizer.MAX_ITERS
    assert len(res.merit_history) == 3
    assert all(b < a for a, b in zip(res.merit_history, res.merit_history[1:]))


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
    """An orthogonal starting pairing is re-randomized, not fatal."""
    f = FrameSequence(Field.REAL, np.array([[1.0, 0.0], [0.0, 1.0]]))
    g = FrameSequence(Field.REAL, np.array([[0.0, 1.0], [1.0, 0.0]]))
    spec = ConstraintSpec(np.ones(2))
    cfg = optimizer.OptimizerConfig(seed=4, max_iters=2000)
    res = optimizer.search(spec, Field.REAL, 2, cfg, initial_pair=FramePair(f, g))
    assert res.status in (optimizer.CONVERGED, optimizer.MAX_ITERS)
    assert res.constraint_residual_final <= 1e-10


def test_converged_result_passes_structure_checks():
    spec = ConstraintSpec(np.ones(3))
    cfg = optimizer.OptimizerConfig(seed=7, max_iters=5000)
    res = optimizer.search(spec, Field.REAL, 2, cfg)
    cls = structure.classify(res.final_pair, spec, critical_tol=1e-6)
    assert cls.f_eigen_residuals.max() <= 1e-4
    dec = structure.decompose(res.final_pair, spec, critical_tol=1e-6)
    assert dec.dim_span >= 1
