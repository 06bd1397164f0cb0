import numpy as np
import pytest

from conftest import retracted_random
from mixedframes import fixtures, frames, linalg, potential
from mixedframes.errors import ConstraintViolationError
from mixedframes.frames import ConstraintSpec, Field, FramePair, FrameSequence


def test_direct_matches_brute_force(field):
    """fp_direct against the literal double sum over inner products."""
    rng = np.random.default_rng(21)
    for trial in range(15):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        pair = frames.random_pair(field, d, n, 500 + trial)
        fv, gv = pair.f.vectors, pair.g.vectors
        brute = sum(
            np.vdot(gv[n_], fv[m]) * np.vdot(gv[m], fv[n_])
            for m in range(n)
            for n_ in range(n)
        )
        assert potential.fp_direct(pair).value == pytest.approx(brute, abs=1e-10)


def test_trace_form_agrees(field):
    rng = np.random.default_rng(22)
    for trial in range(30):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(d, 4 * d + 1))
        pair = frames.random_pair(field, d, n, 700 + trial)
        direct = potential.fp_direct(pair).value
        trace = potential.fp_trace(pair).value
        assert abs(direct - trace) <= 1e-9 * (1 + abs(direct))


def test_swap_conjugates():
    for seed in range(10):
        pair = frames.random_pair(Field.COMPLEX, 3, 5, seed)
        direct = potential.fp_direct(pair).value
        swapped = potential.fp_swap(pair).value
        assert swapped == pytest.approx(np.conj(direct), rel=1e-10)


def test_real_field_potential_is_real():
    pair = frames.random_pair(Field.REAL, 3, 6, 77)
    assert potential.fp_direct(pair).value.imag == 0.0


def test_bf_potential_reduction():
    """With F = G the mixed potential reduces to the Benedetto-Fickus one."""
    for seed in range(8):
        seq = frames.random_pair(Field.COMPLEX, 3, 5, seed).f
        pair = FramePair(seq, seq)
        bf = potential.bf_potential(seq)
        assert potential.fp_direct(pair).value == pytest.approx(bf, rel=1e-12)
        assert bf >= 0.0


def test_fixture_values():
    expect = {
        "FX-ONB2": 2.0,
        "FX-SCALE": 8.0,
        "FX-D1": 1.0,
        "FX-MB": 4.5,
        "FX-IMAG": -1.0,
        "FX-MIX": 8.5,
    }
    for name, value in expect.items():
        pair, _ = fixtures.fixture(name)
        assert abs(potential.fp_direct(pair).value - value) <= 1e-12, name
        assert abs(potential.fp_trace(pair).value - value) <= 1e-12, name


def test_trace_identity():
    """Tr(TU*) = sum alpha on the constraint set."""
    rng = np.random.default_rng(30)
    for trial in range(40):
        field = Field.REAL if trial % 2 else Field.COMPLEX
        d, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        alpha = rng.standard_normal(n) + (
            1j * rng.standard_normal(n) if field is Field.COMPLEX else 0
        )
        alpha[np.abs(alpha) < 1e-3] = 1.0
        pair, spec = retracted_random(field, d, n, 900 + trial, alpha)
        op = frames.mixed_operator(pair)
        gap = abs(linalg.trace(op) - np.sum(spec.alpha))
        assert gap <= 1e-12 * (1 + linalg.frobenius_norm(op))


def test_classify_eigenvalue():
    assert potential.classify_eigenvalue(1.0 + 0j) == "real"
    assert potential.classify_eigenvalue(2.0j) == "imaginary"
    assert potential.classify_eigenvalue(1.0 + 1.0j) == "mixed"
    assert potential.classify_eigenvalue(0.0 + 0.0j) == "real"  # zero prefers real
    # guard scales with the modulus
    assert potential.classify_eigenvalue(1e6 + 1e-4j, class_tol=1e-8) == "real"


def test_classify_spectrum():
    assert potential.classify_spectrum([1.0, -2.0]) == potential.ALL_REAL
    assert potential.classify_spectrum([1j, -3j]) == potential.ALL_IMAGINARY
    assert potential.classify_spectrum([1.0, 1j]) == potential.MIXED


def test_bound_report_requires_membership():
    pair = frames.random_pair(Field.REAL, 2, 2, 0)
    with pytest.raises(ConstraintViolationError):
        potential.bound_report(pair, ConstraintSpec(np.array([50.0, 50.0])))


def test_bound_real_spectrum_lower():
    """Real-spectrum pairs sit above (sum alpha)^2 / d."""
    hits = 0
    rng = np.random.default_rng(31)
    for trial in range(40):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        alpha = rng.standard_normal(n)
        alpha[np.abs(alpha) < 1e-3] = 1.0
        pair, spec = retracted_random(Field.REAL, d, n, 1100 + trial, alpha)
        rep = potential.bound_report(pair, spec)
        if rep.spectrum_class != potential.ALL_REAL:
            continue
        hits += 1
        fp = potential.fp_direct(pair).value
        assert fp.real >= rep.bound.real - 1e-9
        assert rep.bound_status in (potential.LOWER_HOLDS, potential.EQUALITY)
    assert hits > 0  # the loop must actually exercise the bound


def test_bound_imaginary_equality_fixture():
    pair, spec = fixtures.fixture("FX-IMAG")
    rep = potential.bound_report(pair, spec)
    assert rep.spectrum_class == potential.ALL_IMAGINARY
    # single eigenvalue: the inequality is an equality, FP = (sum alpha)^2 / d
    assert rep.bound_status == potential.EQUALITY
    assert abs(rep.bound - (-1.0)) <= 1e-12
    assert abs(potential.fp_direct(pair).value - rep.bound) <= 1e-12


def test_bound_equality_scaled_identity_fixtures():
    for name in ("FX-SCALE", "FX-MB", "FX-ONB2"):
        pair, spec = fixtures.fixture(name)
        rep = potential.bound_report(pair, spec)
        assert rep.bound_status == potential.EQUALITY, name
        assert abs(potential.fp_direct(pair).value - rep.bound) <= 1e-12, name


def test_bound_decomposition_identity():
    """FP = R + iI with R, I the quadratic eigenvalue sums."""
    for seed in range(10):
        pair = frames.random_pair(Field.COMPLEX, 3, 4, seed)
        spec = ConstraintSpec(np.diag(frames.cross_gram(pair)))
        rep = potential.bound_report(pair, spec)
        fp = potential.fp_direct(pair).value
        assert fp == pytest.approx(complex(rep.r_value, rep.i_value), rel=1e-10)
        assert rep.trace_identity_residual <= 1e-10 * (1 + abs(rep.alpha_sum))


def test_scaled_identity_check():
    for name, a_expect in (("FX-ONB2", 1.0), ("FX-SCALE", 2.0), ("FX-MB", 1.5)):
        pair, spec = fixtures.fixture(name)
        ok, a, residual = potential.scaled_identity_check(pair, spec)
        assert ok, name
        assert a == pytest.approx(a_expect, abs=1e-12)
        assert residual <= 1e-12
        assert abs(a - np.sum(spec.alpha) / pair.d) <= 1e-10


def test_scaled_identity_complex_a():
    a_true = 1.0 + 1.0j
    f = FrameSequence(Field.COMPLEX, a_true * np.eye(2))
    g = FrameSequence(Field.COMPLEX, np.eye(2))
    pair = FramePair(f, g)
    spec = ConstraintSpec(np.diag(frames.cross_gram(pair)))
    ok, a, _ = potential.scaled_identity_check(pair, spec)
    assert ok
    assert a == pytest.approx(a_true)


def test_scaled_identity_negative():
    pair, _ = fixtures.fixture("FX-D1")
    # d = 1: any operator is trivially scalar, so build a d = 2 non-example
    pair, spec = retracted_random(Field.REAL, 2, 3, 12)
    ok, _, residual = potential.scaled_identity_check(pair, spec)
    assert not ok
    assert residual > 1e-6
