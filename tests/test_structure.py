import numpy as np
import pytest

from conftest import retracted_random
from mixedframes import fixtures, frames, structure
from mixedframes.errors import (
    NotCriticalError,
    NumericalFailureError,
    ZeroAlphaError,
    ZeroVectorError,
)
from mixedframes.frames import ConstraintSpec, Field, FramePair, FrameSequence


def test_critical_fixtures():
    for name in ("FX-ONB2", "FX-SCALE", "FX-D1", "FX-MB", "FX-IMAG", "FX-MIX"):
        pair, spec = fixtures.fixture(name)
        rep = structure.critical_report(pair, spec)
        assert rep.is_critical, name
        assert rep.max_residual <= 1e-12, name


def test_critical_multipliers_mb():
    """Mercedes-Benz self-pair: c_m = 1/2 at every index."""
    pair, spec = fixtures.fixture("FX-MB")
    rep = structure.critical_report(pair, spec)
    assert np.allclose(rep.c, 0.5, atol=1e-12)


def test_critical_multipliers_onb():
    pair, spec = fixtures.fixture("FX-ONB2")
    rep = structure.critical_report(pair, spec)
    assert np.allclose(rep.c, 0.0, atol=1e-14)


def test_perturbed_pair_not_critical():
    pair, spec = fixtures.fixture("FX-MB")
    fv = pair.f.vectors.copy()
    fv[0] += np.array([0.05, 0.0])
    bad = FramePair(FrameSequence(Field.REAL, fv), pair.g)
    bad = frames.retract_to_constraint(bad, spec)
    rep = structure.critical_report(bad, spec)
    assert not rep.is_critical


def test_random_pair_not_critical():
    for seed in range(5):
        pair, spec = retracted_random(Field.COMPLEX, 3, 5, 40 + seed)
        rep = structure.critical_report(pair, spec)
        assert not rep.is_critical


def test_critical_report_rejects_zero_vector():
    f = FrameSequence(Field.REAL, np.array([[1.0], [0.0]]))
    g = FrameSequence(Field.REAL, np.array([[1.0], [1.0]]))
    pair = FramePair(f, g)
    spec = ConstraintSpec(np.diag(frames.cross_gram(pair)))
    with pytest.raises(ZeroVectorError) as info:
        structure.critical_report(pair, spec)
    assert info.value.index == 1


def test_eigenvalue_relation():
    """At a critical pair, f_m is a TU*-eigenvector at alpha_m + c_m."""
    for name in ("FX-MB", "FX-MIX", "FX-IMAG"):
        pair, spec = fixtures.fixture(name)
        rep = structure.critical_report(pair, spec)
        tu = frames.mixed_operator(pair)
        for m in range(pair.n):
            lam = spec.alpha[m] + rep.c[m]
            res = np.linalg.norm(tu @ pair.f.vectors[m] - lam * pair.f.vectors[m])
            assert res <= 1e-12, name


def test_classify_mb():
    pair, spec = fixtures.fixture("FX-MB")
    cls = structure.classify(pair, spec)
    assert len(cls.distinct_eigenvalues) == 1
    assert cls.distinct_eigenvalues[0] == pytest.approx(1.5, abs=1e-12)
    assert cls.index_sets == [[0, 1, 2]]
    assert cls.f_eigen_residuals.max() <= 1e-12
    assert cls.g_eigen_residuals.max() <= 1e-12


def test_classify_mix():
    pair, spec = fixtures.fixture("FX-MIX")
    cls = structure.classify(pair, spec)
    assert len(cls.distinct_eigenvalues) == 2
    # deterministic order: descending real part
    assert cls.distinct_eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
    assert cls.distinct_eigenvalues[1] == pytest.approx(1.5, abs=1e-12)
    assert cls.index_sets == [[0], [1, 2, 3]]
    assert list(cls.assigned) == [0, 1, 1, 1]
    # span of the Mercedes-Benz group fills a 2-plane
    assert cls.right_span_bases[1].shape == (2, 3)


def test_classify_rejects_non_critical():
    pair, spec = retracted_random(Field.REAL, 2, 3, 55)
    with pytest.raises(NotCriticalError) as info:
        structure.classify(pair, spec)
    assert info.value.report is not None
    assert not info.value.report.is_critical


def test_generalized_biorthogonal():
    pair, spec = fixtures.fixture("FX-ONB2")
    assert structure.check_generalized_biorthogonal(pair, spec, [0, 1]) <= 1e-15
    assert structure.check_generalized_biorthogonal(pair, spec, []) == 0.0
    with pytest.raises(ZeroAlphaError):
        structure.check_generalized_biorthogonal(
            pair, ConstraintSpec(np.array([1.0, 0.0])), [0, 1]
        )


def test_a_generalized_dual_per_cluster():
    """Each eigenvalue group is a lambda_j-generalized dual frame on its span."""
    for name in ("FX-MB", "FX-MIX", "FX-SCALE"):
        pair, spec = fixtures.fixture(name)
        cls = structure.classify(pair, spec)
        for lam, idx in zip(cls.distinct_eigenvalues, cls.index_sets):
            res = structure.check_a_generalized_dual(pair, idx, lam)
            assert res <= 1e-10, (name, idx)
    with pytest.raises(ValueError):
        structure.check_a_generalized_dual(pair, [], 1.0)


def test_principal_sqrt():
    assert structure.principal_sqrt(4.0) == 2.0
    assert structure.principal_sqrt(-1.0) == pytest.approx(1j)
    w = structure.principal_sqrt(3.0 - 4.0j)
    assert w * w == pytest.approx(3.0 - 4.0j)
    assert w.real >= 0


def test_decompose_mix():
    pair, spec = fixtures.fixture("FX-MIX")
    dec = structure.decompose(pair, spec)
    assert dec.group == [1, 2, 3]  # 0-based; reported 1-based as {2,3,4}
    assert dec.complement == [0]
    assert dec.a == pytest.approx(1.5, abs=1e-12)
    assert dec.dim_span == 2
    assert dec.biorthogonality_residual <= 1e-10
    assert dec.dual_frame_residual <= 1e-10
    assert dec.cross_orthogonality_residual <= 1e-10
    assert dec.a_eigenvalue_gap <= 1e-10
    # the lambda = 2 singleton, w-normalized, is biorthogonal
    assert len(dec.normalized_groups) == 1
    grp = dec.normalized_groups[0]
    assert grp.indices == [0]
    assert grp.eigenvalue == pytest.approx(2.0, abs=1e-12)
    assert grp.w == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert grp.biorthogonality_residual <= 1e-12


def test_decompose_single_group():
    pair, spec = fixtures.fixture("FX-MB")
    dec = structure.decompose(pair, spec)
    assert dec.group == [0, 1, 2]
    assert dec.complement == []
    assert dec.a == pytest.approx(1.5, abs=1e-12)
    assert dec.normalized_groups == []


def test_decompose_normalized_biorthogonality_identity():
    """<f_l / w, g_m / conj(w)> = <f_l, g_m> / lambda must hit delta_lm."""
    pair, spec = fixtures.fixture("FX-MIX")
    dec = structure.decompose(pair, spec)
    gram = frames.cross_gram(pair)
    for grp in dec.normalized_groups:
        idx = grp.indices
        assert grp.w**2 == pytest.approx(grp.eigenvalue, abs=1e-12)
        for a, l in enumerate(idx):
            for b, m in enumerate(idx):
                val = gram[l, m] / (grp.w * np.conj(np.conj(grp.w)))
                assert val == pytest.approx(1.0 if a == b else 0.0, abs=1e-10)


def test_decompose_requires_nonzero_alpha():
    pair, _ = fixtures.fixture("FX-ONB2")
    with pytest.raises(ZeroAlphaError):
        structure.decompose(pair, ConstraintSpec(np.array([1.0, 0.0])))


def test_proposition_applicability():
    pair, _ = fixtures.fixture("FX-MB")
    assert structure.proposition_applicability(pair) == structure.REAL_PART_SUFFICES
    pair, _ = fixtures.fixture("FX-IMAG")
    assert structure.proposition_applicability(pair) == structure.IMAG_PART_SUFFICES
    # rank-deficient mixed operator: not injective
    f = FrameSequence(Field.REAL, np.array([[1.0, 0.0]]))
    pair = FramePair(f, f)
    assert structure.proposition_applicability(pair) == structure.NOT_INJECTIVE
    # genuinely complex eigenvalue
    fv = np.array([[1.0 + 0.5j, 0.0], [0.0, 1.0]])
    gv = np.array([[1.0, 0.0], [0.0, 1.0]])
    pair = FramePair(FrameSequence(Field.COMPLEX, fv), FrameSequence(Field.COMPLEX, gv))
    assert structure.proposition_applicability(pair) == structure.BOTH_SUFFICE


def test_corollary_dual_fixture():
    pair, spec = fixtures.fixture("FX-ONB2")
    rep = structure.corollary_check(pair, spec)
    assert rep.verdict == structure.CONDITIONS_MET
    assert rep.is_dual_pair
    assert rep.fp_equals_d
    assert rep.spectrum_all_real
    assert rep.alpha_sum_equals_d


def test_corollary_non_dual_fixtures():
    for name in ("FX-SCALE", "FX-IMAG"):
        pair, spec = fixtures.fixture(name)
        rep = structure.corollary_check(pair, spec)
        assert rep.verdict == structure.CONDITIONS_FAILED, name
        assert not rep.is_dual_pair, name


def test_corollary_imag_spectrum_flag():
    pair, spec = fixtures.fixture("FX-IMAG")
    rep = structure.corollary_check(pair, spec)
    assert not rep.spectrum_all_real
