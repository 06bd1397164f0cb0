import itertools
import re

import numpy as np
import pytest

from conftest import retracted_random
from mixedframes import fixtures, frames, linalg, structure
from mixedframes.errors import (
    ClusterAmbiguityError,
    DimensionMismatchError,
    MixedFramesError,
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


def _kernel_case(case):
    """A pair and spec for the report on a pair a search returns, which
    carries its last kernel output: critical, off S(alpha), a zero f_m,
    a zero g_m."""
    if case in ("critical", "off-constraint"):
        pair, spec = fixtures.fixture("FX-MIX")
        return pair, ConstraintSpec(spec.alpha * (1.01 if case == "off-constraint" else 1.0))
    zero = np.array([[1.0], [0.0]])
    f, g = (zero, np.ones((2, 1))) if case == "zero-f" else (np.ones((2, 1)), zero)
    pair = FramePair(FrameSequence(Field.REAL, f), FrameSequence(Field.REAL, g))
    return pair, ConstraintSpec(np.diag(frames.cross_gram(pair)))


@pytest.mark.parametrize("case", ["critical", "off-constraint", "zero-f", "zero-g"])
def test_report_from_kernel_terms_matches_critical_report(case):
    """On a pair seeded, as a search seeds the pair it returns, with the
    resume state of its kernel output, ``critical_report``
    checks the pair as on a fresh pair and raises what it raises, with the
    same message, or returns its report bit for bit."""
    pair, spec = _kernel_case(case)
    fv, gv = pair.f.vectors, pair.g.vectors
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero f_m divides by ||f_m||^2
        terms = structure._merit_terms(fv, gv)
    seeded = FramePair(FrameSequence(pair.field, fv.copy()), FrameSequence(pair.field, gv.copy()))
    seeded._derived(("resume", spec.require_field(pair.field).tobytes()), lambda: terms)
    try:
        want = structure.critical_report(pair, spec)
    except MixedFramesError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            structure.critical_report(seeded, spec)
        assert case != "critical"
        return
    got = structure.critical_report(seeded, spec)
    for name in ("c", "f_residuals", "g_residuals", "is_critical", "tol", "mixed_norm"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert case == "critical"


def test_merit_gate_keeps_the_row_verdict():
    """Without row norms, ``_criticality`` decides "not critical" from the
    merit alone only where the row norms say so too: on perturbed fixtures,
    at tolerances that put the largest row residual below and above
    tol (1 + ||TU*||_F), the gated verdict is the full one."""
    rng = np.random.default_rng(7)
    gated = []
    for name in fixtures.FIXTURE_NAMES:
        pair, _ = fixtures.fixture(name)
        if pair.d == 1:  # every f_m is an eigenvector of a 1 x 1 TU*: residuals are round-off
            continue
        for eps in (1e-9, 1e-6, 1e-3, 1.0):
            gv = pair.g.vectors + eps * rng.standard_normal(pair.g.vectors.shape)
            terms = structure._merit_terms(pair.f.vectors, gv)
            full = structure._criticality(terms, 1.0)
            worst = max(full.f_residuals.max(), full.g_residuals.max()) / (1.0 + full.mixed_norm)
            for factor in (0.25, 0.7, 0.99, 1.01, 1.5, 4.0):
                want = structure._criticality(terms, factor * worst)
                got = structure._criticality(terms, factor * worst, rows=False)
                assert got.is_critical == want.is_critical == (factor > 1.0), (name, eps, factor)
                assert got.mixed_norm == want.mixed_norm
                gated.append(got.f_residuals is None)
    assert any(gated) and not all(gated)


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
    assert structure.decompose(pair, spec).dim_span == 2


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
    # the first zero alpha_m in sorted idx is named, whatever order idx is given in
    pair, _ = fixtures.fixture("FX-MIX")
    with pytest.raises(ZeroAlphaError, match="alpha_2 = 0 but a nonzero prescribed product") as info:
        structure.check_generalized_biorthogonal(
            pair, ConstraintSpec(np.array([1.0, 0.0, 2.0, 0.0])), [3, 0, 1]
        )
    assert info.value.index == 1


def test_generalized_biorthogonal_is_the_blockwise_max():
    """On every index set of FX-MIX, in any order, the residual is the
    larger of max |<f_m, g_m> - alpha_m| and the largest off-diagonal
    |<f_n, g_m>|, bit for bit; the A-dual residual ignores the order."""
    pair, spec = fixtures.fixture("FX-MIX")
    gram = frames.cross_gram(pair)
    for r in range(1, pair.n + 1):
        for idx in itertools.combinations(range(pair.n), r):
            sub = gram[np.ix_(idx, idx)]
            diag = np.abs(np.diag(sub) - spec.alpha[list(idx)]).max()
            off = np.abs(sub - np.diag(np.diag(sub))).max()
            assert structure.check_generalized_biorthogonal(pair, spec, idx[::-1]) == max(diag, off)
            assert (structure.check_a_generalized_dual(pair, idx[::-1], 1.5)
                    == structure.check_a_generalized_dual(pair, list(idx), 1.5))


@pytest.mark.parametrize("idx,message", [
    ([0, 0], "index 0 is given twice"),
    ([-1], "index -1 is outside 0..3"),
    ([4], "index 4 is outside 0..3"),
])
def test_index_sets_are_checked(idx, message):
    """A duplicate is not counted as an off-diagonal entry, -1 does not
    wrap to the last index and 4 raises no bare IndexError: each is a
    ValueError naming the index."""
    pair, spec = fixtures.fixture("FX-MIX")
    assert pair.n == 4
    with pytest.raises(ValueError, match=message):
        structure.check_generalized_biorthogonal(pair, spec, idx)
    with pytest.raises(ValueError, match=message):
        structure.check_a_generalized_dual(pair, idx, 1.0)


@pytest.mark.parametrize("n_alpha", [2, 6])
@pytest.mark.parametrize("idx", [[0, 1], [3]])
def test_generalized_biorthogonal_checks_alpha_length(n_alpha, idx):
    """An alpha of the wrong length is refused as constraint_residual
    refuses it, not read against the wrong m or past its end."""
    pair, _ = fixtures.fixture("FX-MIX")
    with pytest.raises(DimensionMismatchError, match=f"alpha has length {n_alpha}, pair has N = 4"):
        structure.check_generalized_biorthogonal(pair, ConstraintSpec(np.ones(n_alpha)), idx)


def test_cluster_chain_wider_than_radius_is_ambiguous():
    """F = I_3, G = diag(lambda), alpha = lambda = (1, 1 + 1.5e-6, 1 + 3e-6)
    is critical with c = 0; steps of 1.5e-6 chain all three eigenvalues
    into one cluster at radius 1e-6 (1 + 1.000003), but its diameter
    3e-6 exceeds that radius."""
    lam = np.array([1.0, 1.0 + 1.5e-6, 1.0 + 3e-6])
    pair = FramePair(FrameSequence(Field.REAL, np.eye(3)), FrameSequence(Field.REAL, np.diag(lam)))
    spec = ConstraintSpec(lam)
    assert structure.critical_report(pair, spec).is_critical
    with pytest.raises(ClusterAmbiguityError, match="diameter"):
        structure.classify(pair, spec)
    _assert_ambiguous_with_full_diameter(pair, spec)


def _assert_ambiguous_with_full_diameter(pair, spec):
    """classify refuses the pair's one cluster, naming the diameter as the
    maximum of |lam_l - lam_m| over all pairs of its members."""
    lam = spec.alpha + structure.critical_report(pair, spec).c
    diameter = np.abs(lam[:, None] - lam).max()
    radius = linalg.DEFAULT_CLUSTER_TOL * (1.0 + np.abs(lam).max())
    message = f"has diameter {diameter:.3e} > clustering radius {radius:.3e}"
    with pytest.raises(ClusterAmbiguityError, match=re.escape(message)):
        structure.classify(pair, spec)


def test_long_cluster_chain_is_ambiguous():
    """The chain above with 300 eigenvalues: its bounding box is wider than
    the radius, so its 300 x 300 pairwise maximum is taken, in two row
    blocks, and named in the error."""
    lam = 1.0 + 1.5e-6 * np.arange(300)
    pair = FramePair(FrameSequence(Field.REAL, np.eye(300)),
                     FrameSequence(Field.REAL, np.diag(lam)))
    spec = ConstraintSpec(lam)
    assert structure.critical_report(pair, spec).is_critical
    assert len(linalg._row_blocks(300, 300)) == 2
    _assert_ambiguous_with_full_diameter(pair, spec)


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


def test_a_generalized_dual_residual_is_basis_free():
    """The residual is the same on a unitarily rotated basis of each span."""
    pair = frames.random_pair(Field.COMPLEX, 4, 8, 3)
    idx = list(range(8))
    fv, gv, f_basis, g_basis = structure._span_bases(pair, idx, structure.DEFAULT_RANK_TOL)
    rng = np.random.default_rng(0)
    rotations = [np.linalg.qr(rng.standard_normal((len(b), len(b)))
                              + 1j * rng.standard_normal((len(b), len(b))))[0]
                 for b in (f_basis, g_basis)]
    for a in (1.0, 2.0, 0.5 - 1.5j):
        want = structure.check_a_generalized_dual(pair, idx, a)
        assert want == structure._a_dual_residual(fv, gv, f_basis, g_basis, a)
        got = structure._a_dual_residual(fv, gv, rotations[0] @ f_basis, rotations[1] @ g_basis, a)
        assert got == pytest.approx(want, rel=1e-12)


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


def test_decompose_group_below_rank_cut_is_numerical_failure():
    """A dual pair with F scaled by 1e-11 and G by 1e11: the rows of group
    I lie below the rank cut, so I spans nothing and A = sum alpha / dim
    span is undefined."""
    fv, gv = 1e-11 * np.eye(2), 1e11 * np.eye(2)
    pair = FramePair(FrameSequence(Field.REAL, fv), FrameSequence(Field.REAL, gv))
    spec = ConstraintSpec(np.sum(fv * gv, axis=1))
    with pytest.raises(NumericalFailureError, match="group I = \\[1, 2\\]"):
        structure.decompose(pair, spec)


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


def test_proposition_applicability_reads_neither_below_scale_one():
    """Pins today's verdict, a known defect (ROADMAP item 4): the
    real/imaginary guard PROPOSITION_TOL (1 + |lambda|) is absolute below
    scale 1.  FX-ONB2 (TU* = I) is REAL_PART_SUFFICES, but with F and G
    scaled by 1e-5 (TU* = 1e-10 I) each eigenvalue is within the guard of
    both axes, and the verdict reads NEITHER.  A scale-free guard moves
    this to REAL_PART_SUFFICES."""
    pair, _ = fixtures.fixture("FX-ONB2")
    assert structure.proposition_applicability(pair) == structure.REAL_PART_SUFFICES
    small = FramePair(FrameSequence(Field.REAL, 1e-5 * pair.f.vectors),
                      FrameSequence(Field.REAL, 1e-5 * pair.g.vectors))
    assert structure.proposition_applicability(small) == structure.NEITHER


def test_corollary_check_raises_on_a_dual_pair_that_fails_its_conditions(monkeypatch):
    """FX-MB fails the conditions (sum alpha = 3 > d = 2); read as dual, it
    contradicts the corollary's forward direction, a NumericalFailureError."""
    pair, spec = fixtures.fixture("FX-MB")
    assert structure.corollary_check(pair, spec).verdict == structure.CONDITIONS_FAILED
    monkeypatch.setattr(frames, "is_dual_pair", lambda p, tol: (True, 0.0))
    with pytest.raises(NumericalFailureError, match="a dual pair must satisfy"):
        structure.corollary_check(pair, spec)


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
