import warnings

import numpy as np
import pytest

from conftest import retracted_random
from mixedframes import fixtures, frames, optimizer
from mixedframes.errors import (
    ConstraintViolationError,
    DegeneratePairingError,
    DimensionMismatchError,
    MixedFramesError,
    NonFiniteError,
    NumericalFailureError,
    ZeroAlphaError,
    ZeroVectorError,
)
from mixedframes.frames import ConstraintSpec, Field, FramePair, FrameSequence


def test_sequence_validation():
    with pytest.raises(DimensionMismatchError):
        FrameSequence(Field.REAL, np.zeros((0, 2)))
    with pytest.raises(NonFiniteError):
        FrameSequence(Field.REAL, np.array([[np.nan, 0.0]]))
    with pytest.raises(MixedFramesError, match="must be real") as info:
        FrameSequence(Field.REAL, np.array([[1.0 + 1j, 0.0]]))
    assert type(info.value) is MixedFramesError  # not NonFiniteError: every entry is finite
    seq = FrameSequence(Field.COMPLEX, np.array([[1.0 + 1j, 0.0]]))
    assert seq.d == 2 and seq.n == 1
    # a strided (transposed) complex view is valid input
    seq_t = FrameSequence(Field.COMPLEX, (np.arange(6) + 1j).reshape(2, 3).T)
    assert seq_t.d == 2 and seq_t.n == 3
    with pytest.raises(ValueError):
        seq.vectors[0, 0] = 0.0  # storage is write-locked


def test_sequence_owns_its_vectors():
    """Construction copies: the caller's array stays writable, and later
    writes to it (or to its base) do not reach the validated vectors."""
    a = np.eye(2, dtype=np.complex128)
    seq = FrameSequence(Field.COMPLEX, a)
    assert a.flags.writeable
    a[0, 0] = np.nan
    assert seq.vectors[0, 0] == 1.0
    b = np.ones((3, 2), dtype=np.complex128)
    seq = FrameSequence(Field.COMPLEX, b[:])
    b[0, 0] = np.nan
    assert np.all(np.isfinite(seq.vectors))
    alpha = np.ones(3, dtype=np.complex128)
    spec = ConstraintSpec(alpha)
    alpha[0] = 0.0
    assert alpha.flags.writeable and spec.alpha[0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adopted_sequence_is_scanned_unless_known_finite(field, bad):
    """The constructor a search's result uses freezes the array it is
    handed, with no copy; unless the caller vouches that it is finite
    (a search's finite last merit), a non-finite entry (over C, in the
    imaginary part) raises."""
    dtype = np.float64 if field is Field.REAL else np.complex128
    a = np.eye(2, dtype=dtype)
    seq = FrameSequence._adopt(field, a, finite=True)
    assert seq.vectors is a and not a.flags.writeable and seq.field is field
    assert (seq.d, seq.n) == (2, 2)
    b = np.eye(2, dtype=dtype)
    b[1, 0] = bad if field is Field.REAL else complex(0.0, bad)
    with pytest.raises(NonFiniteError):
        FrameSequence._adopt(field, b, finite=False)


def test_constraint_spec_needs_alpha():
    with pytest.raises(DimensionMismatchError, match="alpha must be nonempty"):
        ConstraintSpec([])


@pytest.mark.parametrize("d,n", [(0, 3), (2, 0), (-1, 3), (2, -1)])
def test_random_pair_rejects_dimension_below_1(d, n):
    """Named by the generator's own check, not by a zero-width array or by
    NumPy's negative-shape error."""
    with pytest.raises(DimensionMismatchError, match="need d >= 1 and N >= 1"):
        frames.random_pair(Field.REAL, d, n, 0)


@pytest.mark.parametrize("n_alpha", [2, 6])
def test_alpha_length_is_checked_before_use(field, n_alpha):
    """constraint_residual and retract_to_constraint refuse an alpha whose
    length is not N, by the one ConstraintSpec rule, before any
    broadcast against the pair's rows."""
    pair = frames.random_pair(field, 2, 4, 3)
    spec = ConstraintSpec(np.ones(n_alpha))
    message = f"alpha has length {n_alpha}, pair has N = 4"
    with pytest.raises(DimensionMismatchError, match=message):
        frames.constraint_residual(pair, spec)
    with pytest.raises(DimensionMismatchError, match=message):
        frames.retract_to_constraint(pair, spec)


def test_pair_validation():
    f = FrameSequence(Field.REAL, np.eye(2))
    g3 = FrameSequence(Field.REAL, np.eye(3))
    with pytest.raises(DimensionMismatchError):
        FramePair(f, g3)
    gc = FrameSequence(Field.COMPLEX, np.eye(2))
    with pytest.raises(DimensionMismatchError):
        FramePair(f, gc)


@pytest.mark.parametrize("make", [
    lambda: fixtures.fixture("FX-MB")[0].f,
    lambda: fixtures.fixture("FX-MB")[0],
    lambda: fixtures.fixture("FX-MB")[1],
    lambda: optimizer.search(ConstraintSpec(np.ones(2)), Field.REAL, 1,
                             optimizer.OptimizerConfig(max_iters=1)),
], ids=["FrameSequence", "FramePair", "ConstraintSpec", "SearchResult"])
def test_frame_types_compare_and_hash_by_identity(make):
    """Two equal-valued objects of a type that holds arrays are distinct: ==,
    != and hashing raise nothing and go by identity, as the state a pair
    keeps is its own."""
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_operator_matrices_consistent():
    pair = frames.random_pair(Field.COMPLEX, 3, 5, 42)
    # TU* = sum_m f_m g_m^*, one outer product per index
    tu = sum(np.outer(f, g.conj()) for f, g in zip(pair.f.vectors, pair.g.vectors))
    assert np.allclose(tu, frames.mixed_operator(pair))


def test_cross_gram_entries():
    pair = frames.random_pair(Field.COMPLEX, 2, 3, 9)
    gram = frames.cross_gram(pair)
    for m in range(3):
        for n in range(3):
            expect = np.vdot(pair.g.vectors[n], pair.f.vectors[m])
            assert gram[m, n] == pytest.approx(expect)


def test_is_dual_pair():
    eye = FrameSequence(Field.REAL, np.eye(3))
    dual, dev = frames.is_dual_pair(FramePair(eye, eye))
    assert dual and dev == 0.0
    scaled = FrameSequence(Field.REAL, 2 * np.eye(3))
    dual, dev = frames.is_dual_pair(FramePair(scaled, eye))
    assert not dual
    assert dev == pytest.approx(np.sqrt(3.0))


def test_random_pair_deterministic(field):
    a = frames.random_pair(field, 3, 4, 17)
    b = frames.random_pair(field, 3, 4, 17)
    assert np.array_equal(a.f.vectors, b.f.vectors)
    assert np.array_equal(a.g.vectors, b.g.vectors)
    c = frames.random_pair(field, 3, 4, 18)
    assert not np.array_equal(a.f.vectors, c.f.vectors)


def test_retraction_exact_membership(field):
    rng = np.random.default_rng(1)
    for trial in range(25):
        d, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        alpha = rng.standard_normal(n) + (
            1j * rng.standard_normal(n) if field is Field.COMPLEX else 0
        )
        alpha[np.abs(alpha) < 1e-3] = 1.0
        pair, spec = retracted_random(field, d, n, 300 + trial, alpha)
        assert frames.constraint_residual(pair, spec).max() <= 1e-12 * (1 + np.abs(alpha).max())
        frames.require_membership(pair, spec)


def test_retraction_leaves_f_untouched():
    pair = frames.random_pair(Field.REAL, 2, 3, 5)
    spec = ConstraintSpec(np.ones(3))
    out = frames.retract_to_constraint(pair, spec)
    assert np.array_equal(out.f.vectors, pair.f.vectors)


def test_retraction_degenerate():
    f = FrameSequence(Field.REAL, np.array([[1.0, 0.0]]))
    g = FrameSequence(Field.REAL, np.array([[0.0, 1.0]]))  # orthogonal pairing
    with pytest.raises(DegeneratePairingError) as info:
        frames.retract_to_constraint(FramePair(f, g), ConstraintSpec(np.array([1.0])))
    assert info.value.index == 0


@pytest.mark.parametrize("side,index", [("f", 1), ("g", 0)])
def test_retraction_names_zero_vector(side, index):
    """A zero f_m or g_m has no rescaling: the index is named before the
    kernel divides by <f_m, g_m> = 0."""
    fv = np.array([[1.0, 0.0], [1.0, 1.0]])
    gv = np.array([[1.0, 2.0], [0.5, 1.0]])
    (fv if side == "f" else gv)[index] = 0.0
    pair = FramePair(FrameSequence(Field.REAL, fv), FrameSequence(Field.REAL, gv))
    with pytest.raises(ZeroVectorError) as info, np.errstate(all="raise"):
        frames.retract_to_constraint(pair, ConstraintSpec(np.ones(2)))
    assert info.value.index == index
    assert str(info.value).startswith(f"{side}_{index + 1} ")


@pytest.mark.parametrize("s", [1e-150, 1e-80, 1.0, 1e80, 1e150])
def test_degeneracy_decisions_hold_across_scales(field, s):
    """With F and G scaled by s, the retraction raises exactly where
    |<f_m, g_m>| < cut ||f_m|| ||g_m|| with the norms from np.linalg.norm,
    for pairings at 0 to 2 times the cut: the cut does not multiply
    squares, which would underflow near s = 1e-80.  Row 1 is paired at
    ratio times the cut, row 0 well."""
    w = np.exp(0.7j) if field is Field.COMPLEX else 1.0
    alpha = np.full(2, s * s)
    for ratio in (0.0, 0.5, 0.999, 1.001, 2.0):
        fv = s * np.array([[1.0, 0.5 * w], [1.0, 0.0]])
        gv = s * np.array([[1.0, 0.25 * w], [ratio * frames._DEGENERACY_CUT * w, 1.0]])
        pair = FramePair(FrameSequence(field, fv), FrameSequence(field, gv))
        pair.require_nonzero()
        fv, gv = pair.f.vectors, pair.g.vectors
        ip = np.sum(fv * gv.conj(), axis=1)
        cut = frames._DEGENERACY_CUT * np.linalg.norm(fv, axis=1) * np.linalg.norm(gv, axis=1)
        degenerate = np.abs(ip) < cut
        assert degenerate.tolist() == [False, ratio < 1.0]
        if degenerate.any():
            with pytest.raises(DegeneratePairingError) as info:
                frames._retraction(fv, gv, alpha)
            assert info.value.index == 1
        else:
            assert np.isfinite(frames._retraction(fv, gv, alpha)).all()


def test_retraction_of_a_stack_stops_at_its_first_degenerate_trial(field):
    """A stack (K, N, d) of trials is retracted up to its first trial with
    a degenerate pairing, which comes back missing with every trial after
    it: nothing divides by the orthogonal pairing, so nothing warns.  A
    stack led by that trial, and the (N, d) call on it, raise at the
    pairing's index."""
    p = frames.random_pair(field, 2, 3, 0)
    fv, gv = np.stack([p.f.vectors] * 3), np.stack([p.g.vectors] * 3)
    gv[1, 2] = [-np.conj(fv[1, 2, 1]), np.conj(fv[1, 2, 0])]  # orthogonal to f_3
    alpha = np.ones(3)
    with np.errstate(all="raise"):
        out = frames._retraction(fv, gv, alpha)
        assert out.shape == (1, 3, 2)
        assert out[0].tobytes() == frames._retraction(fv[0], gv[0], alpha).tobytes()
        for lead in (fv[1:], gv[1:]), (fv[1], gv[1]):
            with pytest.raises(DegeneratePairingError) as info:
                frames._retraction(*lead, alpha)
            assert info.value.index == 2


def test_retraction_of_subnormal_pairing(field):
    """A random (2, 3) pair scaled by 1e-155 has pairings near 1e-310,
    subnormal; with alpha = 1e10 <f_m, g_m> the quotient is a moderate
    1e10, and the retraction reaches it without overflow or warning."""
    p = frames.random_pair(field, 2, 3, 0)
    f, g = 1e-155 * p.f.vectors, 1e-155 * p.g.vectors
    ip = (f * g.conj()).sum(axis=1)
    assert (np.abs(ip) < np.finfo(np.float64).tiny).all()
    spec = ConstraintSpec(1e10 * ip)
    pair = FramePair(FrameSequence(field, f), FrameSequence(field, g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        retracted = frames.retract_to_constraint(pair, spec)
    assert (frames.constraint_residual(retracted, spec) / np.abs(spec.alpha)).max() <= 1e-14


def test_retraction_past_float64_is_scanned(field):
    """The retracted G is adopted, not copied, but still scanned: at
    F = G = [[1e-150]] and alpha = [1e300] the rescaling conj(alpha /
    <f, g>) = 1e600 overflows and NonFiniteError names it."""
    pair = FramePair(FrameSequence(field, [[1e-150]]), FrameSequence(field, [[1e-150]]))
    with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
        frames.retract_to_constraint(pair, ConstraintSpec([1e300]))


def test_retraction_keeps_ordinary_rows_bits(field):
    """Only a subnormal pairing's row takes the rescaled path: the other
    rows of G come out as the plain conj(alpha_m / <f_m, g_m>) g_m."""
    p = frames.random_pair(field, 2, 3, 1)
    f, g = p.f.vectors.copy(), p.g.vectors.copy()
    f[1], g[1] = 1e-155 * f[1], 1e-155 * g[1]
    ip = np.vecdot(g, f)
    ip1 = ip[1]
    alpha = np.array([1.5, 1e10 * ip1, 0.5 - 0.25j if field is Field.COMPLEX else -0.5])
    gr = frames._retraction(f, g, alpha)
    ip[1] = alpha[1] = 1.0  # the plain quotient would overflow in row 1
    plain = g * (alpha / ip).conj()[:, None]
    assert gr[[0, 2]].tobytes() == plain[[0, 2]].tobytes()
    assert abs((f[1] * gr[1].conj()).sum() - 1e10 * ip1) <= 1e-14 * abs(1e10 * ip1)


@pytest.mark.parametrize("side", ["f", "g"])
def test_row_too_small_to_square_is_zero(field, side):
    """A row of 1e-170 entries is nonzero, but its squared norm, the
    kernel's denominator, underflows to 0 (np.linalg.norm gives 0 too):
    require_nonzero names it before anything divides by it."""
    w = np.exp(0.7j) if field is Field.COMPLEX else 1.0
    fv = np.array([[1.0, 0.5 * w], [2.0, 1.0]])
    gv = np.array([[1.0, 0.25], [1.0, w]])
    (fv if side == "f" else gv)[1] = 1e-170 * np.array([1.0, w])
    pair = FramePair(FrameSequence(field, fv), FrameSequence(field, gv))
    assert np.linalg.norm((fv if side == "f" else gv)[1]) == 0.0
    with pytest.raises(ZeroVectorError) as info:
        pair.require_nonzero()
    assert info.value.index == 1
    assert str(info.value).startswith(f"{side}_2 ")


def test_retraction_rejects_nonreal_alpha_over_r():
    """Over R a complex alpha is refused, not retracted onto S(Re alpha)."""
    spec = ConstraintSpec(np.array([1 + 1j, 1.0]))
    with pytest.raises(MixedFramesError, match="must be real"):
        frames.retract_to_constraint(frames.random_pair(Field.REAL, 2, 2, 0), spec)
    pair = frames.retract_to_constraint(frames.random_pair(Field.COMPLEX, 2, 2, 0), spec)
    assert frames.constraint_residual(pair, spec).max() <= 1e-12


def test_error_details_are_keyword_only():
    """Every package error carries index, residual and report, None unless
    given, and only by keyword: a positional residual cannot land in index."""
    err = NumericalFailureError("boom", residual=0.5)
    assert (err.index, err.residual, err.report, str(err)) == (None, 0.5, None, "boom")
    assert ZeroVectorError("zero", index=2).index == 2
    with pytest.raises(TypeError):
        ConstraintViolationError("off", 0.5)


def test_zero_alpha_rejected():
    """The whole alpha, or alpha on a sorted index list: the first zero is
    named, and a zero outside the list is not looked at."""
    for alpha, idx, index in [
        ([1.0, 0.0], None, 1),
        ([0.0, 2.0, 0.0, 1j], None, 0),
        ([0.0, 2.0, 0.0, 1j], [1, 2, 3], 2),
        ([1.0, 0.0, 2.0, 0.0], [0, 1, 3], 1),
    ]:
        spec = ConstraintSpec(np.array(alpha))
        with pytest.raises(ZeroAlphaError, match=f"alpha_{index + 1} = 0 ") as info:
            spec.require_nonzero(idx)
        assert info.value.index == index
        spec.require_nonzero([m for m in range(spec.n) if alpha[m] != 0])


def test_require_membership_raises():
    pair = frames.random_pair(Field.REAL, 2, 2, 0)
    spec = ConstraintSpec(np.array([100.0, 100.0]))
    with pytest.raises(ConstraintViolationError) as info:
        frames.require_membership(pair, spec)
    assert info.value.residual > 1e-8


def test_document_round_trip(field):
    for seed in range(5):
        pair = frames.random_pair(field, 3, 4, seed)
        alpha = np.diag(frames.cross_gram(pair))
        doc = frames.pair_to_document(pair, alpha)
        text = frames.document_to_json(doc)
        doc2 = frames.document_from_json(text)
        pair2, spec2 = frames.pair_from_document(doc2)
        assert np.array_equal(pair.f.vectors, pair2.f.vectors)
        assert np.array_equal(pair.g.vectors, pair2.g.vectors)
        assert np.array_equal(alpha, spec2.alpha)
        # canonical form: parse -> serialize is byte-identical
        assert frames.document_to_json(doc2) == text


def test_document_without_alpha():
    pair = frames.random_pair(Field.REAL, 2, 2, 1)
    doc = frames.pair_to_document(pair)
    assert "alpha" not in doc
    _, spec = frames.pair_from_document(doc)
    assert spec is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("field"),
        lambda d: d.update(field="Q"),
        lambda d: d.update(N=99),
        lambda d: d["F"].pop(),
        lambda d: d["F"][0].pop(),
        lambda d: d["F"][0].__setitem__(0, "one"),
        lambda d: d.update(alpha=[1.0]),
        lambda d: d["F"][0].__setitem__(0, True),
    ],
)
def test_document_rejects_malformed(mutate):
    pair = frames.random_pair(Field.REAL, 2, 3, 8)
    doc = frames.pair_to_document(pair, np.ones(3))
    mutate(doc)
    with pytest.raises(MixedFramesError):
        frames.pair_from_document(doc)


@pytest.mark.parametrize("doc", [[], "R", None], ids=["array", "string", "null"])
def test_document_must_be_an_object(doc):
    with pytest.raises(MixedFramesError, match="must be a JSON object"):
        frames.pair_from_document(doc)


@pytest.mark.parametrize("entry,message", [
    ([1], r"expected a \[re, im\] pair over C"),
    ([1, "x"], r"\[re, im\] entries must be numbers"),
])
def test_document_rejects_malformed_complex_scalar(entry, message):
    doc = frames.pair_to_document(frames.random_pair(Field.COMPLEX, 2, 3, 8))
    doc["G"][1][0] = entry
    with pytest.raises(MixedFramesError, match=message):
        frames.pair_from_document(doc)


def test_complex_scalar_encoding():
    pair = frames.random_pair(Field.COMPLEX, 1, 1, 4)
    doc = frames.pair_to_document(pair)
    entry = doc["F"][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    # over R, the same slot is a plain number
    pair_r = frames.random_pair(Field.REAL, 1, 1, 4)
    assert isinstance(frames.pair_to_document(pair_r)["F"][0][0], float)
