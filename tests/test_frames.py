import numpy as np
import pytest

from conftest import retracted_random
from mixedframes import frames
from mixedframes.errors import (
    ConstraintViolationError,
    DegeneratePairingError,
    DimensionMismatchError,
    MixedFramesError,
    NonFiniteError,
    ZeroAlphaError,
    ZeroVectorError,
)
from mixedframes.frames import ConstraintSpec, Field, FramePair, FrameSequence


def test_sequence_validation():
    with pytest.raises(DimensionMismatchError):
        FrameSequence(Field.REAL, np.zeros((0, 2)))
    with pytest.raises(NonFiniteError):
        FrameSequence(Field.REAL, np.array([[np.nan, 0.0]]))
    with pytest.raises(NonFiniteError):
        FrameSequence(Field.REAL, np.array([[1.0 + 1j, 0.0]]))
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


def test_pair_validation():
    f = FrameSequence(Field.REAL, np.eye(2))
    g3 = FrameSequence(Field.REAL, np.eye(3))
    with pytest.raises(DimensionMismatchError):
        FramePair(f, g3)
    gc = FrameSequence(Field.COMPLEX, np.eye(2))
    with pytest.raises(DimensionMismatchError):
        FramePair(f, gc)


def test_synthesis_analysis_adjointness(field):
    """<T c, x> must equal <c, T* x> entrywise-summed, for both fields."""
    rng = np.random.default_rng(2)
    for trial in range(20):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        pair = frames.random_pair(field, d, n, 100 + trial)
        seq = pair.f
        c = rng.standard_normal(n) + (1j * rng.standard_normal(n) if field is Field.COMPLEX else 0)
        x = rng.standard_normal(d) + (1j * rng.standard_normal(d) if field is Field.COMPLEX else 0)
        lhs = np.vdot(x, frames.synthesis(seq, c))
        rhs = np.vdot(frames.analysis(seq, x), c)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_operator_matrices_consistent():
    pair = frames.random_pair(Field.COMPLEX, 3, 5, 42)
    # TU* = sum_m f_m g_m^*, one outer product per index
    tu = sum(np.outer(f, g.conj()) for f, g in zip(pair.f.vectors, pair.g.vectors))
    assert np.allclose(tu, frames.mixed_operator(pair, "TU*"))
    assert np.allclose(
        frames.mixed_operator(pair, "UT*"), frames.mixed_operator(pair, "TU*").conj().T
    )
    with pytest.raises(ValueError):
        frames.mixed_operator(pair, "XY")


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


def test_retraction_rejects_nonreal_alpha_over_r():
    """Over R a complex alpha is refused, not retracted onto S(Re alpha)."""
    spec = ConstraintSpec(np.array([1 + 1j, 1.0]))
    with pytest.raises(MixedFramesError, match="must be real"):
        frames.retract_to_constraint(frames.random_pair(Field.REAL, 2, 2, 0), spec)
    pair = frames.retract_to_constraint(frames.random_pair(Field.COMPLEX, 2, 2, 0), spec)
    assert frames.constraint_residual(pair, spec).max() <= 1e-12


def test_zero_alpha_rejected():
    spec = ConstraintSpec(np.array([1.0, 0.0]))
    with pytest.raises(ZeroAlphaError) as info:
        spec.require_nonzero()
    assert info.value.index == 1


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


def test_complex_scalar_encoding():
    pair = frames.random_pair(Field.COMPLEX, 1, 1, 4)
    doc = frames.pair_to_document(pair)
    entry = doc["F"][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    # over R, the same slot is a plain number
    pair_r = frames.random_pair(Field.REAL, 1, 1, 4)
    assert isinstance(frames.pair_to_document(pair_r)["F"][0][0], float)
