import numpy as np
import pytest

from mixedframes import linalg
from mixedframes.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NumericalFailureError,
    ZeroVectorError,
)


def test_ensure_finite_rejects_nan_and_inf():
    with pytest.raises(NonFiniteError):
        linalg.ensure_finite(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteError):
        linalg.ensure_finite(np.array([1.0 + 1j * np.inf], dtype=np.complex128))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0)])
def test_eig_rejects_non_square(shape):
    with pytest.raises(DimensionMismatchError, match="nonempty square matrix"):
        linalg.eig_general(np.ones(shape))


def test_eig_sorted_and_accurate():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = linalg.eig_general(a)
        assert res.backward_residual <= 1e-9
        # deterministic order: descending real, then descending imaginary
        for u, v in zip(res.values, res.values[1:]):
            assert (u.real, u.imag) >= (v.real, v.imag)
        assert np.trace(a) == pytest.approx(np.sum(res.values))


def _real_test_matrices(rng):
    """Real matrices of orders up to 40: random, repeated complex pairs
    (2x2 rotation blocks under an orthogonal similarity), skew-symmetric
    (purely imaginary spectra) and integer-valued."""
    for _ in range(25):
        n = int(rng.integers(2, 9))
        yield rng.standard_normal((n, n))
    for n in range(2, 41):
        yield rng.standard_normal((n, n))
        k = n // 2
        theta = rng.uniform(0.1, 3.0, size=max(k // 2, 1))
        blocks = np.zeros((n, n))
        for i in range(k):  # each angle twice: repeated conjugate pairs
            t = theta[i % len(theta)]
            c, s = np.cos(t), np.sin(t)
            blocks[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, -s], [s, c]]
        if n % 2:
            blocks[-1, -1] = 1.0
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        yield q @ blocks @ q.T
        b = rng.standard_normal((n, n))
        yield b - b.T
        yield rng.integers(-3, 4, size=(n, n)).astype(float)


def test_eig_real_matrix_conjugate_pairs():
    """Spectra of real matrices must come out in exact conjugate pairs."""
    rng = np.random.default_rng(11)
    for a in _real_test_matrices(rng):
        values = linalg.eig_general(a).values
        remaining = list(values)
        while remaining:
            v = remaining.pop()
            if v.imag == 0:
                continue
            # the exact conjugate must be present
            match = min(remaining, key=lambda w: abs(w - np.conj(v)))
            assert match == np.conj(v)
            remaining.remove(match)


def test_eig_large_order():
    """No order limit: LAPACK handles d > 64 with a small backward residual."""
    rng = np.random.default_rng(96)
    real = rng.standard_normal((96, 96))
    for a in (real, real + 1j * rng.standard_normal((96, 96))):
        eig = linalg.eig_general(a)
        assert eig.values.shape == (96,)
        assert eig.backward_residual <= 1e-9


def test_eig_known_spectrum():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    values = linalg.eig_general(a).values
    assert np.allclose(sorted(values, key=lambda z: z.imag), [-1j, 1j])


def test_orthonormal_span_basis_rank():
    rng = np.random.default_rng(3)
    for trial in range(20):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d + 1))
        base = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
        coeffs = rng.standard_normal((r + 2, r))
        vectors = list(coeffs @ base)
        basis, rank = linalg.orthonormal_span_basis(vectors, rank_tol=1e-12)
        assert rank == np.linalg.matrix_rank(np.array(vectors), tol=1e-10)
        gram = basis.conj() @ basis.T
        assert np.allclose(gram, np.eye(rank), atol=1e-12)
        # every input vector lies in the span of the basis
        for v in vectors:
            proj = (basis.conj() @ v) @ basis
            assert np.linalg.norm(v - proj) <= 1e-10 * max(1.0, np.linalg.norm(v))


def test_orthonormal_span_basis_edge_cases():
    basis, rank = linalg.orthonormal_span_basis(np.zeros((0, 3)), rank_tol=1e-12)
    assert rank == 0 and basis.shape == (0, 3)
    basis, rank = linalg.orthonormal_span_basis([np.zeros(3)], rank_tol=1e-12)
    assert rank == 0 and basis.shape == (0, 3)


def test_orthonormal_span_basis_threshold():
    """The rank cut is rank_tol * max(1, largest row norm): a direction of
    twice the cut is new, one of half of it is not, at every scale."""
    e1, e2 = np.eye(2)
    for scale in (1e-6, 1.0, 1e6):
        cut = 1e-12 * max(1.0, scale)
        for factor, rank in ((2.0, 2), (0.5, 1)):
            vectors = [scale * e1, scale * e1 + factor * cut * e2]
            assert linalg.orthonormal_span_basis(vectors, rank_tol=1e-12)[1] == rank
    # beside a row of norm 1e6 the cut is 1e-12 * 1e6 for a far shorter
    # orthogonal row too, not its own 1e-12, in either row order
    cut = 1e-12 * 1e6
    for factor, rank in ((2.0, 2), (0.5, 1)):
        rows = np.array([1e6 * e1, factor * cut * e2])
        for order in (rows, rows[::-1]):
            assert linalg.orthonormal_span_basis(order, rank_tol=1e-12)[1] == rank


def test_lstsq_scalar():
    rng = np.random.default_rng(5)
    d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c_true = 0.7 - 0.3j
    assert linalg.lstsq_scalar(c_true * d, d) == pytest.approx(c_true)
    # residual orthogonality at the minimizer
    t = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = linalg.lstsq_scalar(t, d)
    assert np.vdot(d, t - c * d) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ZeroVectorError):
        linalg.lstsq_scalar(t, np.zeros(4))


def test_cluster_complex():
    vals = [0.0, 1e-8, 1.0, 1.0 + 5e-9, 2.0j]
    groups = linalg.cluster_complex(vals, 1e-7)
    assert groups == [[0, 1], [2, 3], [4]]
    # chain linkage: each step small, total large
    chain = [0.0, 0.9e-7, 1.8e-7]
    assert linalg.cluster_complex(chain, 1e-7) == [[0, 1, 2]]
    assert linalg.cluster_complex([], 1.0) == []


def test_numerical_failure_carries_residual():
    with pytest.raises(NumericalFailureError) as info:
        raise NumericalFailureError("boom", residual=0.5)
    assert info.value.residual == 0.5


def _fail(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def test_eig_failure_is_a_numerical_failure(monkeypatch):
    """LAPACK's LinAlgError becomes NumericalFailureError with residual inf."""
    monkeypatch.setattr(np.linalg, "eig", _fail)
    with pytest.raises(NumericalFailureError, match="eigensolver failed to converge") as exc:
        linalg.eig_general(np.eye(2))
    assert exc.value.residual == np.inf


def test_span_basis_svd_failure_is_a_numerical_failure(monkeypatch):
    """LAPACK's LinAlgError becomes NumericalFailureError with residual inf."""
    monkeypatch.setattr(np.linalg, "svd", _fail)
    with pytest.raises(NumericalFailureError, match="span basis SVD failed") as exc:
        linalg.orthonormal_span_basis(np.eye(2), 1e-10)
    assert exc.value.residual == np.inf
