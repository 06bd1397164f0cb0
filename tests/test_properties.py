"""Property tests of the verification kernels against plain reference
implementations, plus recorded CRITICAL_SEARCH and POTENTIAL_DESCENT
trajectories.

Hypothesis runs derandomized with a fixed number of examples, so every
run draws the same cases and the suite stays fast.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import retracted_random
from mixedframes import linalg, optimizer, potential, structure
from mixedframes.frames import ConstraintSpec, Field

FIELDS = st.sampled_from([Field.REAL, Field.COMPLEX])


def fixed(n):
    return settings(max_examples=n, derandomize=True, deadline=None, database=None)


def naive_single_linkage(values, radius):
    """Clusters by repeated min-label propagation over every pair."""
    label = list(range(len(values)))
    changed = True
    while changed:
        changed = False
        for i in range(len(values)):
            for j in range(len(values)):
                if abs(values[i] - values[j]) <= radius and label[i] != label[j]:
                    label[i] = label[j] = min(label[i], label[j])
                    changed = True
    groups = {}
    for i, lab in enumerate(label):
        groups.setdefault(lab, []).append(i)
    return sorted(groups.values(), key=min)


# grid points with a step near the radius: chains, exact ties at the
# radius (step 1.0) and isolated points all occur
CLUSTER_VALUES = st.tuples(
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)), max_size=24),
    st.sampled_from([0.5, 0.75, 0.99, 1.0, 1.01, 2.5]),
).map(lambda t: [complex(a * t[1], b * t[1]) for a, b in t[0]])


@fixed(300)
@given(CLUSTER_VALUES)
@example([0.0, 0.9, 1.8, 2.7, 5.0, 5.0 + 0.9j])  # two chains
@example([3.0, 0.0, 2.0, 1.0])  # a chain visited out of order
def test_cluster_complex_matches_single_linkage(values):
    assert linalg.cluster_complex(values, 1.0) == naive_single_linkage(values, 1.0)


@st.composite
def low_rank_rows(draw):
    """(n, dim) rows spanning a random rank-r subspace, up to (160, 32)."""
    n = draw(st.integers(1, 160))
    dim = draw(st.integers(1, 32))
    r = draw(st.integers(0, min(n, dim)))
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((dim, dim)) + (1j * rng.standard_normal((dim, dim)) if complex_ else 0)
    base = np.linalg.qr(base)[0][:r]  # r orthonormal rows
    coeffs = rng.standard_normal((n, r)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return coeffs @ base if r else np.zeros((n, dim))


@fixed(60)
@given(low_rank_rows())
def test_orthonormal_span_basis_properties(rows):
    basis, rank = linalg.orthonormal_span_basis(rows)
    assert rank == np.linalg.matrix_rank(rows)
    assert basis.shape == (rank, rows.shape[1])
    assert np.abs(basis.conj() @ basis.T - np.eye(rank)).max(initial=0.0) <= 1e-12
    # every input lies in the span of the basis
    residual = rows - (rows @ basis.conj().T) @ basis
    norms = np.linalg.norm(rows, axis=1)
    assert np.all(np.linalg.norm(residual, axis=1) <= 1e-10 * np.maximum(1.0, norms))
    # a list of vectors and the 2-D array of the same rows agree
    list_basis, list_rank = linalg.orthonormal_span_basis(list(rows))
    assert list_rank == rank and np.array_equal(list_basis, basis)


@fixed(60)
@given(FIELDS, st.integers(1, 6), st.integers(1, 4), st.integers(0, 10_000))
def test_critical_report_matches_per_index_fit(field, d, ratio, seed):
    n = d * ratio
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    pair, spec = retracted_random(field, d, n, seed, alpha)
    report = structure.critical_report(pair, spec)
    fv, gv = pair.f.vectors, pair.g.vectors
    for m in range(n):
        s_m = sum(np.vdot(gv[k], fv[m]) * fv[k] for k in range(n) if k != m)
        t_m = sum(np.vdot(fv[k], gv[m]) * gv[k] for k in range(n) if k != m)
        c_m = linalg.lstsq_scalar(s_m, fv[m])
        scale = 1.0 + abs(c_m)
        assert abs(report.c[m] - c_m) <= 1e-12 * scale
        assert abs(report.f_residuals[m] - np.linalg.norm(s_m - c_m * fv[m])) <= 1e-12 * scale
        assert abs(report.g_residuals[m] - np.linalg.norm(t_m - np.conj(c_m) * gv[m])) <= 1e-12 * scale


# merit_history of the criterion-9 problem (alpha = 1/2 * ones(4), R, d = 2)
# from seed 3 over 20 iterations, as recorded before the residual kernel was
# shared between `merit` and `critical_report`; the search must reproduce it
# bit for bit.
CRITERION_9_MERIT_HISTORY = [
    0.595790489966725, 0.1382235369235661, 0.0873805772877064, 0.057748550814143415,
    0.04531005626426292, 0.036387692864804796, 0.031250664712195585, 0.027356383407581095,
    0.024645970626081655, 0.02246044996772088, 0.02073891420804511, 0.019272829258092858,
    0.01802650675465947, 0.016923070728479914, 0.01594288703962326, 0.015053500743415259,
    0.014243665985474403, 0.013497840562884658, 0.012809074306699196, 0.01216905355352655,
    0.011573102222261648,
]


def test_critical_search_merit_history_recorded():
    cfg = optimizer.OptimizerConfig(seed=3, max_iters=20)
    res = optimizer.search(ConstraintSpec(np.full(4, 0.5)), Field.REAL, 2, cfg)
    assert res.status == optimizer.MAX_ITERS
    assert res.merit_history == CRITERION_9_MERIT_HISTORY


@fixed(60)
@given(FIELDS, st.integers(1, 8), st.integers(0, 3), st.integers(0, 10_000))
def test_descent_trial_potential_matches_direct_form(field, d, extra, seed):
    """The FP a descent trial is priced at, Tr((TU*)^2) from the d x d mixed
    operator, is the direct double sum over the cross Gram."""
    n = d + extra * d
    pair, _ = retracted_random(field, d, n, seed)
    # an infinite current objective accepts every trial
    _, fp, _ = optimizer._accepted(pair.f.vectors, pair.g.vectors, np.inf, np.inf, False,
                                   optimizer.REAL_PART)
    want = potential.fp_direct(pair).value
    assert abs(fp - want) <= 1e-12 * (1.0 + abs(want))


# merit_history and objective_history of a POTENTIAL_DESCENT over C on the
# imaginary part, alpha = ones(48), d = 16, seed 11, 20 iterations, as
# recorded while descent trials were still priced from the N x N cross
# Gram; the merit must be reproduced bit for bit, the objective (now taken
# from TU*) to round-off.
DESCENT_MERIT_HISTORY = [
    317665.12534846604, 7508103.129234564, 3318448138.1035013, 5340368566.794404,
    36147878522.604126, 1094178253036.4258, 1864568007869.926, 4424380082235.846,
    6891074113004.127, 10855744599356.738, 15378467286703.855, 24670701889415.812,
    45916485065182.53, 47735727435834.664, 47004630614435.52, 46278938494816.734,
    45562795054517.164, 44860078815420.56, 44174389067077.5, 43509038446729.51,
    40091848139719.266,
]
DESCENT_OBJECTIVE_HISTORY = [
    93.70990939557775, -1204.6715510392653, -166548.2962090174, -1368569.966118968,
    -4909503.8430350805, -15490534.050789222, -30232522.996655174, -59384412.85630861,
    -83494639.40250057, -97426545.20109913, -110573375.77885121, -121538519.97254935,
    -127826978.65340701, -137188668.18560782, -140886254.3803513, -144594811.05088073,
    -148320670.9925149, -152070201.4083345, -155849772.98942888, -159665733.5869081,
    -159672471.43723977,
]


def test_potential_descent_history_recorded():
    cfg = optimizer.OptimizerConfig(mode=optimizer.POTENTIAL_DESCENT,
                                    objective=optimizer.IMAG_PART, seed=11, max_iters=20)
    res = optimizer.search(ConstraintSpec(np.ones(48)), Field.COMPLEX, 16, cfg)
    assert res.status == optimizer.MAX_ITERS
    assert len(res.objective_history) == len(DESCENT_OBJECTIVE_HISTORY)
    assert res.merit_history == DESCENT_MERIT_HISTORY
    for got, want in zip(res.objective_history, DESCENT_OBJECTIVE_HISTORY):
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
