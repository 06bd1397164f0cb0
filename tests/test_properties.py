"""Property tests of the verification kernels against plain reference
implementations, plus recorded CRITICAL_SEARCH and POTENTIAL_DESCENT
trajectories.

Hypothesis runs derandomized with a fixed number of examples, so every
run draws the same cases and the suite stays fast.
"""

import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import retracted_random
from mixedframes import fixtures, frames, linalg, optimizer, potential, structure
from mixedframes.errors import DegeneratePairingError
from mixedframes.frames import ConstraintSpec, Field, FramePair, FrameSequence

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


def _one_row_blocks(n_rows, row_len):
    return [slice(start, start + 1) for start in range(n_rows)]


_SHUFFLE = np.random.default_rng(7).permutation(120)


@fixed(300)
@given(CLUSTER_VALUES)
@example([0.0, 0.9, 1.8, 2.7, 5.0, 5.0 + 0.9j])  # two chains
@example([3.0, 0.0, 2.0, 1.0])  # a chain visited out of order
@example([0.0, 1.0, 2.0, 3.0, 1j, 1 + 1j, 5.0, 6.0 + 1e-15])  # steps exactly at the radius
@example([2.0, 7.0, 2.0, 2.0, 7.0, 2.0 + 1j, 7.0])  # duplicates
@example([0.01 * k + 20.0 * (k % 2) for k in range(120)])  # two clusters of 60, interleaved
@example([0.9 * float(k) for k in _SHUFFLE])  # a chain of 120, shuffled
@example([1.0j * k * (k % 3 != 1) for k in _SHUFFLE])  # a chain and a point, shuffled
def test_cluster_complex_matches_single_linkage(values):
    """Against every pair, and again with the search's comparisons taken one
    frontier row at a time: the row blocks set memory, never a cluster."""
    expected = naive_single_linkage(values, 1.0)
    assert linalg.cluster_complex(values, 1.0) == expected
    with mock.patch.object(linalg, "_row_blocks", _one_row_blocks):
        assert linalg.cluster_complex(values, 1.0) == expected


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
    basis, rank = linalg.orthonormal_span_basis(rows, rank_tol=1e-12)
    assert rank == np.linalg.matrix_rank(rows)
    assert basis.shape == (rank, rows.shape[1])
    assert np.abs(basis.conj() @ basis.T - np.eye(rank)).max(initial=0.0) <= 1e-12
    # every input lies in the span of the basis
    residual = rows - (rows @ basis.conj().T) @ basis
    norms = np.linalg.norm(rows, axis=1)
    assert np.all(np.linalg.norm(residual, axis=1) <= 1e-10 * np.maximum(1.0, norms))
    # a list of vectors and the 2-D array of the same rows agree
    list_basis, list_rank = linalg.orthonormal_span_basis(list(rows), rank_tol=1e-12)
    assert list_rank == rank and np.array_equal(list_basis, basis)


@st.composite
def tall_low_rank_rows(draw):
    """(n, d) rows, d <= 8 and d < n <= 4000, spanning a random subspace of
    rank below d, real or complex."""
    d = draw(st.integers(1, 8))
    n = draw(st.one_of(st.integers(d + 1, 2 * d + 2), st.integers(d + 1, 4000)))
    r = draw(st.integers(0, d - 1))
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    base = np.linalg.qr(gauss(d, d))[0][:r]
    return gauss(n, r) @ base * draw(st.sampled_from([1e-3, 1.0, 1e3]))


@fixed(60)
@given(tall_low_rank_rows())
@example(np.zeros((4000, 8)))
def test_tall_span_basis_matches_the_direct_svd(rows):
    """The R-factor basis of tall rank-deficient rows against one SVD of the
    rows themselves: the same rank, and bit for bit the same basis where
    LAPACK's gesdd takes the QR path itself (n >= 11 d / 6 over R, 17 d / 9
    over C), else the same orthogonal projector to 1e-12."""
    n, d = rows.shape
    basis, rank = linalg.orthonormal_span_basis(rows, rank_tol=1e-10)
    _, sigma, vh = np.linalg.svd(rows, full_matrices=False)
    assert rank == np.count_nonzero(sigma > 1e-10 * max(1.0, np.linalg.norm(rows, axis=1).max()))
    # gesdd's threshold, INT(d * 11 / 6), and zgesdd's, INT(d * 17 / 9)
    if n >= (17 * d // 9 if np.iscomplexobj(rows) else 11 * d // 6):
        assert np.array_equal(basis, vh[:rank])
    else:
        projector = basis.conj().T @ basis
        assert np.abs(projector - vh[:rank].conj().T @ vh[:rank]).max() <= 1e-12


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
# from seed 3 over 20 iterations, as recorded once each backtracking search
# started at the Polyak step merit / ||grad||^2 and the gradient came from
# the iterate's kernel output (float64 for a real pair), each row product
# and squared row norm one np.vecdot, by a reverse sweep that takes the
# retraction's rescaling alpha / <f_m, g_m> as 1 and r_f,m as orthogonal to
# f_m (both exact on S(alpha) up to round-off); the search must reproduce
# it bit for bit.
CRITERION_9_MERIT_HISTORY = [
    0.5957904899667253, 0.16757080801492152, 0.0532791466810148, 0.030238979366926384,
    0.02757245430524187, 0.024763498782845807, 0.024252650043503375, 0.02417723702835889,
    0.020060778688808248, 0.01992839339123155, 0.019108885200702502, 0.017921356185326046,
    0.01676465196376634, 0.014597736934924492, 0.013440011831498488, 0.00951366661615563,
    0.009228986695756976, 0.008657494204465278, 0.008422049702018665, 0.007865783630403203,
    0.00776208625435835,
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
    # a current iterate of infinite merit and FP accepts every trial, here a lone one
    best = SimpleNamespace(merit=np.inf, fp=complex(np.inf))
    fv = pair.f.vectors
    fp = optimizer._accepted(fv, pair.g.vectors, np.vecdot(fv, fv).real, best, False,
                             optimizer.REAL_PART)[2].fp
    want = potential.fp_direct(pair).value
    assert abs(fp - want) <= 1e-12 * (1.0 + abs(want))


@fixed(60)
@given(FIELDS, st.sampled_from([optimizer.REAL_PART, optimizer.IMAG_PART]), st.integers(1, 8),
       st.integers(0, 3), st.integers(0, 10_000))
def test_gradients_from_the_kernel_pass_are_exact(field, objective, d, extra, seed):
    """A search takes G conj(M), u = F M^T and ||f_m||^2 for its gradients
    from the iterate's kernel pass: twice the half descent gradient and
    twice its tangent projection equal, bit for bit, the full gradient and
    its projection computed from the pair alone, the descent gradient
    equals the form conj(2 conj(G) M), 2 F M^T it replaces, and the merit
    gradient is that of the recomputed ||f_m||^2.  The kernel's record
    carries no <f_m, g_m>: on S(alpha) it enters the merit gradient only
    as conj(alpha)."""
    n = d + extra * d
    pair, spec = retracted_random(field, d, n, seed, alpha=np.linspace(0.5, 2.0, n))
    fv, gv = pair.f.vectors, pair.g.vectors
    terms = structure._merit_terms(fv, gv)

    def same(got, want):
        return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(got, want))

    def twice(half):
        return [2.0 * x for x in half]

    half = optimizer._fp_gradient(terms.u, terms.gm, objective)
    want = optimizer.fp_gradient(pair, objective)
    assert same(twice(half), want)
    tu = fv.T @ gv.conj()
    old = ((2.0 * (gv.conj() @ tu)).conj(), 2.0 * (fv @ tu.T))
    if objective == optimizer.IMAG_PART:
        old = (1j * old[0], -1j * old[1]) if field is Field.COMPLEX else (np.zeros_like(fv),) * 2
    assert same(twice(half), old)
    got = optimizer._project_to_tangent(fv, gv, *half, terms.f_norms2)
    assert same(twice(got), optimizer.project_to_tangent(pair, *want))
    alpha_c = spec.require_field(field).conj()
    assert "ip" not in terms._fields
    recomputed = terms._replace(f_norms2=np.vecdot(fv, fv).real)
    assert same(optimizer._merit_gradient(fv, gv, alpha_c, terms),
                optimizer._merit_gradient(fv, gv, alpha_c, recomputed))


# (d, N) with d in 1..4 and N in d..3d
SHAPES = st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(d, 3 * d)))


@fixed(80)
@given(FIELDS, SHAPES, st.integers(0, 10_000), st.booleans(),
       st.sampled_from([np.inf, -np.inf, np.nan]), st.booleans())
def test_a_non_finite_entry_makes_the_merit_non_finite(field, shape, seed, in_f, bad, imag):
    """An inf or NaN entry of F or G (over C in its real or imaginary
    part), retracted as a search retracts a trial, gives a non-finite
    kernel merit: a finite merit vouches for the arrays, so a search's
    result skips their finiteness scan."""
    d, n = shape
    pair, spec = retracted_random(field, d, n, seed, alpha=np.linspace(0.5, 2.0, n))
    if field is Field.COMPLEX and imag:
        bad = complex(0.0, bad)
    rng = np.random.default_rng(seed)
    fv, gv = pair.f.vectors.copy(), pair.g.vectors.copy()
    (fv if in_f else gv)[rng.integers(n), rng.integers(d)] = bad
    with np.errstate(all="ignore"):
        gv = frames._retraction(fv, gv, spec.require_field(field))
        assert not np.isfinite(structure._merit_terms(fv, gv).merit)


@fixed(60)
@given(FIELDS, SHAPES, st.integers(0, 10_000))
def test_rf_is_orthogonal_to_f_in_kernel_outputs(field, shape, seed):
    """At the least-squares multiplier, r_f,m = u_m - lam_m f_m is
    orthogonal to f_m up to round-off: the merit gradient's sweep drops
    the term <f_m, r_f,m> would send to lam."""
    d, n = shape
    pair, _ = retracted_random(field, d, n, seed, alpha=np.linspace(0.5, 2.0, n))
    fv, gv = pair.f.vectors, pair.g.vectors
    terms = structure._merit_terms(fv, gv)
    bound = 1e-12 * np.linalg.norm(terms.u, axis=1) * np.linalg.norm(fv, axis=1)
    assert (np.abs(np.vecdot(terms.rf, fv)) <= bound).all()


# merit_history and objective_history of a POTENTIAL_DESCENT over C on the
# imaginary part, alpha = ones(48), d = 16, seed 11, 20 iterations, as
# recorded once each backtracking search started at the retraction's own
# scale 1/sqrt(2 max |eps_m|), each row product and squared row norm one
# np.vecdot; the merit must be reproduced bit for bit, the objective to
# round-off.
DESCENT_MERIT_HISTORY = [
    317665.12534846575, 3283768.275788141, 10546661.18081262, 90847761.33212884,
    652792390.8705664, 3957500696.307083, 15446985626.777208, 47429605218.9035,
    153431859298.84885, 643402851464.2548, 3748215208967.895, 22065284033641.832,
    24061231324645.13, 26123039272615.203, 28222029842025.117, 30346107267539.996,
    32504300647818.32, 34704878088997.797, 36956867400093.05, 39268733959265.68,
    41645903002976.8,
]
DESCENT_OBJECTIVE_HISTORY = [
    93.70990939557768, -11835.57856194348, -47509.79946360322, -193746.48147962487,
    -682607.6780268187, -2118632.485213373, -4782986.683883545, -9301222.935838703,
    -17485670.541345414, -35828982.74558397, -86976389.94138767, -235457054.57698363,
    -267972813.8500821, -287290823.60553217, -304263150.7520095, -319005735.45964724,
    -331814755.76668936, -342893685.9919431, -352395271.98352015, -360442498.52953714,
    -367138878.9053712,
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


DTYPE = {Field.REAL: np.float64, Field.COMPLEX: np.complex128}


@fixed(20)
@given(FIELDS, st.integers(2, 4), st.integers(1, 5), st.integers(0, 10_000))
def test_dtype_follows_field(field, d, n, seed):
    """Every way a pair enters stores read-only vectors of its field's
    dtype (an int list and a complex array with zero imaginary parts
    among them, each with the bits complex storage gives), what is
    derived from a real pair stays real, and the JSON document is the one
    complex storage wrote."""
    dtype = DTYPE[field]
    raw = frames.random_pair(field, d, n, seed)
    pair, spec = retracted_random(field, d, n, seed)
    # a start with <f_1, g_1> = 0, which ends the search's only restart
    fv, gv = raw.f.vectors, raw.g.vectors.copy()
    gv[0] -= np.vdot(fv[0], gv[0]) / np.vdot(fv[0], fv[0]) * fv[0]
    start = FramePair(FrameSequence(field, fv), FrameSequence(field, gv))
    with pytest.raises(DegeneratePairingError):
        frames.retract_to_constraint(start, spec)
    res = optimizer.search(spec, field, d, optimizer.OptimizerConfig(max_iters=2),
                           initial_pair=start)
    assert res.status == optimizer.DEGENERATE_RETRACTION
    text = frames.document_to_json(frames.pair_to_document(pair, spec.alpha))
    entered = [
        raw,
        pair,
        start,
        res.final_pair,
        FramePair(FrameSequence(field, fv.astype(np.complex128)), FrameSequence(field, gv.tolist())),
        frames.pair_from_document(frames.document_from_json(text))[0],
    ]
    entered += [fixtures.fixture(name)[0] for name in fixtures.FIXTURE_NAMES]
    ints = np.rint(8 * fv.real).astype(np.int64).tolist()
    zero_imag = fv.real + 0j
    for given_ in (ints, zero_imag):
        seq = FrameSequence(field, given_)
        stored = np.array(given_, dtype=np.complex128)
        assert seq.vectors.tobytes() == (stored.real if field is Field.REAL else stored).tobytes()
        entered.append(FramePair(seq, seq))
    for p in entered:
        if p.field is field:
            for v in (p.f.vectors, p.g.vectors):
                assert v.dtype == dtype and not v.flags.writeable

    assert frames.cross_gram(pair).dtype == dtype
    assert frames.mixed_operator(pair).dtype == dtype
    assert structure.critical_report(pair, spec).c.dtype == dtype

    def scalar(z):
        z = complex(z)
        return z.real if field is Field.REAL else [z.real, z.imag]

    want = {"field": field.value, "d": d, "N": n}
    for key, v in (("F", pair.f.vectors), ("G", pair.g.vectors)):
        want[key] = [[scalar(z) for z in row] for row in v.astype(np.complex128)]
    want["alpha"] = [scalar(z) for z in spec.alpha]
    assert text == json.dumps(want, indent=2) + "\n"


def test_imaginary_part_search_over_r_stops_at_start():
    """Im FP vanishes on every real pair, so its gradient is zero and the
    descent converges before its first step."""
    cfg = optimizer.OptimizerConfig(mode=optimizer.POTENTIAL_DESCENT,
                                    objective=optimizer.IMAG_PART, seed=7)
    res = optimizer.search(ConstraintSpec(np.ones(4)), Field.REAL, 2, cfg)
    assert res.status == optimizer.CONVERGED
    assert res.objective_history == [0.0]


# (d, N) with d in 1..8 and N in d..4d
SHAPES = st.integers(1, 8).flatmap(lambda d: st.tuples(st.just(d), st.integers(d, 4 * d)))


def _fp_scale(pair):
    """Round-off scale of FP: |FP| <= ||C||_F^2 for the cross Gram C."""
    return 1e-12 * (1.0 + np.linalg.norm(frames.cross_gram(pair)) ** 2)


@fixed(60)
@given(FIELDS, SHAPES, st.integers(0, 10_000))
def test_swapped_pair_has_conjugate_potential(field, shape, seed):
    """FP(G, F) = conj FP(F, G), for the direct double sum and for
    Tr((TU*)^2) as the residual kernel sums it."""
    d, n = shape
    pair = frames.random_pair(field, d, n, seed)
    fv, gv = pair.f.vectors, pair.g.vectors
    fp = potential.fp_direct(pair).value
    kernel_fp = structure._merit_terms(fv, gv).fp
    scale = _fp_scale(pair)
    assert abs(potential.fp_swap(pair).value - np.conj(fp)) <= scale
    assert abs(structure._merit_terms(gv, fv).fp - np.conj(kernel_fp)) <= scale
    assert abs(kernel_fp - fp) <= scale


@fixed(60)
@given(FIELDS, SHAPES, st.integers(0, 10_000))
def test_trace_of_mixed_operator_is_alpha_sum(field, shape, seed):
    """Tr TU* = sum_m <f_m, g_m> = sum alpha on S(alpha), from the
    kernel's M and from the row sums <f_m, g_m> = lam_m - c_m that the
    critical report forms."""
    d, n = shape
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    if field is Field.COMPLEX:
        alpha = alpha * np.exp(2j * np.pi * rng.uniform(size=n))
    pair, spec = retracted_random(field, d, n, seed, alpha)
    fv, gv = pair.f.vectors, pair.g.vectors
    terms = structure._merit_terms(fv, gv)
    total = np.sum(alpha)
    scale = 1e-12 * (1.0 + np.sum(np.linalg.norm(fv, axis=1) * np.linalg.norm(gv, axis=1)))
    ip = terms.lam - structure.critical_report(pair, spec).c
    for got in (np.trace(terms.tu), np.trace(frames.mixed_operator(pair)), np.sum(ip)):
        assert abs(got - total) <= scale


@fixed(60)
@given(FIELDS, SHAPES, st.integers(0, 10_000))
@example(Field.REAL, (8, 2000), 0)
@example(Field.COMPLEX, (8, 2000), 0)
def test_row_contractions_match_elementwise_forms(field, shape, seed):
    """Each row product, squared row norm and sum of squares that the
    kernel, the retraction and the critical report take as one np.vecdot
    or np.vdot agrees with the elementwise form it replaced, to 1e-13 of
    the quantity's natural scale (||f_m|| ||g_m|| for <f_m, g_m>, and
    that plus |lam_m| for the multiplier c_m = lam_m - <f_m, g_m>)."""
    d, n = shape
    raw = frames.random_pair(field, d, n, seed)
    fv, gv = raw.f.vectors, raw.g.vectors
    f_norm, g_norm = np.linalg.norm(fv, axis=1), np.linalg.norm(gv, axis=1)

    def close(got, want, scale):
        return np.all(np.abs(got - want) <= 1e-13 * scale)

    terms = structure._merit_terms(fv, gv)
    f_norms2 = (np.abs(fv) ** 2).sum(axis=1)
    ip = (fv * gv.conj()).sum(axis=1)
    assert close(terms.f_norms2, f_norms2, f_norm**2)
    c = structure.critical_report(raw, ConstraintSpec(ip)).c
    assert close(c, terms.lam - ip, f_norm * g_norm + np.abs(terms.lam))
    assert close(terms.lam, (terms.u * fv.conj()).sum(axis=1) / f_norms2,
                 np.linalg.norm(terms.u, axis=1) / f_norm)
    merit = (np.abs(terms.rf) ** 2).sum() + (np.abs(terms.rg) ** 2).sum()
    assert close(terms.merit, merit, merit)

    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    if field is Field.COMPLEX:
        alpha = alpha * np.exp(2j * np.pi * rng.uniform(size=n))
    gr = frames._retraction(fv, gv, alpha)
    want = gv * (alpha / ip).conj()[:, None]
    # an error of the pairing moves the quotient by its size relative to |<f_m, g_m>|
    scale = np.linalg.norm(want, axis=1) * f_norm * g_norm / np.abs(ip)
    assert close(gr, want, scale[:, None])

    pair = FramePair(raw.f, FrameSequence(field, gr))
    report = structure.critical_report(pair, ConstraintSpec(alpha))
    terms = structure._merit_terms(fv, gr, frames.mixed_operator(pair))
    for got, r in ((report.f_residuals, terms.rf), (report.g_residuals, terms.rg)):
        want = np.linalg.norm(r, axis=1)
        assert close(got, want, want)
    want = np.linalg.norm(terms.tu)
    assert close(report.mixed_norm, want, want)


@fixed(60)
@given(FIELDS, SHAPES, st.integers(1, 8), st.integers(0, 10_000))
def test_stacked_trials_match_one_trial_at_a_time(field, shape, k, seed):
    """The retraction and the residual kernel on a stack (k, N, d) of
    trials give, byte for byte, their (N, d) calls on each trial.  In
    trial 0, f_m is scaled by 1e-150 and g_m by 1e-160: a subnormal
    pairing, so the retraction's rescaled rows are stacked too, with a
    normal ||f_m||^2 for the kernel to divide by.  Both give the same
    bytes when handed the stack's ||f_m||^2, as the search loop forms it
    once per block, for a lone trial (a slice of it, or its own), the
    stack and a stack cut before a last trial with a degenerate pairing."""
    d, n = shape
    pairs = [frames.random_pair(field, d, n, seed + i) for i in range(k)]
    fv = np.stack([p.f.vectors for p in pairs])
    gv = np.stack([p.g.vectors for p in pairs])
    rng = np.random.default_rng(seed)
    m = rng.integers(n)
    fv[0, m] *= 1e-150
    gv[0, m] *= 1e-160
    assert abs(np.vecdot(gv[0, m], fv[0, m])) < np.finfo(np.float64).smallest_normal
    alpha = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    if field is Field.COMPLEX:
        alpha = alpha * np.exp(2j * np.pi * rng.uniform(size=n))
    alpha[m] *= 1e-300  # so trial 0's rescaled g_m stays near 1e-150

    gr = frames._retraction(fv, gv, alpha)
    assert len(gr) == k
    for i in range(k):
        assert gr[i].tobytes() == frames._retraction(fv[i], gv[i], alpha).tobytes()
    stacked = structure._merit_terms(fv, gr)
    for i in range(k):
        for name, got, want in zip(stacked._fields, stacked, structure._merit_terms(fv[i], gr[i])):
            # a stack's FP keeps its dtype, real over R; the (N, d) call's is a Python complex
            dtype = complex if name == "fp" else None
            got, want = np.asarray(got[i], dtype), np.asarray(want, dtype)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def same(got, want):
        return all(np.asarray(x).dtype == np.asarray(y).dtype
                   and np.asarray(x).tobytes() == np.asarray(y).tobytes()
                   for x, y in zip(got, want))

    f_norms2 = np.vecdot(fv, fv).real  # the loop's, once per block
    assert frames._retraction(fv, gv, alpha, f_norms2).tobytes() == gr.tobytes()
    assert same(structure._merit_terms(fv, gr, None, f_norms2), stacked)
    for i in range(k):
        own = np.vecdot(fv[i], fv[i]).real
        assert own.tobytes() == f_norms2[i].tobytes()
        assert frames._retraction(fv[i], gv[i], alpha, f_norms2[i]).tobytes() == gr[i].tobytes()
        assert same(structure._merit_terms(fv[i], gr[i], None, own),
                    structure._merit_terms(fv[i], gr[i]))
    if k > 1 and d > 1:
        # g_m of the last trial made orthogonal to f_m, to round-off: the stack is cut before it
        cut = gv.copy()
        row, f_row = cut[-1, m], fv[-1, m]
        cut[-1, m] = row - np.vdot(f_row, row) / np.vdot(f_row, f_row) * f_row
        want = frames._retraction(fv, cut, alpha)
        assert len(want) == k - 1
        assert frames._retraction(fv, cut, alpha, f_norms2).tobytes() == want.tobytes()
        assert same(structure._merit_terms(fv[:k - 1], want, None, f_norms2[:k - 1]),
                    structure._merit_terms(fv[:k - 1], want))


def test_row_products_pair_f_against_conjugated_g():
    """<f_m, g_m> = sum_k f_m[k] conj(g_m[k]), and np.vecdot conjugates its
    first argument: the kernel's Rayleigh quotients, the retraction, the
    constraint residual, the critical report's multipliers c_m = lam_m -
    <f_m, g_m> and a search result's constraint residual are those of the
    package's product, not their conjugates."""
    fv = np.array([[1.0 + 2.0j, 0.5j], [2.0, 1.0 - 1.0j]])
    gv = np.array([[1.0j, 1.0], [1.0 + 1.0j, 0.5]])

    def product(x, y):
        return np.array([sum(a * np.conj(b) for a, b in zip(xm, ym)) for xm, ym in zip(x, y)])

    ip = product(fv, gv)
    assert np.array_equal(ip, [2.0 - 0.5j, 2.5 - 2.5j])  # neither is real
    terms = structure._merit_terms(fv, gv)
    assert np.allclose(terms.lam, product(terms.u, fv) / product(fv, fv).real, rtol=1e-15, atol=0)
    alpha = np.array([1.0, 2.0j])
    gr = frames._retraction(fv, gv, alpha)
    assert np.allclose(product(fv, gr), alpha, rtol=1e-15, atol=0)
    pair = FramePair(FrameSequence(Field.COMPLEX, fv), FrameSequence(Field.COMPLEX, gv))
    residual = frames.constraint_residual(pair, ConstraintSpec(ip.conj()))
    assert np.allclose(residual, 2.0 * np.abs(ip.imag), rtol=1e-15, atol=0)
    assert np.array_equal(structure.critical_report(pair, ConstraintSpec(ip)).c, terms.lam - ip)
    # the conjugate product would leave 2 |Im <f_m, g_m>| >= 1 on the pair the search returns
    res = optimizer.search(ConstraintSpec(ip), Field.COMPLEX, 2,
                           optimizer.OptimizerConfig(max_iters=1), initial_pair=pair)
    assert frames.constraint_residual(res.final_pair, ConstraintSpec(ip)).max() <= 1e-14


@fixed(60)
@given(FIELDS, SHAPES, st.booleans(), st.integers(0, 10_000))
def test_potential_and_verdict_invariant_under_relabelling_and_unitary(field, shape, dual, seed):
    """FP and critical_report's verdict and residuals do not change when
    the indices are permuted jointly or every vector is moved by one
    unitary Q, (F Q, G Q) in the row convention.  ``dual`` plants the
    canonical dual G = F (F^H F)^-1, a critical pair with TU* = I."""
    d, n = shape
    if dual:
        fv = frames.random_pair(field, d, n, seed).f.vectors
        gv = fv @ np.linalg.inv(fv.conj().T @ fv)
        spec = ConstraintSpec(np.sum(fv * gv.conj(), axis=1))
        pair = FramePair(FrameSequence(field, fv), FrameSequence(field, gv))
    else:
        pair, spec = retracted_random(field, d, n, seed)
    fv, gv = pair.f.vectors, pair.g.vectors
    report = structure.critical_report(pair, spec)
    assert report.is_critical or not dual
    fp = potential.fp_direct(pair).value

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    z = rng.standard_normal((d, d))
    if field is Field.COMPLEX:
        z = z + 1j * rng.standard_normal((d, d))
    q = np.linalg.qr(z)[0]
    res_scale = 1e-11 * (1.0 + report.mixed_norm) * (1.0 + np.abs(fv).max() + np.abs(gv).max())
    for moved_f, moved_g, alpha, order in ((fv[perm], gv[perm], spec.alpha[perm], perm),
                                           (fv @ q, gv @ q, spec.alpha, np.arange(n))):
        moved = FramePair(FrameSequence(field, moved_f), FrameSequence(field, moved_g))
        assert abs(potential.fp_direct(moved).value - fp) <= _fp_scale(pair)
        assert abs(structure._merit_terms(moved_f, moved_g).fp - fp) <= _fp_scale(pair)
        got = structure.critical_report(moved, ConstraintSpec(alpha))
        assert got.is_critical == report.is_critical
        assert np.abs(got.f_residuals - report.f_residuals[order]).max() <= res_scale
        assert np.abs(got.g_residuals - report.g_residuals[order]).max() <= res_scale
