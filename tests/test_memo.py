"""Quantities derived from a pair are computed once and kept on the pair.

TU*, the spectrum of TU* and the critical-pair kernel are stored on
first request.  These tests pin what that must not change: every check
still runs at its caller's tolerance, stored arrays cannot be written,
results do not depend on call order, and the pipeline solves each
quantity exactly once.  The N x N cross Gram C and the FP summed over it
are not kept: only the literal double sums ``fp_direct`` and
``bf_potential`` form C.  Every other verdict reads TU* or the blocks of
C it checks, and the tests below hold it to the N x N reference and to
a memory bound.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import retracted_random
from mixedframes import cli, fixtures, frames, linalg, optimizer, potential, structure
from mixedframes.errors import MixedFramesError, NumericalFailureError
from mixedframes.frames import ConstraintSpec, Field, FramePair, FrameSequence


def fresh_copy(pair):
    return FramePair(FrameSequence(pair.field, pair.f.vectors),
                     FrameSequence(pair.field, pair.g.vectors))


def test_strict_trace_tol_fails_after_default_call():
    pair = frames.random_pair(Field.COMPLEX, 4, 8, 3)
    potential.fp_trace(pair)
    # the eigensolver's own check, not the trace comparison, must fire
    with pytest.raises(NumericalFailureError, match="eigendecomposition residual") as info:
        potential.fp_trace(pair, tol=1e-300)
    assert info.value.residual > 1e-300


def test_default_trace_tol_passes_after_strict_failure():
    pair = frames.random_pair(Field.COMPLEX, 4, 8, 3)
    with pytest.raises(NumericalFailureError, match="eigendecomposition residual"):
        potential.fp_trace(pair, tol=1e-300)
    assert potential.fp_trace(pair) == potential.fp_trace(fresh_copy(pair))


@pytest.mark.parametrize("derive", [
    frames.mixed_operator,
    lambda pair: potential._spectrum(pair).values,
], ids=["TU*", "spectrum"])
def test_derived_arrays_are_read_only(derive):
    pair = frames.random_pair(Field.COMPLEX, 2, 3, 9)
    with pytest.raises(ValueError):
        derive(pair)[0, ...] = 0.0


def _bits(x):
    """A comparable form of a report: arrays and scalars by their bits."""
    if dataclasses.is_dataclass(x):
        return {k: _bits(v) for k, v in vars(x).items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (complex, float)):
        return repr(complex(x))
    return x


PIPELINE = {
    "fp_direct": lambda pair, spec: potential.fp_direct(pair),
    "fp_trace": lambda pair, spec: potential.fp_trace(pair),
    "bound_report": potential.bound_report,
    "scaled_identity_check": potential.scaled_identity_check,
    "critical_report": structure.critical_report,
    "decompose": structure.decompose,
    "corollary_check": structure.corollary_check,
}


def _run(pair, spec, order):
    out = {}
    for name in order:
        try:
            out[name] = _bits(PIPELINE[name](pair, spec))
        except MixedFramesError as exc:  # e.g. decompose on a non-critical pair
            out[name] = ("raised", type(exc).__name__, str(exc))
    return out


@pytest.mark.parametrize("mode", [optimizer.CRITICAL_SEARCH, optimizer.POTENTIAL_DESCENT])
def test_search_result_pair_keeps_the_last_tu(monkeypatch, field, mode):
    """search stores the last iterate's TU* on the pair it returns: TU* and
    the duality deviation of that pair build nothing, its critical report
    runs the kernel once on the stored TU* and never reads the state kept
    for resuming the search (so it checks the search's last iterate), and
    all three equal bit for bit the same calls on a fresh pair of copies
    of its vectors."""
    spec = ConstraintSpec(np.linspace(0.5, 2.0, 6))
    cfg = optimizer.OptimizerConfig(mode=mode, seed=2, max_iters=5)
    res = optimizer.search(spec, field, 3, cfg)
    assert set(res.final_pair._memo) == {"TU*", "resume"}
    built, kernels, read = [], [], []
    derived, kernel = FramePair._derived, structure._merit_terms

    class Watched(dict):
        def __contains__(self, key):
            read.append(key)
            return super().__contains__(key)

        def __getitem__(self, key):
            read.append(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.append(key)
            return super().get(key, default)

    object.__setattr__(res.final_pair, "_memo", Watched(res.final_pair._memo))

    def counting_derived(self, key, build):
        return derived(self, key, lambda: (built.append(key), build())[1])

    monkeypatch.setattr(FramePair, "_derived", counting_derived)
    monkeypatch.setattr(structure, "_merit_terms", lambda *a: (kernels.append(a), kernel(*a))[1])

    def calls(pair):
        return _bits((frames.mixed_operator(pair), structure.critical_report(pair, spec),
                      frames.is_dual_pair(pair)))

    got = calls(res.final_pair)
    assert built == ["terms"] and len(kernels) == 1 and "resume" not in read
    assert kernels[0][2] is frames.mixed_operator(res.final_pair)
    fresh = FramePair(FrameSequence(field, res.final_pair.f.vectors.copy()),
                      FrameSequence(field, res.final_pair.g.vectors.copy()))
    assert calls(fresh) == got
    assert built == ["terms", "TU*", "terms"] and len(kernels) == 2


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([Field.REAL, Field.COMPLEX]), st.integers(1, 8), st.integers(0, 3),
       st.integers(0, 10_000))
def test_results_do_not_depend_on_call_order(field, d, extra, seed):
    pair, spec = retracted_random(field, d, d + extra * d, seed)
    forward = list(PIPELINE)
    backward = forward[::-1]
    first = _run(pair, spec, forward)
    assert _run(pair, spec, backward) == first
    assert _run(fresh_copy(pair), spec, backward) == first


def two_block_pair(field):
    """A critical pair with TU* = diag(0.8, 0.8, 2.5, 2.5): five vectors
    and their canonical dual scaled by 0.8 on span(e1, e2), two
    biorthogonal vectors with <f_l, g_m> = 2.5 delta_lm on span(e3, e4)."""
    rng = np.random.default_rng(7)
    a1 = rng.standard_normal((5, 2))
    a2 = rng.standard_normal((2, 2))
    fv = np.zeros((7, 4), dtype=np.complex128)
    gv = np.zeros((7, 4), dtype=np.complex128)
    fv[:5, :2], gv[:5, :2] = a1, 0.8 * a1 @ np.linalg.inv(a1.T @ a1)
    fv[5:, 2:], gv[5:, 2:] = a2, 2.5 * np.linalg.inv(a2).T
    if field is Field.COMPLEX:  # one common phase keeps every <f_m, g_n>
        fv, gv = fv * np.exp(0.3j), gv * np.exp(0.3j)
    pair = FramePair(FrameSequence(field, fv), FrameSequence(field, gv))
    return pair, ConstraintSpec(np.diag(frames.cross_gram(pair)))


@pytest.fixture
def counts(monkeypatch):
    """Calls of the eigensolver, the residual kernel and the span basis."""
    seen = {}
    for module, name in ((linalg, "eig_general"), (structure, "_merit_terms"),
                         (linalg, "orthonormal_span_basis")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            seen[_name] = seen.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return seen


def critical_case(case):
    if case == "FX-MIX":
        return fixtures.fixture(case)
    return two_block_pair(Field.REAL if case.endswith("R") else Field.COMPLEX)


@pytest.mark.parametrize("case", ["FX-MIX", "two-block-R", "two-block-C"])
def test_pipeline_solves_each_quantity_once(case, counts):
    pair, spec = critical_case(case)
    potential.fp_direct(pair)
    potential.fp_trace(pair)
    potential.bound_report(pair, spec)
    potential.scaled_identity_check(pair, spec)
    assert structure.critical_report(pair, spec).is_critical
    dec = structure.decompose(pair, spec)
    structure.corollary_check(pair, spec)
    assert len(dec.classification.index_sets) == 2
    # span bases only for group I: one of span{f_m}_I, one of span{g_m}_I
    assert counts == {"eig_general": 1, "_merit_terms": 1, "orthonormal_span_basis": 2}


@pytest.mark.parametrize("case", ["FX-MIX", "two-block-R", "two-block-C"])
def test_decompose_dual_residual_is_check_a_generalized_dual(case):
    """decompose and check_a_generalized_dual share one rank cut.  It is
    scaled once, by the rows each span basis is built from, so F -> sF,
    G -> tG, alpha -> st·alpha keeps group I and dim span."""
    pair, spec = critical_case(case)
    ref = structure.decompose(pair, spec)
    for s, t in ((1.0, 1.0), (1e-4, 1.0), (1.0, 1e4), (1e4, 1e-4)):
        scaled = FramePair(FrameSequence(pair.field, s * pair.f.vectors),
                           FrameSequence(pair.field, t * pair.g.vectors))
        dec = structure.decompose(scaled, ConstraintSpec(s * t * spec.alpha))
        assert (dec.group, dec.dim_span) == (ref.group, ref.dim_span)
        assert structure.check_a_generalized_dual(scaled, dec.group, dec.a) == dec.dual_frame_residual


def test_cli_check_solves_spectrum_once(counts, tmp_path, capsys):
    pair, spec = fixtures.fixture("FX-MIX")
    doc = tmp_path / "mix.json"
    doc.write_text(frames.document_to_json(frames.pair_to_document(pair, spec.alpha)))
    assert cli.main(["check", str(doc)]) == 0
    assert counts["eig_general"] == 1
    assert counts["_merit_terms"] == 1


def planted_pair(field, d1, d2, n1, seed):
    """A critical pair with TU* = lam1 on a d1-dimensional subspace and
    lam2 on its d2-dimensional complement, 2 |lam1| <= |lam2|: n1 >= d1
    vectors and their canonical dual scaled by lam1, and d2 biorthogonal
    vectors with <f_l, g_m> = lam2 delta_lm, moved by one random unitary
    and shuffled."""
    rng = np.random.default_rng(seed)
    is_complex = field is Field.COMPLEX

    def gauss(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if is_complex else x

    def phase():
        return np.exp(2j * np.pi * rng.uniform()) if is_complex else rng.choice((-1.0, 1.0))

    lam1 = rng.uniform(0.5, 1.5) * phase()
    lam2 = lam1 * rng.uniform(2.0, 4.0) * phase()
    q = np.linalg.qr(gauss(d1 + d2, d1 + d2))[0]
    a1, a2 = gauss(n1, d1), gauss(d2, d2)
    c1 = np.conj(lam1) * a1 @ np.linalg.inv(a1.T @ a1.conj()).T
    c2 = np.conj(lam2 * np.linalg.inv(a2)).T
    perm = rng.permutation(n1 + d2)
    fv = np.vstack([a1 @ q[:, :d1].T, a2 @ q[:, d1:].T])[perm]
    gv = np.vstack([c1 @ q[:, :d1].T, c2 @ q[:, d1:].T])[perm]
    pair = FramePair(FrameSequence(field, fv), FrameSequence(field, gv))
    return pair, ConstraintSpec(np.sum(fv * gv.conj(), axis=1))


def _close(got, want):
    return abs(got - want) <= 1e-12 * (1.0 + abs(want))


def _check_against_the_full_gram(pair, spec):
    """decompose's residuals and normalized groups and
    check_generalized_biorthogonal against blocks sliced from the full
    cross Gram; the FP that bound_report and corollary_check read from TU*
    against fp_direct; and their reports against the ones they give when
    that FP is the double sum, as it was before TU* gave it."""
    gram = frames.cross_gram(pair)

    def block(rows, cols, target=0.0):
        return np.abs(gram[np.ix_(rows, cols)] - target).max(initial=0.0)

    dec = structure.decompose(pair, spec)
    group, comp = dec.group, dec.complement
    assert _close(dec.biorthogonality_residual, block(comp, comp, np.diag(spec.alpha[comp])))
    assert _close(dec.cross_orthogonality_residual, max(block(group, comp), block(comp, group)))
    assert dec.normalized_groups or not comp
    for g in dec.normalized_groups:
        sub = gram[np.ix_(g.indices, g.indices)] / g.eigenvalue
        assert _close(g.biorthogonality_residual, np.abs(sub - np.eye(len(g.indices))).max())
    for idx in (group, comp, sorted(group[:2] + comp[:2])):
        assert _close(structure.check_generalized_biorthogonal(pair, spec, idx),
                      block(idx, idx, np.diag(spec.alpha[idx])))

    fp_of_gram, seen = potential._fp_of_gram, []

    def recording(x):
        seen.append(fp_of_gram(x))
        return seen[-1]

    with mock.patch.object(potential, "_fp_of_gram", recording):
        bound, cor = potential.bound_report(pair, spec), structure.corollary_check(pair, spec)
    direct = potential.fp_direct(pair).value
    assert len(seen) == 2 and all(_close(fp, direct) for fp in seen)
    assert cor.fp_value == seen[1]
    with mock.patch.object(potential, "_fp_of_gram", lambda x: direct):
        by_sum = potential.bound_report(pair, spec), structure.corollary_check(pair, spec)
    assert _bits(bound) == _bits(by_sum[0])
    assert _bits(cor) == _bits(dataclasses.replace(by_sum[1], fp_value=cor.fp_value))


@pytest.mark.parametrize("case", [*fixtures.FIXTURE_NAMES, "two-block-R", "two-block-C"])
def test_verdicts_match_the_full_cross_gram_on_fixtures(case):
    pair, spec = fixtures.fixture(case) if case.startswith("FX") else critical_case(case)
    _check_against_the_full_gram(pair, spec)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([Field.REAL, Field.COMPLEX]), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 6), st.integers(0, 10_000))
def test_verdicts_match_the_full_cross_gram_on_planted_pairs(field, d1, d2, extra, seed):
    pair, spec = planted_pair(field, d1, d2, d1 + extra, seed)
    _check_against_the_full_gram(pair, spec)


@pytest.mark.parametrize("case", ["FX-MIX", "two-block-R", "two-block-C"])
def test_only_the_double_sums_form_the_cross_gram(monkeypatch, case):
    pair, spec = critical_case(case)

    def refuse(pair):
        raise AssertionError("the N x N cross Gram was formed")

    monkeypatch.setattr(frames, "cross_gram", refuse)
    for name, run in PIPELINE.items():
        if name != "fp_direct":
            run(pair, spec)
    dec = structure.decompose(pair, spec)
    for idx in (dec.group, dec.complement, range(pair.n)):
        structure.check_generalized_biorthogonal(pair, spec, idx)
    with pytest.raises(AssertionError, match="cross Gram"):
        potential.fp_direct(pair)


def test_verdicts_memory_is_linear_in_n(field):
    """At (d, N) = (8, 4000) an N x N array is 128 MB over R and 256 MB
    over C.  None of these verdicts allocates one: each reads TU*, which
    is formed anew on every fresh copy of the pair, and ``decompose``
    clusters 4,000 eigenvalues, bounds the diameter of a 3,996-member
    cluster and takes the span bases of 3,996 rows without one."""
    pair, spec = planted_pair(field, 4, 4, 3996, 11)
    for run in (potential.bound_report, structure.corollary_check, structure.critical_report,
                potential.scaled_identity_check, structure.decompose):
        fresh = fresh_copy(pair)
        tracemalloc.start()
        try:
            run(fresh, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, run.__name__


def test_cluster_complex_memory_is_linear_in_n():
    """Two tight clusters of 2,000 values each, 1.5 radii apart: the search
    reaches all of the first cluster in one step, and its next step
    compares those 2,000 values against the 2,000 left, 64 MB as one
    array; in row blocks it stays within 16 MB."""
    rng = np.random.default_rng(3)
    values = np.where(np.arange(4000) % 2, 1.5, 0.0)
    values = values + 1e-3 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
    tracemalloc.start()
    try:
        groups = linalg.cluster_complex(values, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert groups == [list(range(0, 4000, 2)), list(range(1, 4000, 2))]
    assert peak <= 16 * 2**20


def test_search_memory_does_not_grow_with_restarts():
    """``search`` keeps a running best, so 15 more restarts hold at most
    one more result at a time: POTENTIAL_DESCENT over C at (d, N) =
    (64, 192), where one kept result (its pair, TU* and kernel output)
    is about 1 MB."""
    spec = ConstraintSpec(np.ones(192))
    peaks = []
    for restarts in (0, 15):
        cfg = optimizer.OptimizerConfig(mode=optimizer.POTENTIAL_DESCENT, max_iters=3,
                                        restarts=restarts)
        tracemalloc.start()
        try:
            optimizer.search(spec, Field.COMPLEX, 64, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _three_row_blocks(n_rows, row_len):
    return [slice(start, start + 3) for start in range(0, n_rows, 3)]


@pytest.mark.parametrize("case", ["FX-MIX", "two-block-R", "two-block-C", "planted-R", "planted-C"])
def test_row_blocks_change_no_result(monkeypatch, case):
    """Blocks of three rows give the clusters and the classification of
    whole blocks bit for bit, and residuals that still match the full
    cross Gram: ``linalg._row_blocks`` sets memory only."""
    if case.startswith("planted"):
        pair, spec = planted_pair(Field.REAL if case.endswith("R") else Field.COMPLEX, 3, 3, 40, 5)
    else:
        pair, spec = critical_case(case)
    whole = structure.decompose(fresh_copy(pair), spec)
    monkeypatch.setattr(linalg, "_row_blocks", _three_row_blocks)
    blocked = structure.decompose(fresh_copy(pair), spec)
    assert _bits(blocked.classification) == _bits(whole.classification)
    for name in ("group", "complement", "a", "dim_span"):
        assert getattr(blocked, name) == getattr(whole, name), name
    _check_against_the_full_gram(fresh_copy(pair), spec)
