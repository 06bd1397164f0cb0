"""Quantities derived from a pair are computed once and kept on the pair.

The cross Gram, TU*, the spectrum of TU* and the critical-pair kernel
are stored on first request.  These tests pin what that must not change:
every check still runs at its caller's tolerance, stored arrays cannot be
written, results do not depend on call order, and the pipeline solves
each quantity exactly once.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import retracted_random
from mixedframes import cli, fixtures, frames, linalg, potential, structure
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
    frames.cross_gram,
    frames.mixed_operator,
    lambda pair: frames.mixed_operator(pair, "UT*"),
    lambda pair: potential._spectrum(pair).values,
], ids=["C", "TU*", "UT*", "spectrum"])
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


@pytest.mark.parametrize("case", ["FX-MIX", "two-block-R", "two-block-C"])
def test_pipeline_solves_each_quantity_once(case, counts):
    if case == "FX-MIX":
        pair, spec = fixtures.fixture(case)
    else:
        pair, spec = two_block_pair(Field.REAL if case.endswith("R") else Field.COMPLEX)
    potential.fp_direct(pair)
    potential.fp_trace(pair)
    potential.bound_report(pair, spec)
    potential.scaled_identity_check(pair, spec)
    assert structure.critical_report(pair, spec).is_critical
    dec = structure.decompose(pair, spec)
    structure.corollary_check(pair, spec)
    clusters = len(dec.classification.index_sets)
    assert clusters == 2
    assert counts == {"eig_general": 1, "_merit_terms": 1,
                      "orthonormal_span_basis": 2 * clusters}


def test_cli_check_solves_spectrum_once(counts, tmp_path, capsys):
    pair, spec = fixtures.fixture("FX-MIX")
    doc = tmp_path / "mix.json"
    doc.write_text(frames.document_to_json(frames.pair_to_document(pair, spec.alpha)))
    assert cli.main(["check", str(doc)]) == 0
    assert counts["eig_general"] == 1
    assert counts["_merit_terms"] == 1
