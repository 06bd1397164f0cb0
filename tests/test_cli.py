import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedframes import cli, fixtures, frames, optimizer, structure
from mixedframes.errors import DegeneratePairingError, NumericalFailureError

SRC = Path(__file__).resolve().parents[1] / "src"


def _non_json_constant(name):
    raise ValueError(f"stdout holds {name}, which RFC 8259 JSON has no literal for")


def run(capsys, *argv):
    """Exit code and stdout of one CLI run; stdout, when there is any, must
    be strict JSON (no NaN or Infinity)."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    if out:
        json.loads(out, parse_constant=_non_json_constant)
    return code, out


def write_fixture(tmp_path, name):
    pair, spec = fixtures.fixture(name)
    path = tmp_path / f"{name}.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(pair, spec.alpha)))
    return path


def test_gen_fixture_round_trip(capsys):
    """gen output must parse and re-serialize byte-identically."""
    for name in fixtures.FIXTURE_NAMES:
        code, out = run(capsys, "gen", "fixture", name)
        assert code == 0
        doc = frames.document_from_json(out)
        assert frames.document_to_json(doc) == out


def test_gen_random_deterministic(capsys):
    args = ("gen", "random", "--field", "R", "--d", "2", "--N", "4", "--seed", "1")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_random_with_alpha_retracts(capsys):
    code, out = run(
        capsys, "gen", "random", "--field", "R", "--d", "2", "--N", "3",
        "--seed", "1", "--alpha", "1,1,1",
    )
    assert code == 0
    pair, spec = frames.pair_from_document(frames.document_from_json(out))
    assert spec is not None
    assert frames.constraint_residual(pair, spec).max() <= 1e-12


def test_gen_unknown_fixture_exits_2(capsys):
    assert run(capsys, "gen", "fixture", "FX-NOPE")[0] == 2


def test_unknown_fixture_name_is_a_key_error():
    """argparse keeps the CLI from asking for it, but the library call
    names the six fixtures it knows."""
    with pytest.raises(KeyError, match="unknown fixture 'FX-NOPE'; known: FX-ONB2, FX-SCALE, "
                                       "FX-D1, FX-MB, FX-IMAG, FX-MIX"):
        fixtures.fixture("FX-NOPE")


def test_potential_fixture(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-D1")
    code, out = run(capsys, "potential", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "potential"
    assert report["outputs"]["fp_direct"] == [1.0, 0.0]
    assert report["outputs"]["fp_trace"] == [1.0, 0.0]
    assert report["tolerances"]["tol"] == 1e-9
    assert len(report["inputs_digest"]) == 64


def test_potential_reports_bf_when_self_paired(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-MB")
    _, out = run(capsys, "potential", str(path))
    assert json.loads(out)["outputs"]["bf_potential"] == pytest.approx(4.5)


def test_potential_malformed_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"field": "R", "d": 2,')  # truncated
    assert run(capsys, "potential", str(path))[0] == 2
    assert run(capsys, "potential", str(tmp_path / "missing.json"))[0] == 2


def test_reports_reproducible(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-MIX")
    _, out1 = run(capsys, "check", str(path))
    _, out2 = run(capsys, "check", str(path))
    assert out1 == out2


def test_check_critical_fixture(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-MB")
    code, out = run(capsys, "check", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "critical"
    for re_im in report["outputs"]["critical"]["c"]:
        assert re_im == pytest.approx([0.5, 0.0], abs=1e-12)
    assert report["outputs"]["scaled_identity"]["is_scaled_identity"] is True
    assert report["outputs"]["scaled_identity"]["A"] == [1.5, 0.0]
    assert report["outputs"]["bound"]["bound_status"] == "EQUALITY"


def test_check_non_critical_exits_1(capsys, tmp_path):
    pair, spec = frames.retract_to_constraint(
        frames.random_pair(frames.Field.REAL, 2, 3, 6),
        frames.ConstraintSpec(np.ones(3)),
    ), None
    path = tmp_path / "rand.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(pair, np.ones(3))))
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert json.loads(out)["status"] == "not_critical"


def test_check_scaled_tight_frame_exits_0(capsys, tmp_path):
    """FX-MB with F and G times 1000: FP meets the bound 4.5e12 to one ulp."""
    pair, spec = fixtures.fixture("FX-MB")
    path = tmp_path / "mb1000.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(
        frames.FramePair(frames.FrameSequence(pair.field, 1e3 * pair.f.vectors),
                         frames.FrameSequence(pair.field, 1e3 * pair.g.vectors)),
        1e6 * spec.alpha)))
    code, out = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["outputs"]["bound"]["bound_status"] == "EQUALITY"


@pytest.mark.parametrize("key,value", [
    ("d", 2.7), ("d", "2"), ("N", 3.9), ("d", 2.0), ("d", True), ("N", False), ("N", None),
    ("d", 10**12),
])
def test_check_rejects_non_integer_dimensions(capsys, tmp_path, key, value):
    """d and N must be JSON integers; d = 10^12 must not size an allocation
    before the rows, of length 2, are checked against it."""
    doc = json.loads(write_fixture(tmp_path, "FX-MB").read_text())
    doc[key] = value
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(path))
    assert (code, out) == (2, "")


def test_check_constraint_violation_exits_2(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-MB")
    assert run(capsys, "check", str(path), "--alpha", "5,5,5")[0] == 2


def test_check_missing_alpha_exits_2(capsys, tmp_path):
    pair = frames.random_pair(frames.Field.REAL, 2, 2, 0)
    path = tmp_path / "noalpha.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(pair)))
    assert run(capsys, "check", str(path))[0] == 2


def test_decompose_mix(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-MIX")
    code, out = run(capsys, "decompose", str(path))
    assert code == 0
    dec = json.loads(out)["outputs"]["decomposition"]
    assert dec["I"] == [2, 3, 4]  # 1-based
    assert dec["A"] == [1.5, 0.0]
    cls = json.loads(out)["outputs"]["classification"]
    assert cls["index_sets"] == [[1], [2, 3, 4]]


def test_decompose_single_group(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-ONB2")
    code, out = run(capsys, "decompose", str(path))
    assert code == 0
    assert json.loads(out)["outputs"]["decomposition"]["I_complement"] == []


def test_decompose_non_critical_exits_2_with_report(capsys, tmp_path):
    pair = frames.retract_to_constraint(
        frames.random_pair(frames.Field.REAL, 2, 4, 11),
        frames.ConstraintSpec(np.ones(4)),
    )
    path = tmp_path / "nc.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(pair, np.ones(4))))
    code, out = run(capsys, "decompose", str(path))
    assert code == 2
    payload = json.loads(out)
    assert payload["critical_report"]["is_critical"] is False


def test_corollary_dual_fixture(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-ONB2")
    code, out = run(capsys, "corollary", str(path))
    assert code == 0
    assert json.loads(out)["outputs"]["verdict"] == "CONDITIONS_MET"


def test_corollary_imag_fixture_exits_1(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-IMAG")
    code, out = run(capsys, "corollary", str(path))
    assert code == 1
    assert json.loads(out)["outputs"]["spectrum_all_real"] is False


def test_corollary_alpha_only(capsys):
    code, out = run(capsys, "corollary", "--alpha-only", "1,1", "--d", "2", "--N", "3")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["alpha_sum_equals_d"] is True
    assert outputs["dual_pair_exists"] is True

    code, out = run(capsys, "corollary", "--alpha-only", "1,0.5", "--d", "2", "--N", "3")
    assert code == 1
    assert json.loads(out)["outputs"]["alpha_sum_equals_d"] is False

    # an entry may end in the imaginary unit i
    code, out = run(capsys, "corollary", "--alpha-only", "1+0.5i,1-0.5i,-i,i", "--d", "2",
                    "--N", "4")
    assert code == 0
    assert json.loads(out)["outputs"]["alpha_sum"] == [2.0, 0.0]


def test_corollary_alpha_only_needs_dims(capsys):
    assert run(capsys, "corollary", "--alpha-only", "1,1")[0] == 2
    assert run(capsys, "corollary")[0] == 2


@pytest.mark.parametrize("argv", [
    ["-1", "--d", "-1", "--N", "1"],
    ["0,0", "--d", "0", "--N", "2"],
    ["nan,1", "--d", "2", "--N", "3"],
])
def test_corollary_alpha_only_rejects_invalid_input(capsys, argv):
    """A dimension below 1 or a non-finite alpha is invalid input: no
    verdict, and no bare NaN token on stdout."""
    assert run(capsys, "corollary", "--alpha-only", *argv) == (2, "")


@pytest.mark.parametrize("alpha", ["inf,1,1", "nan,1,1"])
def test_non_finite_alpha_exits_2(capsys, alpha):
    code = cli.main(["optimize", "--alpha", alpha, "--field", "R", "--d", "2"])
    assert code == 2
    assert "alpha contains NaN or Inf entries" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["", "1,,2", "abc"])
@pytest.mark.parametrize("argv", [
    ["optimize", "--field", "R", "--d", "2", "--alpha"],
    ["corollary", "--d", "2", "--N", "3", "--alpha-only"],
], ids=["optimize", "corollary-alpha-only"])
def test_unparsable_alpha_exits_2(capsys, argv, alpha):
    code = cli.main([*argv, alpha])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"could not parse alpha list {alpha!r}" in captured.err


def test_optimize_restarts_matches_library_search(capsys):
    """--restarts 2 runs seeds 0, 1 and 2; the report is deterministic and
    names the restart the library's search picks (here not the base)."""
    argv = ("optimize", "--alpha", "1,1", "--field", "C", "--d", "2", "--restarts", "2")
    code, out = run(capsys, *argv)
    assert run(capsys, *argv) == (code, out)
    cfg = optimizer.OptimizerConfig(restarts=2)
    res = optimizer.search(frames.ConstraintSpec(np.ones(2)), frames.Field.COMPLEX, 2, cfg)
    assert code == 0 and res.restart_seed == 2
    assert json.loads(out)["outputs"]["search"]["restart_seed"] == res.restart_seed


def test_optimize_imaginary_objective(capsys):
    """--objective imag descends Im FP: over C every accepted step lowers
    it, over R it is identically 0, so the start is CONVERGED."""
    argv = ("optimize", "--alpha", "1,1", "--d", "2", "--mode", "potential", "--objective", "imag")
    code, out = run(capsys, *argv, "--field", "C")
    history = json.loads(out)["outputs"]["search"]["objective_history"]
    assert code == 1 and len(history) > 2
    assert all(b < a for a, b in zip(history, history[1:]))
    code, out = run(capsys, *argv, "--field", "R")
    search = json.loads(out)["outputs"]["search"]
    assert code == 0 and search["status"] == "CONVERGED"
    assert search["iterations"] == 0 and search["objective_history"] == [0.0]


def test_optimize_degenerate_start_reports_nulls(capsys, monkeypatch):
    """A start whose retraction meets a degenerate pairing ends the search
    with no iterate: the report's merit, objective and critical report are
    null (the start, not retracted, is off S(alpha)), its constraint
    residual is the start's, finite, and the report is strict JSON."""
    def degenerate(fv, gv, alpha, *rest):
        raise DegeneratePairingError("stub", index=0)

    monkeypatch.setattr(frames, "_retraction", degenerate)
    code, out = run(capsys, "optimize", "--alpha", "1,1,1", "--field", "C", "--d", "2")
    assert code == 3
    search = json.loads(out)["outputs"]["search"]
    assert search["status"] == "DEGENERATE_RETRACTION"
    assert search["critical_report"] is search["final_merit"] is search["final_objective"] is None
    spec = frames.ConstraintSpec(np.ones(3))
    start = frames.random_pair(frames.Field.COMPLEX, 2, 3, 0)  # seed 0's, not retracted
    want = float(frames.constraint_residual(start, spec).max())
    assert search["constraint_residual_final"] == want and np.isfinite(want) and want > 1e-8
    assert search["iterations"] == 0
    assert search["merit_history"] == search["objective_history"] == []


def test_optimize_degenerate_trial_reports_its_last_iterate(capsys, monkeypatch):
    """A restart that ends DEGENERATE_RETRACTION after accepted iterates
    reports on its last iterate: its critical report is
    ``critical_report``'s on the final pair and its constraint residual is
    at most 1e-12.  The retraction raises from its fifth call on, here
    after the start and three backtracking blocks."""
    retraction, calls = frames._retraction, []

    def failing(fv, gv, alpha, *rest):
        calls.append(1)
        if len(calls) >= 5:
            raise DegeneratePairingError("stub", index=0)
        return retraction(fv, gv, alpha, *rest)

    monkeypatch.setattr(frames, "_retraction", failing)
    code, out = run(capsys, "optimize", "--alpha", "1,1,1", "--field", "C", "--d", "2")
    search = json.loads(out)["outputs"]["search"]
    assert code == 3 and search["status"] == "DEGENERATE_RETRACTION"
    assert search["constraint_residual_final"] <= 1e-12
    calls.clear()
    spec = frames.ConstraintSpec(np.ones(3))
    res = optimizer.search(spec, frames.Field.COMPLEX, 2, optimizer.OptimizerConfig())
    assert res.status == optimizer.DEGENERATE_RETRACTION
    assert len(res.merit_history) - 1 == search["iterations"] >= 1
    assert search["critical_report"] == cli._json(structure.critical_report(res.final_pair, spec))


def test_optimize_trivial_converges(capsys, tmp_path):
    out_path = tmp_path / "final.json"
    code, out = run(
        capsys, "optimize", "--alpha", "1", "--field", "R", "--d", "1",
        "--seed", "0", "--output", str(out_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "CONVERGED"
    pair, spec = frames.pair_from_document(
        frames.document_from_json(out_path.read_text())
    )
    assert frames.constraint_residual(pair, spec).max() <= 1e-12


def test_optimize_max_iters_exits_1(capsys):
    code, out = run(
        capsys, "optimize", "--alpha", "1,1,1", "--field", "R", "--d", "2",
        "--seed", "7", "--max-iters", "2",
    )
    assert code == 1
    assert json.loads(out)["status"] == "MAX_ITERS"


def test_optimize_zero_alpha_exits_2(capsys):
    assert run(capsys, "optimize", "--alpha", "1,0", "--field", "R", "--d", "2")[0] == 2


def test_optimize_nonreal_alpha_over_r_exits_2(capsys):
    assert run(capsys, "optimize", "--alpha", "1+1j,1,1", "--field", "R", "--d", "2")[0] == 2


def test_optimize_bad_flag_exits_2(capsys):
    assert run(capsys, "optimize", "--alpha", "1", "--field", "R", "--d", "1",
               "--mode", "sideways")[0] == 2


def test_real_alpha_guard(capsys):
    code, _ = run(
        capsys, "gen", "random", "--field", "R", "--d", "1", "--N", "1",
        "--seed", "0", "--alpha", "1+1j",
    )
    assert code == 2


def test_potential_large_d(capsys, tmp_path):
    """d = 80 is past the former order cap of 64 and evaluates normally."""
    pair = frames.random_pair(frames.Field.COMPLEX, 80, 96, 5)
    scale = 1.0 / np.sqrt(80)
    pair = frames.FramePair(frames.FrameSequence(pair.field, pair.f.vectors * scale),
                            frames.FrameSequence(pair.field, pair.g.vectors * scale))
    path = tmp_path / "d80.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(pair)))
    code, out = run(capsys, "potential", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["outputs"]["discrepancy"] <= 1e-9


@pytest.mark.parametrize("alpha", ["1e4", "1e6"])
def test_potential_status_is_scale_free(capsys, tmp_path, alpha):
    """The two forms are judged at tol * (1 + |FP|), as fp_trace judges its
    spectrum: at alpha = 1e4 the absolute discrepancy is about 1.7e-5 and
    at 1e6 about 0.44, both round-off of an FP near 1e10 and 1e14."""
    path = tmp_path / "scaled.json"
    code, _ = run(capsys, "gen", "random", "--field", "C", "--d", "16", "--N", "48",
                  "--seed", "3", "--alpha", ",".join([alpha] * 48), "--output", str(path))
    assert code == 0
    code, out = run(capsys, "potential", str(path))
    report = json.loads(out)
    assert report["outputs"]["discrepancy"] > 1e-9
    assert (code, report["status"]) == (0, "ok")


def test_potential_discrepancy_above_tol_exits_1(capsys, tmp_path):
    """At d = 1 the eigendecomposition and the trace form are exact, so a
    --tol of 1e-300 leaves only the direct sum's round-off to judge."""
    path = tmp_path / "d1.json"
    assert run(capsys, "gen", "random", "--field", "C", "--d", "1", "--N", "48", "--seed", "3",
               "--output", str(path))[0] == 0
    code, out = run(capsys, "potential", str(path), "--tol", "1e-300")
    report = json.loads(out)
    assert report["outputs"]["discrepancy"] > 0.0
    assert (code, report["status"]) == (1, "discrepancy")


def test_decompose_group_below_rank_cut_exits_3(capsys, tmp_path):
    """A dual pair with F scaled by 1e-11 and G by 1e11: group I has rank 0."""
    fv, gv = 1e-11 * np.eye(2), 1e11 * np.eye(2)
    pair = frames.FramePair(frames.FrameSequence(frames.Field.REAL, fv),
                            frames.FrameSequence(frames.Field.REAL, gv))
    path = tmp_path / "scaled.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(pair, np.sum(fv * gv, axis=1))))
    code, out = run(capsys, "decompose", str(path))
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["potential", "{doc}", "--tol"],
    ["check", "{doc}", "--tol"],
    ["decompose", "{doc}", "--tol"],
    ["decompose", "{doc}", "--cluster-tol"],
    ["corollary", "{doc}", "--tol"],
    ["optimize", "--alpha", "1,1", "--field", "C", "--d", "2", "--divergence-bound"],
])
@pytest.mark.parametrize("value", ["nan", "0", "-1", "abc"])
def test_nan_or_nonpositive_tolerance_exits_2(capsys, tmp_path, argv, value):
    doc = str(write_fixture(tmp_path, "FX-MB"))
    code, out = run(capsys, *[a.format(doc=doc) for a in argv], value)
    assert code == 2
    assert out == ""


def test_optimize_diverged_exits_1(capsys):
    code, out = run(
        capsys, "optimize", "--alpha", "1,1", "--field", "C", "--d", "2",
        "--mode", "potential", "--divergence-bound", "1e6",
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "DIVERGED"
    assert report["tolerances"]["divergence_bound"] == 1e6


def test_decompose_residuals_exceed_tol_exits_1(capsys, tmp_path):
    path = write_fixture(tmp_path, "FX-MIX")
    code, out = run(capsys, "decompose", str(path), "--tol", "1e-300")
    assert code == 1
    assert json.loads(out)["status"] == "residuals_exceed_tol"


@pytest.mark.parametrize("flag", ["--step", "--grad-tol", "--merit-tol"])
def test_optimize_removed_flags_exit_2(capsys, flag):
    code, out = run(capsys, "optimize", "--alpha", "1", "--field", "R", "--d", "1", flag, "0.5")
    assert code == 2
    assert out == ""


def test_decompose_ambiguous_cluster_exits_2(capsys, tmp_path):
    """A critical pair whose eigenvalues 1, 1 + 1.5e-6, 1 + 3e-6 chain into
    one cluster wider than the clustering radius is refused as input."""
    lam = np.array([1.0, 1.0 + 1.5e-6, 1.0 + 3e-6])
    pair = frames.FramePair(frames.FrameSequence(frames.Field.REAL, np.eye(3)),
                            frames.FrameSequence(frames.Field.REAL, np.diag(lam)))
    path = tmp_path / "chain.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(pair, lam)))
    code, out = run(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""


def write_huge(tmp_path):
    """FX-MB with F and G scaled by 1e100 and alpha by 1e200: a valid
    document whose FP, about 4.5e400, is past float64."""
    pair, spec = fixtures.fixture("FX-MB")
    huge = frames.FramePair(frames.FrameSequence(pair.field, 1e100 * pair.f.vectors),
                            frames.FrameSequence(pair.field, 1e100 * pair.g.vectors))
    path = tmp_path / "huge.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(huge, 1e200 * spec.alpha)))
    return path


@pytest.mark.parametrize("argv,code", [
    (["check", "{huge}"], 3),
    (["potential", "{huge}"], 3),
    (["corollary", "{huge}"], 3),
    (["decompose", "{huge}"], 3),
    (["optimize", "--alpha", "1e200,1e200,1e200", "--field", "R", "--d", "2",
      "--max-iters", "3"], 3),
    (["optimize", "--alpha", "1e200,1e200,1e200", "--field", "R", "--d", "2",
      "--max-iters", "3", "--mode", "potential"], 3),
    (["check", "{doc}", "--tol", "inf"], 2),
    (["potential", "{doc}", "--tol", "1e400"], 2),
    (["decompose", "{doc}", "--cluster-tol", "inf"], 2),
    (["optimize", "--alpha", "1,1", "--field", "C", "--d", "2", "--divergence-bound", "inf"], 2),
    (["gen", "fixture", "FX-MB", "--output", "{missing}"], 2),
    (["optimize", "--alpha", "1", "--field", "R", "--d", "1", "--output", "{missing}"], 2),
], ids=["check-huge", "potential-huge", "corollary-huge", "decompose-huge", "critical-huge",
        "descent-huge", "check-tol-inf", "potential-tol-1e400", "decompose-cluster-tol-inf",
        "optimize-bound-inf", "gen-output-missing", "optimize-output-missing"])
def test_unreportable_input_exits_with_empty_stdout(capsys, tmp_path, argv, code):
    """A report past float64 exits 3 and an infinite tolerance or an
    unwritable --output 2, each with nothing on stdout.  The huge document
    is FX-MB with F and G scaled by 1e100 and alpha by 1e200: valid, but
    its FP is about 4.5e400."""
    paths = {"huge": write_huge(tmp_path), "doc": write_fixture(tmp_path, "FX-MB"),
             "missing": tmp_path / "missing" / "x.json"}
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(capsys, *[a.format(**paths) for a in argv]) == (code, "")


def assert_fresh_numerical_failure(*argv):
    """The CLI in a fresh process, with Python's default warning filters,
    exits 3 with nothing on stdout and no RuntimeWarning on stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "mixedframes.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("numerical failure: ")


@pytest.mark.parametrize("command", ["check", "potential", "corollary", "decompose"])
def test_verdict_past_float64_exits_3_without_warnings(tmp_path, command):
    """A verdict on the huge document stops at its first float overflow or
    invalid operation: a numerical failure, with no warning."""
    assert_fresh_numerical_failure(command, str(write_huge(tmp_path)))


_GEN = ["gen", "random", "--field", "R", "--d", "2", "--N", "3", "--seed", "0"]
_OPTIMIZE = ["optimize", "--field", "R", "--d", "2", "--mode"]


@pytest.mark.parametrize("argv", [
    [*_GEN, "--alpha", "1e308,1e308,1e308"],
    [*_OPTIMIZE, "critical", "--alpha", "1e308,1e308,1e308"],
    [*_OPTIMIZE, "potential", "--alpha", "1e308,1e308,1e308"],
    [*_OPTIMIZE, "critical", "--alpha", "1e200,1e200,1e200"],
    [*_OPTIMIZE, "potential", "--alpha", "1e200,1e200,1e200"],
], ids=["gen-1e308", "critical-1e308", "potential-1e308", "critical-1e200", "potential-1e200"])
def test_overflow_in_gen_and_optimize_exits_3_without_warnings(argv):
    """gen's retraction past float64 (alpha = 1e308 overflows the rescaled
    G) and optimize's start past it (that G, or at 1e200 its FP) are
    numerical failures, with no warning."""
    assert_fresh_numerical_failure(*argv)


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_optimize_checks_output_before_searching(capsys, monkeypatch, tmp_path, target):
    """An --output that cannot be written, in a missing directory or a
    directory itself, exits 2 with nothing on stdout before any search."""
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(optimizer, "search", no_search)
    path = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    argv = ("optimize", "--alpha", "1,1,1", "--field", "R", "--d", "2", "--output", str(path))
    assert run(capsys, *argv) == (2, "")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dumps_refuses_a_non_finite_value(value):
    """A report holding NaN or an infinity is a numerical failure (exit 3
    from ``main``), never JSON text with a NaN or Infinity in it."""
    with pytest.raises(NumericalFailureError, match="non-finite value"):
        cli._dumps({"outputs": {"fp_value": [value, 0.0]}})
