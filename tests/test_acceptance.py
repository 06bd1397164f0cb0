"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion NN] PASS``/``FAIL`` line before
asserting, so a red run still reports every criterion's verdict.
"""

import json

import numpy as np
import pytest

from conftest import fd_gradient, retracted_random
from mixedframes import (
    cli,
    fixtures,
    frames,
    linalg,
    optimizer,
    potential,
    structure,
)
from mixedframes.frames import ConstraintSpec, Field


def verdict(num, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_potential_form_equivalence():
    """fp_direct vs fp_trace on 200 seeded pairs per field, plus the
    swap-conjugation identity."""
    ok = True
    for field in (Field.REAL, Field.COMPLEX):
        rng = np.random.default_rng(10_001 if field is Field.REAL else 10_002)
        for trial in range(200):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(d, 4 * d + 1))
            pair = frames.random_pair(field, d, n, 20_000 + trial)
            direct = potential.fp_direct(pair).value
            trace = potential.fp_trace(pair).value
            ok &= abs(direct - trace) <= 1e-9 * (1 + abs(direct))
            swapped = potential.fp_swap(pair).value
            ok &= abs(swapped - np.conj(direct)) <= 1e-10 * (1 + abs(direct))
    verdict(1, ok)


def test_criterion_02_fixture_exactness():
    expected = {
        "FX-D1": 1.0,
        "FX-MB": 4.5,
        "FX-SCALE": 8.0,
        "FX-IMAG": -1.0,
        "FX-MIX": 8.5,
    }
    ok = True
    for name, value in expected.items():
        pair, _ = fixtures.fixture(name)
        ok &= abs(potential.fp_direct(pair).value - value) <= 1e-12
    # FX-SCALE: FP = A^2 d with A = 2, d = 2
    pair, spec = fixtures.fixture("FX-SCALE")
    _, a, _ = potential.scaled_identity_check(pair, spec)
    ok &= abs(a**2 * pair.d - 8.0) <= 1e-12
    # FX-MIX spectrum {2, 3/2, 3/2}
    pair, _ = fixtures.fixture("FX-MIX")
    values = linalg.eig_general(frames.mixed_operator(pair)).values
    ok &= np.allclose(values, [2.0, 1.5, 1.5], atol=1e-12)
    verdict(2, ok)


def test_criterion_03_trace_identity():
    ok = True
    rng = np.random.default_rng(10_003)
    for trial in range(100):
        field = Field.REAL if trial % 2 else Field.COMPLEX
        d = int(rng.integers(1, 9))
        n = int(rng.integers(d, 4 * d + 1))
        alpha = rng.standard_normal(n) + (
            1j * rng.standard_normal(n) if field is Field.COMPLEX else 0
        )
        alpha[np.abs(alpha) < 1e-3] = 1.0
        pair, spec = retracted_random(field, d, n, 30_000 + trial, alpha)
        op = frames.mixed_operator(pair)
        gap = abs(np.trace(op) - np.sum(spec.alpha))
        ok &= gap <= 1e-12 * (1 + float(np.linalg.norm(op)))
    verdict(3, ok)


def test_criterion_04_proposition_bounds():
    ok = True
    # every ALL_REAL-classified pair sits above the lower bound
    rng = np.random.default_rng(10_004)
    real_hits = 0
    for trial in range(60):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(d, 3 * d + 1))
        alpha = rng.standard_normal(n)
        alpha[np.abs(alpha) < 1e-3] = 1.0
        pair, spec = retracted_random(Field.REAL, d, n, 40_000 + trial, alpha)
        rep = potential.bound_report(pair, spec)
        if rep.spectrum_class != potential.ALL_REAL:
            continue
        real_hits += 1
        fp = potential.fp_direct(pair).value.real
        ok &= fp >= rep.bound.real - 1e-9
    ok &= real_hits > 0
    # FX-IMAG achieves the upper-bound equality exactly
    pair, spec = fixtures.fixture("FX-IMAG")
    rep = potential.bound_report(pair, spec)
    ok &= rep.spectrum_class == potential.ALL_IMAGINARY
    ok &= abs(potential.fp_direct(pair).value - rep.bound) <= 1e-12
    ok &= abs(rep.bound - (-1.0)) <= 1e-12
    # single-eigenvalue fixtures report EQUALITY
    for name in ("FX-SCALE", "FX-MB"):
        pair, spec = fixtures.fixture(name)
        ok &= potential.bound_report(pair, spec).bound_status == potential.EQUALITY
    verdict(4, ok)


def test_criterion_05_scaled_identity():
    ok = True
    cases = [
        (Field.REAL, 2.0),
        (Field.REAL, 1.5),
        (Field.REAL, -1.0),
        (Field.COMPLEX, 1.0 + 1.0j),
    ]
    for field, a_true in cases:
        for d in (1, 2, 3):
            fv = a_true * np.eye(d)
            gv = np.eye(d)
            pair = frames.FramePair(
                frames.FrameSequence(field, fv if field is Field.COMPLEX else fv.real),
                frames.FrameSequence(field, gv),
            )
            spec = ConstraintSpec(np.diag(frames.cross_gram(pair)))
            is_scaled, a, _ = potential.scaled_identity_check(pair, spec)
            ok &= is_scaled
            ok &= abs(a - np.sum(spec.alpha) / d) <= 1e-10
            ok &= abs(a - a_true) <= 1e-10
    verdict(5, ok)


def test_criterion_06_gradient_contract():
    ok = True
    for field in (Field.REAL, Field.COMPLEX):
        objectives = [optimizer.REAL_PART]
        if field is Field.COMPLEX:
            objectives.append(optimizer.IMAG_PART)
        for objective in objectives:
            seed = 2 * (field is Field.COMPLEX) + (objective == optimizer.IMAG_PART)
            rng = np.random.default_rng(60_000 + seed)

            def val(p):
                v = potential.fp_direct(p).value
                return v.real if objective == optimizer.REAL_PART else v.imag

            for trial in range(20):
                d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
                pair = frames.random_pair(field, d, n, 50_000 + trial)
                gf, gg = optimizer.fp_gradient(pair, objective)
                ef, eg = fd_gradient(pair, val)
                scale = max(1.0, float(np.linalg.norm(ef)), float(np.linalg.norm(eg)))
                ok &= float(np.linalg.norm(gf - ef)) / scale <= 1e-5
                ok &= float(np.linalg.norm(gg - eg)) / scale <= 1e-5
    # tangent-projected gradient vanishes at FX-MB
    pair, _ = fixtures.fixture("FX-MB")
    pf, pg = optimizer.project_to_tangent(pair, *optimizer.fp_gradient(pair))
    ok &= float(np.sqrt(np.vdot(pf, pf).real + np.vdot(pg, pg).real)) <= 1e-10
    verdict(6, ok)


def test_criterion_07_critical_structure():
    ok = True
    for name in ("FX-MB", "FX-MIX"):
        pair, spec = fixtures.fixture(name)
        rep = structure.critical_report(pair, spec)
        ok &= rep.is_critical and rep.max_residual <= 1e-12
        cls = structure.classify(pair, spec)
        for lam, idx in zip(cls.distinct_eigenvalues, cls.index_sets):
            ok &= structure.check_a_generalized_dual(pair, idx, lam) <= 1e-10
    # hand spectra and index sets, exactly
    pair, spec = fixtures.fixture("FX-MB")
    cls = structure.classify(pair, spec)
    ok &= len(cls.index_sets) == 1 and cls.index_sets[0] == [0, 1, 2]
    ok &= abs(cls.distinct_eigenvalues[0] - 1.5) <= 1e-12
    pair, spec = fixtures.fixture("FX-MIX")
    cls = structure.classify(pair, spec)
    ok &= cls.index_sets == [[0], [1, 2, 3]]
    ok &= abs(cls.distinct_eigenvalues[0] - 2.0) <= 1e-12
    ok &= abs(cls.distinct_eigenvalues[1] - 1.5) <= 1e-12
    # decompose(FX-MIX): I = {2,3,4} 1-based, A = 1.5, all residuals tight
    dec = structure.decompose(pair, spec)
    ok &= [m + 1 for m in dec.group] == [2, 3, 4]
    ok &= abs(dec.a - 1.5) <= 1e-12
    ok &= dec.biorthogonality_residual <= 1e-10
    ok &= dec.dual_frame_residual <= 1e-10
    ok &= dec.cross_orthogonality_residual <= 1e-10
    ok &= dec.a_eigenvalue_gap <= 1e-10
    ok &= len(dec.normalized_groups) == 1
    ok &= abs(dec.normalized_groups[0].eigenvalue - 2.0) <= 1e-12
    ok &= dec.normalized_groups[0].biorthogonality_residual <= 1e-10
    verdict(7, ok)


def test_criterion_08_optimizer_reaches_critical_pairs():
    spec = ConstraintSpec(np.ones(3))
    # up to 8 restarts are allowed; seed 7 converges without any
    cfg = optimizer.OptimizerConfig(
        mode=optimizer.CRITICAL_SEARCH, seed=7, restarts=0, max_iters=5000
    )
    res = optimizer.search(spec, Field.REAL, 2, cfg)
    ok = res.status == optimizer.CONVERGED
    ok &= res.merit_history[-1] <= 1e-10
    ok &= len(res.merit_history) <= 5001
    # criterion-7-style verification at tol 1e-6
    try:
        cls = structure.classify(res.final_pair, spec, critical_tol=1e-6)
        for lam, idx in zip(cls.distinct_eigenvalues, cls.index_sets):
            res_dual = structure.check_a_generalized_dual(
                res.final_pair, idx, lam, rank_tol=1e-6
            )
            ok &= res_dual <= 1e-4
        structure.decompose(res.final_pair, spec, critical_tol=1e-6)
    except Exception:
        ok = False
    verdict(8, ok)


def test_criterion_09_corollary_round_trip():
    ok = True
    # forward: the dual-pair fixture meets all conditions
    pair, spec = fixtures.fixture("FX-ONB2")
    ok &= structure.corollary_check(pair, spec).verdict == structure.CONDITIONS_MET
    # backward: critical search with sum alpha = d lands on a dual pair
    spec = ConstraintSpec(np.full(4, 0.5))
    cfg = optimizer.OptimizerConfig(seed=3, restarts=8, max_iters=5000)
    res = optimizer.search(spec, Field.REAL, 2, cfg)
    dual, deviation = frames.is_dual_pair(res.final_pair, tol=1e-6)
    ok &= deviation <= 1e-6
    ok &= dual
    # alpha-only arithmetic per the N > d equivalence
    code_eq = cli.main(["corollary", "--alpha-only", "1,1", "--d", "2", "--N", "3"])
    code_ne = cli.main(["corollary", "--alpha-only", "1,0.5", "--d", "2", "--N", "3"])
    ok &= code_eq == 0 and code_ne == 1
    verdict(9, ok)


def test_criterion_10_divergence_handling():
    """POTENTIAL_DESCENT over C with alpha = (1,1) and divergence_bound 1e6,
    from seeds 0 and 1, must report DIVERGED where the restricted potential is unbounded below,
    and must not report it where the potential is constant.

    d = 2: the trace identity pins only the sum s = sum(alpha) of the two
    eigenvalues of TU*, lam and s - lam, and lam is not pinned on S(alpha).
    With lam = s/2 + x + iy, FP = lam^2 + (s - lam)^2 has real part
    s^2/2 + 2(x^2 - y^2), which is unbounded below.  The run must end
    DIVERGED with a strictly decreasing objective that ends below -1e5,
    |FP| of the final pair above the bound, and the final pair still on
    S(alpha) to the membership tolerance 1e-8, so the divergence happened
    on the constraint set and not by leaving it.

    d = 1: the vectors are scalars, so on S(alpha) the trace identity gives
    TU* = sum_m f_m conj(g_m) = sum(alpha) = 2 and FP is the constant
    sum(alpha)^2 = 4.  The same configuration must terminate without
    hanging or raising, report CONVERGED rather than DIVERGED, and end at
    the objective 4.
    """
    spec = ConstraintSpec(np.array([1.0, 1.0]))
    ok = True
    for seed in (0, 1):
        cfg = optimizer.OptimizerConfig(
            mode=optimizer.POTENTIAL_DESCENT,
            objective=optimizer.REAL_PART,
            seed=seed,
            max_iters=5000,
            divergence_bound=1e6,
        )

        res = optimizer.search(spec, Field.COMPLEX, 2, cfg)
        hist = res.objective_history
        ok &= res.status == optimizer.DIVERGED
        ok &= all(b < a for a, b in zip(hist, hist[1:]))
        ok &= hist[-1] < -1e5
        ok &= abs(potential.fp_direct(res.final_pair).value) > cfg.divergence_bound
        ok &= frames.constraint_residual(res.final_pair, spec).max() <= 1e-8

        res = optimizer.search(spec, Field.COMPLEX, 1, cfg)
        ok &= res.status == optimizer.CONVERGED
        ok &= abs(res.objective_history[-1] - np.sum(spec.alpha) ** 2) <= 1e-10
    verdict(10, ok)


def test_criterion_11_cli_contract(tmp_path, capsys):
    ok = True
    # all six fixture documents round-trip byte-identically
    for name in fixtures.FIXTURE_NAMES:
        code = cli.main(["gen", "fixture", name])
        out = capsys.readouterr().out
        ok &= code == 0
        ok &= frames.document_to_json(frames.document_from_json(out)) == out

    def run(*argv):
        code = cli.main(list(argv))
        capsys.readouterr()
        return code

    mb = tmp_path / "mb.json"
    pair, spec = fixtures.fixture("FX-MB")
    mb.write_text(frames.document_to_json(frames.pair_to_document(pair, spec.alpha)))
    rand = tmp_path / "rand.json"
    rp = frames.retract_to_constraint(
        frames.random_pair(Field.REAL, 2, 3, 1), ConstraintSpec(np.ones(3))
    )
    rand.write_text(frames.document_to_json(frames.pair_to_document(rp, np.ones(3))))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")

    matrix = [
        (("potential", str(mb)), 0),
        (("potential", str(bad)), 2),
        (("check", str(mb)), 0),
        (("check", str(rand)), 1),  # valid pair, not critical
        (("check", str(mb), "--alpha", "9,9,9"), 2),  # constraint violation
        (("decompose", str(mb)), 0),
        (("decompose", str(rand)), 2),  # precondition: must be critical
        (("corollary", str(mb)), 1),  # conditions fail (FP != d)
        (("corollary", "--alpha-only", "1,1", "--d", "2", "--N", "3"), 0),
        (("gen", "fixture", "FX-NOPE"), 2),
        (("optimize", "--alpha", "1,0", "--field", "R", "--d", "2"), 2),
    ]
    for argv, expect in matrix:
        ok &= run(*argv) == expect
    verdict(11, ok)
