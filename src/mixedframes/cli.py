"""Command-line surface with JSON reports and stable exit codes.

Exit codes, uniform across subcommands:

    0   success / check verified
    1   check failed or search did not converge
    2   invalid input or precondition violation
    3   numerical failure (eigensolver, degenerate retraction)

Every report is a single JSON document on stdout carrying the command
name, a content digest of the inputs, the exact tolerances used, and the
command-specific output object.  A short human-readable summary goes to
stderr.  Complex scalars in reports are always encoded as [re, im]
pairs; indices in reports are 1-based.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from . import fixtures, frames, linalg, optimizer, potential, structure
from .errors import (
    DegeneratePairingError,
    MixedFramesError,
    NotCriticalError,
    NumericalFailureError,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3

# Report status -> exit code, the one place a verdict becomes a code.
_STATUS_EXIT = {
    **dict.fromkeys(["ok", "critical", optimizer.CONVERGED], EXIT_OK),
    **dict.fromkeys(["discrepancy", "not_critical", "residuals_exceed_tol", "failed",
                     optimizer.MAX_ITERS, optimizer.DIVERGED], EXIT_FAILED_CHECK),
    optimizer.DEGENERATE_RETRACTION: EXIT_NUMERICAL,
}


def _c(z):
    """Scalar encoding used in reports."""
    z = complex(z)
    return [z.real, z.imag]


def _ones_based(indices):
    return [int(i) + 1 for i in indices]


def _digest(data: bytes):
    return hashlib.sha256(data).hexdigest()


def _digest_obj(obj):
    return _digest(json.dumps(obj, sort_keys=True).encode())


def _parse_alpha(text):
    try:
        return np.array([complex(part.strip().replace("i", "j")) for part in text.split(",")])
    except ValueError as exc:
        raise MixedFramesError(f"could not parse alpha list {text!r}: {exc}") from exc


def _load_pair(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MixedFramesError(f"cannot read {path}: {exc}") from exc
    doc = frames.document_from_json(raw.decode("utf-8", errors="replace"))
    pair, spec = frames.pair_from_document(doc)
    return pair, spec, _digest(raw)


def _resolve_spec(embedded, override):
    if override is not None:
        return frames.ConstraintSpec(_parse_alpha(override))
    if embedded is not None:
        return embedded
    raise MixedFramesError("no alpha available: pass --alpha or embed it in the document")


def _positive_float(text):
    """argparse type of every tolerance and bound: a number above 0, not NaN."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _emit(command, digest, tolerances, outputs, status, summary):
    """Write the report to stdout and the summary to stderr; return the
    status's exit code."""
    report = {"command": command, "inputs_digest": digest, "tolerances": tolerances,
              "outputs": outputs, "status": status}
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)
    return _STATUS_EXIT[status]


def _critical_json(rep: structure.CriticalPairReport):
    return {
        "c": [_c(z) for z in rep.c],
        "f_residuals": [float(x) for x in rep.f_residuals],
        "g_residuals": [float(x) for x in rep.g_residuals],
        "is_critical": rep.is_critical,
        "tol": rep.tol,
        "mixed_operator_norm": rep.mixed_norm,
    }


def _bound_json(rep: potential.BoundReport):
    return {
        "eigenvalues": [_c(z) for z in rep.eigenvalues],
        "spectrum_class": rep.spectrum_class,
        "class_tol": rep.class_tol,
        "R_value": rep.r_value,
        "I_value": rep.i_value,
        "alpha_sum": _c(rep.alpha_sum),
        "bound": _c(rep.bound),
        "bound_status": rep.bound_status,
        "trace_identity_residual": rep.trace_identity_residual,
    }


def _classification_json(cls: structure.EigenClassification):
    return {
        "distinct_eigenvalues": [_c(z) for z in cls.distinct_eigenvalues],
        "index_sets": [_ones_based(idx) for idx in cls.index_sets],
        "assigned": _ones_based(cls.assigned),
        "per_index_eigenvalues": [_c(z) for z in cls.per_index_eigenvalues],
        "f_eigen_residuals": [float(x) for x in cls.f_eigen_residuals],
        "g_eigen_residuals": [float(x) for x in cls.g_eigen_residuals],
        "cluster_radius": cls.cluster_radius,
    }


def _decomposition_json(dec: structure.DecompositionReport):
    return {
        "I": _ones_based(dec.group),
        "I_complement": _ones_based(dec.complement),
        "A": _c(dec.a),
        "dim_span": dec.dim_span,
        "group_eigenvalue": _c(dec.group_eigenvalue),
        "biorthogonality_residual": dec.biorthogonality_residual,
        "dual_frame_residual": dec.dual_frame_residual,
        "cross_orthogonality_residual": dec.cross_orthogonality_residual,
        "A_eigenvalue_gap": dec.a_eigenvalue_gap,
        "normalized_groups": [
            {
                "indices": _ones_based(g.indices),
                "eigenvalue": _c(g.eigenvalue),
                "w": _c(g.w),
                "biorthogonality_residual": g.biorthogonality_residual,
            }
            for g in dec.normalized_groups
        ],
    }


def _corollary_json(rep: structure.CorollaryReport):
    return {
        "spectrum_all_real": rep.spectrum_all_real,
        "fp_value": _c(rep.fp_value),
        "fp_equals_d": rep.fp_equals_d,
        "re_alpha_sum_ge_d": rep.re_alpha_sum_ge_d,
        "alpha_sum_equals_d": rep.alpha_sum_equals_d,
        "is_dual_pair": rep.is_dual_pair,
        "dual_deviation": rep.dual_deviation,
        "verdict": rep.verdict,
    }


def _search_json(res: optimizer.SearchResult):
    return {
        "status": res.status,
        "iterations": max(len(res.merit_history) - 1, 0),
        "restart_seed": res.restart_seed,
        "final_merit": res.merit_history[-1] if res.merit_history else None,
        "final_objective": res.objective_history[-1] if res.objective_history else None,
        "objective_history": res.objective_history,
        "merit_history": res.merit_history,
        "constraint_residual_final": res.constraint_residual_final,
        "dual_deviation": res.dual_deviation,
        "critical_report": _critical_json(res.critical_report_final)
        if res.critical_report_final is not None
        else None,
    }


def cmd_gen(args):
    if args.kind == "fixture":
        pair, spec = fixtures.fixture(args.name)
        doc = frames.pair_to_document(pair, spec.alpha)
        digest = _digest_obj({"fixture": args.name})
    else:
        field_ = frames.Field(args.field)
        pair = frames.random_pair(field_, args.d, args.n, args.seed)
        alpha = None
        if args.alpha is not None:
            alpha = _parse_alpha(args.alpha)
            pair = frames.retract_to_constraint(pair, frames.ConstraintSpec(alpha))
        doc = frames.pair_to_document(pair, alpha)
        digest = _digest_obj(
            {"random": {"field": args.field, "d": args.d, "N": args.n, "seed": args.seed,
                        "alpha": args.alpha}}
        )
    text = frames.document_to_json(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} (digest {digest[:12]})", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_potential(args):
    pair, _, digest = _load_pair(args.input)
    direct = potential.fp_direct(pair)
    traced = potential.fp_trace(pair, tol=args.tol)
    discrepancy = abs(direct.value - traced.value)
    same = bool(np.array_equal(pair.f.vectors, pair.g.vectors))
    outputs = {
        "fp_direct": _c(direct.value),
        "fp_trace": _c(traced.value),
        "discrepancy": discrepancy,
        "bf_potential": potential.bf_potential(pair.f) if same else None,
    }
    return _emit("potential", digest, {"tol": args.tol}, outputs,
                 "ok" if discrepancy <= args.tol * (1.0 + abs(direct.value)) else "discrepancy",
                 f"fp_direct = {direct.value}, fp_trace = {traced.value}, "
                 f"discrepancy = {discrepancy:.3e}")


def cmd_check(args):
    pair, embedded, digest = _load_pair(args.input)
    spec = _resolve_spec(embedded, args.alpha)
    crit = structure.critical_report(pair, spec, tol=args.tol)
    bound = potential.bound_report(pair, spec)
    is_scaled, a, residual = potential.scaled_identity_check(pair, spec)
    outputs = {
        "critical": _critical_json(crit),
        "bound": _bound_json(bound),
        "scaled_identity": {"is_scaled_identity": is_scaled, "A": _c(a), "residual": residual},
    }
    return _emit("check", digest, {"tol": args.tol}, outputs,
                 "critical" if crit.is_critical else "not_critical",
                 f"is_critical = {crit.is_critical}, max residual = {crit.max_residual:.3e}")


def cmd_decompose(args):
    pair, embedded, digest = _load_pair(args.input)
    spec = _resolve_spec(embedded, args.alpha)
    dec = structure.decompose(pair, spec, cluster_tol=args.cluster_tol)
    outputs = {
        "classification": _classification_json(dec.classification),
        "decomposition": _decomposition_json(dec),
    }
    worst = max(
        dec.biorthogonality_residual,
        dec.dual_frame_residual,
        dec.cross_orthogonality_residual,
        dec.a_eigenvalue_gap,
        *[g.biorthogonality_residual for g in dec.normalized_groups],
    )
    return _emit("decompose", digest, {"tol": args.tol, "cluster_tol": args.cluster_tol},
                 outputs, "ok" if worst <= args.tol else "residuals_exceed_tol",
                 f"I = {_ones_based(dec.group)}, A = {dec.a}, worst residual = {worst:.3e}")


def cmd_corollary(args):
    if args.alpha_only is not None:
        if args.d is None or args.n is None:
            raise MixedFramesError("--alpha-only mode requires --d and --N")
        # alpha-only mode does the sum arithmetic only; N is taken at its
        # word and not cross-checked against the list length
        total, sum_eq, re_ge_d = structure._alpha_sum_conditions(
            _parse_alpha(args.alpha_only), args.d, args.tol)
        outputs = {
            "alpha_sum": _c(total),
            "alpha_sum_equals_d": sum_eq,
            "re_alpha_sum_ge_d": re_ge_d,
            "n_exceeds_d": args.n > args.d,
            "dual_pair_exists": sum_eq if args.n > args.d else None,
        }
        digest = _digest_obj({"alpha_only": args.alpha_only, "d": args.d, "N": args.n})
        return _emit("corollary", digest, {"tol": args.tol}, outputs,
                     "ok" if args.n > args.d and sum_eq else "failed",
                     f"sum alpha = {total}, equals d: {sum_eq}")

    if args.input is None:
        raise MixedFramesError("corollary needs an input document or --alpha-only")
    pair, embedded, digest = _load_pair(args.input)
    spec = _resolve_spec(embedded, args.alpha)
    rep = structure.corollary_check(pair, spec, tol=args.tol)
    return _emit("corollary", digest, {"tol": args.tol}, _corollary_json(rep),
                 "ok" if rep.verdict == structure.CONDITIONS_MET else "failed",
                 f"verdict = {rep.verdict}, dual = {rep.is_dual_pair}")


def cmd_optimize(args):
    alpha = _parse_alpha(args.alpha)
    field_ = frames.Field(args.field)
    spec = frames.ConstraintSpec(alpha)
    mode = optimizer.CRITICAL_SEARCH if args.mode == "critical" else optimizer.POTENTIAL_DESCENT
    objective = optimizer.REAL_PART if args.objective == "real" else optimizer.IMAG_PART
    cfg = optimizer.OptimizerConfig(
        mode=mode,
        objective=objective,
        max_iters=args.max_iters,
        divergence_bound=args.divergence_bound,
        seed=args.seed,
        restarts=args.restarts,
    )
    digest = _digest_obj({"alpha": args.alpha, "field": args.field, "d": args.d,
                          "config": dataclasses.asdict(cfg)})
    result = optimizer.search(spec, field_, args.d, cfg)

    outputs = {"search": _search_json(result),
               "final_pair": frames.pair_to_document(result.final_pair, alpha)}
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(frames.document_to_json(outputs["final_pair"]))

    tols = {"grad_tol": optimizer.GRAD_TOL, "merit_tol": optimizer.MERIT_TOL,
            "divergence_bound": cfg.divergence_bound}
    return _emit("optimize", digest, tols, outputs, result.status,
                 f"status = {result.status}, merit = {outputs['search']['final_merit']}, "
                 f"dual deviation = {result.dual_deviation:.3e}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixedframes",
        description="Mixed frame potential toolkit: evaluate, verify, decompose, optimize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a frame-pair JSON document")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    pf = gen_sub.add_parser("fixture", help="one of the built-in hand-checked pairs")
    pf.add_argument("name", choices=list(fixtures.FIXTURE_NAMES))
    pf.add_argument("--output")
    pr = gen_sub.add_parser("random", help="seeded random pair, optionally retracted")
    pr.add_argument("--field", required=True, choices=["R", "C"])
    pr.add_argument("--d", type=int, required=True)
    pr.add_argument("--N", dest="n", type=int, required=True)
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--alpha", help="comma-separated; triggers retraction onto S(alpha)")
    pr.add_argument("--output")

    p = sub.add_parser("potential", help="evaluate both potential forms")
    p.add_argument("input")
    p.add_argument("--tol", type=_positive_float, default=linalg.DEFAULT_EIG_TOL)

    p = sub.add_parser("check", help="critical-pair, bound, and scaled-identity checks")
    p.add_argument("input")
    p.add_argument("--alpha")
    p.add_argument("--tol", type=_positive_float, default=structure.DEFAULT_CRITICAL_TOL)

    p = sub.add_parser("decompose", help="eigenvalue classification and decomposition")
    p.add_argument("input")
    p.add_argument("--alpha")
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--cluster-tol", type=_positive_float, default=linalg.DEFAULT_CLUSTER_TOL)

    p = sub.add_parser("corollary", help="dual-pair existence conditions")
    p.add_argument("input", nargs="?")
    p.add_argument("--alpha")
    p.add_argument("--alpha-only", help="check only the sum-alpha arithmetic")
    p.add_argument("--d", type=int)
    p.add_argument("--N", dest="n", type=int)
    p.add_argument("--tol", type=_positive_float, default=structure.DEFAULT_COROLLARY_TOL)

    p = sub.add_parser("optimize", help="search S(alpha) for critical/dual pairs")
    p.add_argument("--alpha", required=True)
    p.add_argument("--field", required=True, choices=["R", "C"])
    p.add_argument("--d", type=int, required=True)
    defaults = optimizer.OptimizerConfig()
    p.add_argument("--mode", choices=["critical", "potential"], default="critical")
    p.add_argument("--objective", choices=["real", "imag"], default="real")
    p.add_argument("--max-iters", type=int, default=defaults.max_iters)
    p.add_argument("--divergence-bound", type=_positive_float, default=defaults.divergence_bound)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--restarts", type=int, default=defaults.restarts)
    p.add_argument("--output", help="also write the final pair document here")

    return parser


_HANDLERS = {
    "gen": cmd_gen,
    "potential": cmd_potential,
    "check": cmd_check,
    "decompose": cmd_decompose,
    "corollary": cmd_corollary,
    "optimize": cmd_optimize,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the invalid-input code
        return int(exc.code) if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except NotCriticalError as exc:
        payload = {"error": str(exc)}
        if exc.report is not None:
            payload["critical_report"] = _critical_json(exc.report)
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (NumericalFailureError, DegeneratePairingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (MixedFramesError, ValueError) as exc:  # ValueError: OptimizerConfig's checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
