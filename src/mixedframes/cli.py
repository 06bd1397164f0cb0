"""Command-line surface with JSON reports and stable exit codes.

Exit codes, uniform across subcommands:

    0   success / check verified
    1   check failed or search did not converge
    2   invalid input or precondition violation
    3   numerical failure (eigensolver, degenerate retraction, overflow)

Every report is a single JSON document on stdout carrying the command
name, a content digest of the inputs, the exact tolerances used, and the
command-specific output object.  A short human-readable summary goes to
stderr.  Complex scalars in reports are always encoded as [re, im]
pairs; indices in reports are 1-based.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import re
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


def _digest(data: bytes):
    return hashlib.sha256(data).hexdigest()


def _digest_obj(obj):
    return _digest(json.dumps(obj, sort_keys=True).encode())


def _parse_spec(text):
    """ConstraintSpec of a comma-separated alpha list, whose entries may
    end in the imaginary unit i (``1+2i``, ``-i``)."""
    try:
        alpha = [complex(re.sub(r"i$", "j", part.strip())) for part in text.split(",")]
    except ValueError as exc:
        raise MixedFramesError(f"could not parse alpha list {text!r}: {exc}") from exc
    return frames.ConstraintSpec(alpha)


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
        return _parse_spec(override)
    if embedded is not None:
        return embedded
    raise MixedFramesError("no alpha available: pass --alpha or embed it in the document")


def _positive_float(text):
    """argparse type of every tolerance and bound: a finite number above 0."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _dumps(obj):
    """Strict JSON text of a report: a NaN or infinity in it is a numerical failure."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalFailureError(f"the report holds a non-finite value ({exc})") from exc


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise MixedFramesError(f"cannot write {path}: {exc}") from exc


# Verdicts and gen stop at a float overflow or invalid operation (exit 3) rather than warn;
# optimize searches with both ignored, as its loop rejects a non-finite trial.
_STRICT = np.errstate(over="raise", invalid="raise")


def _emit(command, digest, tolerances, outputs, status, summary, output=None):
    """Once the report serializes, write ``output`` (path, text) if given, the
    report to stdout and the summary to stderr; return the status's exit code."""
    report = _dumps({"command": command, "inputs_digest": digest, "tolerances": tolerances,
                     "outputs": outputs, "status": status})
    if output is not None:
        _write(*output)
    sys.stdout.write(report)
    print(summary, file=sys.stderr)
    return _STATUS_EXIT[status]


# Report keys that differ from their dataclass field names.
_KEYS = {"mixed_norm": "mixed_operator_norm", "r_value": "R_value", "i_value": "I_value",
         "group": "I", "complement": "I_complement", "a": "A",
         "a_eigenvalue_gap": "A_eigenvalue_gap"}
# Fields holding indices, which reports give 1-based.
_INDICES = {"index_sets", "assigned", "group", "complement", "indices"}


def _json(x, name=None):
    """Encode a report value, ``name`` being the field that holds it.

    A dataclass becomes its fields in declaration order, keyed by name
    (renamed by ``_KEYS``), less those declared ``repr=False``; sequences
    go item by item; indices become 1-based and complex scalars [re, im].
    """
    if dataclasses.is_dataclass(x):
        return {_KEYS.get(f.name, f.name): _json(getattr(x, f.name), f.name)
                for f in dataclasses.fields(x) if f.repr}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_json(item, name) for item in x]
    if name in _INDICES:
        return int(x) + 1
    # a multiplier c_m is a scalar of K, reported as one; over R it is
    # stored real, since the dtype follows the field and the search
    # digest pins its bytes
    if isinstance(x, complex) or name == "c":
        return [float(x.real), float(x.imag)]
    if x is None or isinstance(x, (str, bool, int)):
        return x
    return float(x)


def _final_report(res: optimizer.SearchResult, spec):
    """``structure.critical_report`` of a search result's final pair, or None
    when that pair fails the report's checks, as a pair off S(alpha) does."""
    with contextlib.suppress(MixedFramesError):
        return structure.critical_report(res.final_pair, spec)
    return None


def _search_json(res: optimizer.SearchResult, spec):
    return {
        "status": res.status,
        "iterations": max(len(res.merit_history) - 1, 0),
        "restart_seed": res.restart_seed,
        "final_merit": res.merit_history[-1] if res.merit_history else None,
        "final_objective": res.objective_history[-1] if res.objective_history else None,
        "objective_history": res.objective_history,
        "merit_history": res.merit_history,
        "constraint_residual_final": float(frames.constraint_residual(res.final_pair, spec).max()),
        "dual_deviation": frames.is_dual_pair(res.final_pair)[1],
        "critical_report": _json(_final_report(res, spec)),
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
            spec = _parse_spec(args.alpha)
            pair, alpha = frames.retract_to_constraint(pair, spec), spec.alpha
        doc = frames.pair_to_document(pair, alpha)
        digest = _digest_obj(
            {"random": {"field": args.field, "d": args.d, "N": args.n, "seed": args.seed,
                        "alpha": args.alpha}}
        )
    text = frames.document_to_json(doc)
    if args.output:
        _write(args.output, text)
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
        "fp_direct": _json(direct.value),
        "fp_trace": _json(traced.value),
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
        "critical": _json(crit),
        "bound": _json(bound),
        "scaled_identity": {"is_scaled_identity": is_scaled, "A": _json(a), "residual": residual},
    }
    return _emit("check", digest, {"tol": args.tol}, outputs,
                 "critical" if crit.is_critical else "not_critical",
                 f"is_critical = {crit.is_critical}, max residual = {crit.max_residual:.3e}")


def cmd_decompose(args):
    pair, embedded, digest = _load_pair(args.input)
    spec = _resolve_spec(embedded, args.alpha)
    dec = structure.decompose(pair, spec, cluster_tol=args.cluster_tol)
    outputs = {
        "classification": _json(dec.classification),
        "decomposition": _json(dec),
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
                 f"I = {_json(dec.group, 'group')}, A = {dec.a}, worst residual = {worst:.3e}")


def cmd_corollary(args):
    if args.alpha_only is not None:
        if args.d is None or args.n is None or min(args.d, args.n) < 1:
            raise MixedFramesError("--alpha-only mode requires --d and --N of at least 1")
        # alpha-only mode does the sum arithmetic only; N is taken at its
        # word and not cross-checked against the list length
        total, sum_eq, re_ge_d = structure._alpha_sum_conditions(
            _parse_spec(args.alpha_only).alpha, args.d, args.tol)
        outputs = {
            "alpha_sum": _json(total),
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
    return _emit("corollary", digest, {"tol": args.tol}, _json(rep),
                 "ok" if rep.verdict == structure.CONDITIONS_MET else "failed",
                 f"verdict = {rep.verdict}, dual = {rep.is_dual_pair}")


def cmd_optimize(args):
    spec = _parse_spec(args.alpha)
    field_ = frames.Field(args.field)
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
    out = args.output and os.path.abspath(args.output)  # checked before the search it would waste
    if out and (os.path.isdir(out) or not os.access(os.path.dirname(out), os.W_OK)):
        raise MixedFramesError(f"cannot write {args.output}: not a file in a writable directory")
    with np.errstate(over="ignore", invalid="ignore"):
        result = optimizer.search(spec, field_, args.d, cfg)

    outputs = {"search": _search_json(result, spec),
               "final_pair": frames.pair_to_document(result.final_pair, spec.alpha)}
    output = (args.output, frames.document_to_json(outputs["final_pair"])) if args.output else None
    tols = {"grad_tol": optimizer.GRAD_TOL, "critical_tol": structure.DEFAULT_CRITICAL_TOL,
            "divergence_bound": cfg.divergence_bound}
    return _emit("optimize", digest, tols, outputs, result.status,
                 f"status = {result.status}, merit = {outputs['search']['final_merit']}, "
                 f"dual deviation = {outputs['search']['dual_deviation']:.3e}", output)


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
    "gen": _STRICT(cmd_gen),
    "potential": _STRICT(cmd_potential),
    "check": _STRICT(cmd_check),
    "decompose": _STRICT(cmd_decompose),
    "corollary": _STRICT(cmd_corollary),
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
        try:
            return _HANDLERS[args.command](args)
        except NotCriticalError as exc:  # a payload _dumps refuses is a numerical failure
            payload = {"error": str(exc)}
            if exc.report is not None:
                payload["critical_report"] = _json(exc.report)
            sys.stdout.write(_dumps(payload))
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    # ArithmeticError: OverflowError past float64, or NumPy's FloatingPointError under _STRICT
    except (NumericalFailureError, DegeneratePairingError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (MixedFramesError, ValueError) as exc:  # ValueError: OptimizerConfig's checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
