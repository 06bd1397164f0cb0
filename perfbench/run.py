"""Benchmark of the mixedframes library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds;
times are rescaled to a reference host speed (see hostspeed.py).
``--trace 1`` runs the workload's first TRACE_OPS ops twice untraced and
twice with the library's public functions wrapped, reports per-layer
call counts and self times, and fails if the machine-independent counts
of the two traced passes differ.  The last line of stdout is the result
object; the line before it records the environment.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the arrays are at most 192 x 64, far below the sizes
# where OpenBLAS threading pays, and a fixed count keeps runs comparable.
# Set before numpy is imported; the CLI subprocesses inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_PROBES = 3
STARTUP_PROBES = 5

# Counts that do not depend on the machine; two traced passes must agree.
DETERMINISTIC = ("optimizer.merit.calls", "optimizer.iterations",
                 "frames.FrameSequence.constructs", "linalg.eig_general.calls",
                 "linalg.lstsq_scalar.calls")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def make_workload(workloads, name, seed, workdir):
    cls = workloads.WORKLOADS[name]
    wl = cls(seed, workdir) if cls is workloads.Cli else cls(seed)
    wl.warm_up()
    return wl


def run_ops(stream, count=None, seconds=None, tracer=None, reference=False):
    """Run ops from ``stream`` until ``count`` ops or ``seconds`` of wall
    time.  Returns the durations of the timed ``run`` calls, the ok flags
    and, with ``reference``, the time of the reference kernel run after
    each op."""
    durations, oks, references = [], [], []
    clock = time.perf_counter
    began = clock()
    for k, op in enumerate(stream):
        if tracer is not None:
            tracer.op, tracer.active = k, True
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # a failed op is counted, never dropped
            result = None
            print(f"perfbench: op {k} ({op.label}) raised {exc!r}", file=sys.stderr)
        t1 = clock()
        if tracer is not None:
            tracer.active = False
        durations.append(t1 - t0)
        try:
            oks.append(bool(op.check(result)))
        except Exception as exc:
            oks.append(False)
            print(f"perfbench: check of op {k} ({op.label}) raised {exc!r}", file=sys.stderr)
        if not oks[-1] and result is not None:
            print(f"perfbench: op {k} ({op.label}) failed its check", file=sys.stderr)
        if reference:
            references.append(hostspeed.time_reference())
        if count is not None and len(durations) >= count:
            break
        if seconds is not None and t1 - began >= seconds:
            break
    return durations, oks, references


def timed_subprocess(argv, ready_line=False):
    """Wall time of a child process: to its first stdout line when
    ``ready_line`` is set, else to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    try:
        if ready_line:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        else:
            proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if not ready_line:
        elapsed = time.perf_counter() - t0
    if code != 0 or (ready_line and line.strip() != "ready"):
        fail(f"{' '.join(argv)} exited with {code}")
    return elapsed


def metric(value, unit):
    return {"value": value, "unit": unit}


def environment(args, numpy):
    def git_commit():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(args, wl):
    stream = wl.stream(in_process=False)
    raw, oks, references = run_ops(stream, seconds=args.seconds, reference=True)
    durations = hostspeed.normalize(raw, references)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB
    probe = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    raw_setups = [timed_subprocess(probe, ready_line=True) for _ in range(SETUP_PROBES)]
    reference = statistics.median(references)  # the host speed just before the probes
    metrics = {
        "setup_s": metric(statistics.median(raw_setups) * hostspeed.REFERENCE_S / reference, "s"),
        "op_s_p50": metric(statistics.median(durations), "s"),
        "op_s_p90": metric(statistics.quantiles(durations, n=10)[-1], "s"),
        "ops_per_s": metric(len(durations) / sum(durations), "1/s"),
        "ok_frac": metric(sum(oks) / len(oks), "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    extra = {"samples": len(durations), "reference_s": reference,
             "raw": {"setup_s": statistics.median(raw_setups),
                     "op_s_p50": statistics.median(raw),
                     "op_s_p90": statistics.quantiles(raw, n=10)[-1],
                     "ops_per_s": len(raw) / sum(raw)},
             "restart_outcomes": dict(stream.outcomes),
             "dual_restarts": [stream.duals, stream.dual_restarts]}
    return metrics, oks, extra


def layer_metrics(tr, stream, statuses):
    """Per-layer metrics of one traced pass."""
    out = {}
    for name in tracer.TRACED_NAMES:
        out[f"{name}.calls"] = metric(tr.calls[name], "count")
        out[f"{name}.self_s"] = metric(tr.self_s[name], "s")
    fs = tracer.FRAME_SEQUENCE
    out[f"{fs}.constructs"] = metric(tr.calls[fs], "count")
    out[f"{fs}.self_s"] = metric(tr.self_s[fs], "s")
    out["frames.retract_to_constraint.degenerate"] = metric(
        tr.raised["frames.retract_to_constraint", "DegeneratePairingError"], "count")
    merits = tr.calls["optimizer.merit"]
    out["optimizer.iterations"] = metric(tr.iterations, "count")
    out["optimizer.iters_per_merit"] = metric(tr.iterations / merits if merits else 0.0, "ratio")
    for status in statuses:
        out[f"optimizer.status.{status}"] = metric(stream.outcomes[status], "count")
    out["optimizer.dual_frac"] = metric(
        stream.duals / stream.dual_restarts if stream.dual_restarts else 0.0, "ratio")
    return out


def per_layer(args, workloads, wl):
    from mixedframes import cli, frames, linalg, optimizer, potential, structure

    modules = {"cli": cli, "frames": frames, "linalg": linalg, "optimizer": optimizer,
               "potential": potential, "structure": structure}
    count = type(wl).TRACE_OPS

    # Untraced and traced passes alternate so that drift in machine speed
    # falls on both sides of the overhead estimate.
    untraced, traced, passes, oks = [], [], [], []
    for _ in range(2):
        durations, untraced_oks, _ = run_ops(wl.stream(in_process=True), count=count)
        untraced.append(sum(durations))
        oks += untraced_oks
        tr = tracer.Tracer()
        tr.install(modules)
        try:
            stream = wl.stream(in_process=True)
            durations, traced_oks, _ = run_ops(stream, count=count, tracer=tr)
        finally:
            tr.uninstall()
        traced.append(sum(durations))
        oks += traced_oks
        passes.append((tr, layer_metrics(tr, stream, workloads.STATUSES)))

    (tr, metrics), (_, again) = passes
    differ = [k for k in DETERMINISTIC if metrics[k] != again[k]]
    if differ:
        fail("machine-independent counts differ between two traced passes: " + ", ".join(
            f"{k} {metrics[k]['value']} != {again[k]['value']}" for k in differ))
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    tr.write_spans(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl.gz"))

    py = sys.executable
    metrics["cli.startup_s"] = metric(statistics.median(
        timed_subprocess([py, "-c", "import mixedframes.cli"]) for _ in range(STARTUP_PROBES)), "s")
    metrics["cli.interpreter_s"] = metric(statistics.median(
        timed_subprocess([py, "-c", "pass"]) for _ in range(STARTUP_PROBES)), "s")
    metrics["trace.overhead_s"] = metric(statistics.mean(traced) - statistics.mean(untraced), "s")
    extra = {"samples": count, "untraced_s": untraced, "traced_s": traced}
    return metrics, oks, extra


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixedframes", "__init__.py")):
        fail(f"no mixedframes sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC  # for the CLI and start-up subprocesses
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = make_workload(workloads, args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, oks, extra = per_layer(args, workloads, wl)
        else:
            metrics, oks, extra = end_to_end(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"record": {**environment(args, numpy), **extra}}))
    failed = len(oks) - sum(oks)
    print(json.dumps({"correct": failed == 0, "attempted": len(oks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
