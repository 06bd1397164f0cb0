"""Print the restart table and four sha256 digests of the library's and the CLI's behaviour.

``python tools/digest.py [ROOT] [--blas-threads N]``; ROOT (default: this script's checkout)
selects the source tree, so two checkouts can be compared.  Everything runs in process at N BLAS
threads (default 1, the count every recorded line is taken at), set before NumPy loads.

* ``outcomes``: one restart at max_iters 2000 per CriticalSearch.PROBLEMS x seeds 0-15 and
  Descent.PROBLEMS x seeds 0-2, tabled (problem, seed, status, iterations, ``is_dual_pair`` at
  1e-6) and tallied per mode; hashed over (problem, seed, status, dual), which no machine moves.
  Each mode's tally closes with its work, summed from the restarts' ``SearchResult.work``:
  kernel passes (descent passes only its start and each accepted trial) and trials priced, by
  a kernel pass or by Tr(M^2) as descent prices them, a start counting one of each; the trials
  a degenerate pairing kept from being priced are not printed.  Unless every CRITICAL_SEARCH
  restart that did not meet a degenerate pairing ends CONVERGED exactly when
  ``structure.critical_report`` calls its final pair critical, the script exits 1 and prints no
  ``outcomes`` line.
* ``search``: CriticalSearch.PROBLEMS x seeds 0-3 at 300 iterations, Descent.PROBLEMS x seeds
  0-4 at 40: status, histories, final F/G bytes, the c and residual bytes with
  repr((is_critical, tol, mixed_norm)) of the final pair's ``structure.critical_report`` as
  ``optimize`` prints it (none when the pair fails the report's checks), and the repr of its
  max ``frames.constraint_residual`` and its ``frames.is_dual_pair`` deviation.
  The same runs are made again as 2-iteration slices, each resumed from the last one's
  ``final_pair``; unless those hash the same (a resumed search continues bit for bit) and their
  summed ``work`` is each whole run's (a resumed slice counts only its own), the script exits 1
  and prints no ``search`` line.
* ``reports``: 240 seeded ``plant_critical_pair`` pairs over the Analyze cases through
  ``perfbench.workloads.analyze_pipeline``, by ``_feed``; then the CLI's exit code and stdout:
  ``potential``, ``check``, ``decompose`` and ``corollary`` on the six fixtures, the last three
  on FX-MB with F and G scaled by 1000 (its FP meets the bound to one ulp at 4.5e12),
  ``decompose`` on two seeded non-critical pairs (the NotCriticalError payload), ``corollary
  --alpha-only`` on valid inputs and ``optimize`` in both modes over R and C at seeds 0-2.
* ``tall``: ``structure.decompose`` on seeded ``plant_critical_pair`` pairs at (d, N) = (8, 400)
  and (8, 4000) over R and C, by ``_feed``: tall span bases and clusters of thousands of
  eigenvalues, sizes the other lines never reach.
"""

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile


def _thread_count(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 BLAS thread, got {count}")
    return count


_parser = argparse.ArgumentParser(description="Print the restart table and four behaviour digests.")
_parser.add_argument("root", nargs="?", default=os.path.join(os.path.dirname(__file__), ".."),
                     help="the source tree to run (default: this script's checkout)")
_parser.add_argument("--blas-threads", type=_thread_count, default=1, metavar="N",
                     help="BLAS threads to run at (default 1)")
ARGS = _parser.parse_args()
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), str(ARGS.blas_threads)))
ROOT = os.path.abspath(ARGS.root)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402  (loads only once the thread count is set)
from mixedframes import cli, fixtures, frames, optimizer, structure  # noqa: E402
from perfbench.workloads import (Analyze, CriticalSearch, Descent, _sub_rng,  # noqa: E402
                                 analyze_pipeline, plant_critical_pair)

COMMANDS = ("potential", "check", "decompose", "corollary")
SCALE = 1e3  # FX-MB scaled: F, G times SCALE and alpha times SCALE^2
NON_CRITICAL = (("R", 2, 4, 11), ("C", 3, 5, 0))  # field, d, N, seed, retracted onto alpha = 1
ALPHA_ONLY = (("1,1", "2", "3"), ("1,0.5", "2", "3"), ("1+0.5i,1-0.5i,-i,i", "2", "4"))
SLICE = 2  # iterations per resumed slice, as in the benchmark's critical-search and descent
TALL = ((8, 400), (8, 4000))  # (d, N) of the planted pairs the ``tall`` line decomposes
OPTIMIZE = [("--field", field, "--mode", mode, "--seed", str(seed))
            for field in "RC" for mode in ("critical", "potential") for seed in range(3)]


def _feed(h, obj):
    """Hash obj exactly: dataclasses field by field, sequences item by item."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode() + obj.tobytes())
    else:
        h.update(repr(obj).encode())


def _searches(problems, seeds, max_iters, run=optimizer.search):
    """(label, seed, spec, result) of one ``run`` (``optimizer.search`` or ``_sliced``) per
    problem and seed."""
    for label, field_, d, alpha, cfg in problems:
        spec = frames.ConstraintSpec(alpha)
        for seed in seeds:
            one = dataclasses.replace(cfg, seed=seed, max_iters=max_iters)
            yield label, seed, spec, run(spec, field_, d, one)


def _sliced(spec, field_, d, cfg):
    """``optimizer.search`` in slices of SLICE iterations, each resumed from the last one's
    ``final_pair``, stitched into one result: the histories without each slice's repeated
    start, the slices' summed work, the last slice's pair."""
    merit, objective, work, start = [], [], [], None
    while True:
        left = cfg.max_iters - max(len(merit) - 1, 0)
        run = dataclasses.replace(cfg, max_iters=min(SLICE, left))
        res = optimizer.search(spec, field_, d, run, initial_pair=start)
        merit += res.merit_history[len(merit) > 0:]
        objective += res.objective_history[len(objective) > 0:]
        work.append(res.work)
        if (res.status != optimizer.MAX_ITERS or len(res.merit_history) - 1 < SLICE
                or len(merit) - 1 == cfg.max_iters):
            return dataclasses.replace(res, merit_history=merit, objective_history=objective,
                                       work=optimizer.SearchWork(*map(sum, zip(*work))))
        start = res.final_pair


def outcomes():
    h = hashlib.sha256()
    for mode, problems, seeds in (("critical", CriticalSearch.PROBLEMS, range(16)),
                                  ("descent", Descent.PROBLEMS, range(3))):
        tally, iterations, work = collections.Counter(), 0, collections.Counter()
        for label, seed, spec, res in _searches(problems, seeds, 2000):
            dual, _ = frames.is_dual_pair(res.final_pair, tol=1e-6)
            iters = max(len(res.merit_history) - 1, 0)
            print(f"{mode} {label} seed {seed}: {res.status} iterations {iters} dual {dual}")
            h.update(f"{mode} {label} {seed} {res.status} {dual}\n".encode())
            tally[res.status] += 1
            tally["dual"] += dual
            iterations += iters
            work.update(res.work._asdict())
            if mode == "critical" and res.status != optimizer.DEGENERATE_RETRACTION:
                rep = cli._final_report(res, spec)
                is_critical = rep is not None and rep.is_critical
                if (res.status == optimizer.CONVERGED) != is_critical:
                    sys.exit(f"outcomes: critical {label} seed {seed} ends {res.status}, but "
                             f"critical_report of its final pair has is_critical {is_critical}")
        counts = ", ".join(f"{key} {n}" for key, n in sorted(tally.items()))
        print(f"{mode}: {counts}, iterations {iterations}, kernel passes {work['passes']} "
              f"({work['passes'] / iterations:.2f} per iteration), trials {work['trials']} "
              f"({work['trials'] / iterations:.2f} per iteration)")
    return h.hexdigest()


def search():
    digests, works = [], []
    for run in (optimizer.search, _sliced):
        h, work = hashlib.sha256(), []
        for problems, seeds, iters in ((CriticalSearch.PROBLEMS, range(4), 300),
                                       (Descent.PROBLEMS, range(5), 40)):
            for _, _, spec, res in _searches(problems, seeds, iters, run):
                work.append(res.work)
                rep, pair = cli._final_report(res, spec), res.final_pair
                parts = [res.status, repr(res.merit_history), repr(res.objective_history),
                         pair.f.vectors, pair.g.vectors]
                if rep is not None:
                    parts += [rep.c, rep.f_residuals, rep.g_residuals,
                              repr((rep.is_critical, rep.tol, rep.mixed_norm))]
                parts.append(repr((float(frames.constraint_residual(pair, spec).max()),
                                   frames.is_dual_pair(pair)[1])))
                for part in parts:
                    h.update(part.encode() if isinstance(part, str) else part.tobytes())
        digests.append(h.hexdigest())
        works.append(work)
    if digests[1] != digests[0]:
        sys.exit(f"search: {SLICE}-iteration slices resumed from final_pair hash {digests[1]}, "
                 f"whole runs {digests[0]}")
    for k, (whole, sliced) in enumerate(zip(*works)):
        if sliced != whole:
            sys.exit(f"search: run {k}'s {SLICE}-iteration slices resumed from final_pair sum "
                     f"to {sliced}, its whole run {whole}")
    return digests[0]


def reports():
    h = hashlib.sha256()
    cases = Analyze(0).cases
    for k in range(240):
        pair, spec, _, _ = plant_critical_pair(_sub_rng(0, 1, k), *cases[k % len(cases)])
        _feed(h, analyze_pipeline(pair, spec))

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, pair, alpha):
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                fh.write(frames.document_to_json(frames.pair_to_document(pair, alpha)))
            return path

        runs = []
        for name in fixtures.FIXTURE_NAMES:
            pair, spec = fixtures.fixture(name)
            path = write(name, pair, spec.alpha)
            runs += [[command, path] for command in COMMANDS]
        pair, spec = fixtures.fixture("FX-MB")
        scaled = frames.FramePair(frames.FrameSequence(pair.field, SCALE * pair.f.vectors),
                                  frames.FrameSequence(pair.field, SCALE * pair.g.vectors))
        path = write("FX-MB-scaled", scaled, SCALE**2 * spec.alpha)
        runs += [[command, path] for command in COMMANDS[1:]]
        for field_, d, n, seed in NON_CRITICAL:
            pair = frames.retract_to_constraint(
                frames.random_pair(frames.Field(field_), d, n, seed),
                frames.ConstraintSpec(np.ones(n)))
            runs.append(["decompose", write(f"nc-{field_}-{seed}", pair, np.ones(n))])
        runs += [["corollary", "--alpha-only", alpha, "--d", d, "--N", n]
                 for alpha, d, n in ALPHA_ONLY]
        runs += [["optimize", "--alpha", "1,1,1", "--d", "2", "--max-iters", "200", *flags]
                 for flags in OPTIMIZE]
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            label = " ".join(map(os.path.basename, argv))  # document names, not the temp dir
            h.update(f"{label} {code}\n".encode() + out.getvalue().encode())
    return h.hexdigest()


def tall():
    h = hashlib.sha256()
    for k, (field_, (d, n)) in enumerate((f, size) for f in Analyze.FIELDS for size in TALL):
        pair, spec, _, _ = plant_critical_pair(_sub_rng(0, 2, k), field_, d, n)
        _feed(h, structure.decompose(pair, spec))
    return h.hexdigest()


print(f"outcomes {outcomes()}")
print(f"search {search()}")
print(f"reports {reports()}")
print(f"tall {tall()}")
