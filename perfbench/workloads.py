"""The four benchmark workloads.

Each workload is built from the workload seed, warms every kernel size up
once, and hands out an endless, deterministic stream of ops.  An op is a
label, a ``run`` callable (the only part that is timed) and a ``check``
callable that verifies the output.  ``check`` receives ``None`` when
``run`` raised, returns whether the output is correct, and may advance the
stream's state (a sliced restart resumes from the last result).

The library is reached only through module attributes
(``optimizer.search``, ``structure.decompose``, ...) so that the traced
run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter, namedtuple
from dataclasses import replace

import numpy as np

from mixedframes import cli, fixtures, frames, optimizer, potential, structure

Op = namedtuple("Op", "label run check")

STATUSES = (optimizer.CONVERGED, optimizer.MAX_ITERS, optimizer.DIVERGED,
            optimizer.DEGENERATE_RETRACTION)
DUAL_TOL = 1e-6  # criterion 9's dual-pair tolerance


def _strictly_decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def _sub_rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


class _Stream:
    """Base of the op streams: restart outcomes and dual-pair tallies."""

    def __init__(self):
        self.outcomes = Counter()  # final status of each restart that ended
        self.duals = 0  # restarts with sum(alpha) = d that ended in a dual pair
        self.dual_restarts = 0


# ---------------------------------------------------------------------------
# critical-search and descent: restarts run in slices
#
# A restart takes from 2 to 5000 iterations (critical-search: 0.1 s to
# 30 s; descent at (64, 192): 0.05 s to 8 s), far too uneven for a run of
# half a minute to give a steady figure.  So both workloads keep several
# restarts of each problem in flight as chains, and one op advances every
# chain by one *slice*: a ``search()`` call with at most ``slice_iters``
# iterations that resumes from the previous slice's final pair.  A restart
# ends when its status is not MAX_ITERS, when a slice stops short of its
# iterations (the step search stalled), or at the default budget of 5000
# iterations; the chain then takes the problem's next restart seed.
# Restart seeds of each problem are handed out consecutively from the
# workload seed.  An op thus does bounded work that averages over several
# restarts at different stages, while restart outcomes are still counted.


class _Chain:
    """Consecutive restarts of one problem, advanced a slice at a time."""

    def __init__(self, label, field_, d, spec, cfg, slice_iters, seeds):
        self.label, self.field, self.d, self.spec, self.cfg = label, field_, d, spec, cfg
        self.slice_iters, self.seeds = slice_iters, seeds
        self.history = ("merit_history" if cfg.mode == optimizer.CRITICAL_SEARCH
                        else "objective_history")
        self.next_restart()

    def next_restart(self):
        self.seed, self.start, self.done = next(self.seeds), None, 0

    def call(self):
        cfg = replace(self.cfg, seed=self.seed,
                      max_iters=min(self.slice_iters, self.cfg.max_iters - self.done))
        return optimizer.search(self.spec, self.field, self.d, cfg, initial_pair=self.start)

    def advance(self, res):
        """Record a slice; returns the restart's final status when it ended."""
        iters = len(res.merit_history) - 1
        self.done += iters
        if (res.status == optimizer.MAX_ITERS and iters == self.slice_iters
                and self.done < self.cfg.max_iters):
            self.start = res.final_pair
            return None
        self.next_restart()
        return res.status

    def check(self, res):
        ok = res.status in STATUSES and _strictly_decreasing(getattr(res, self.history))
        if ok and res.status == optimizer.CONVERGED and self.cfg.mode == optimizer.CRITICAL_SEARCH:
            ok = structure.critical_report(res.final_pair, self.spec,
                                           tol=structure.DEFAULT_CRITICAL_TOL).is_critical
        return ok


class _SlicedWorkload:
    PROBLEMS = ()  # (label, field, d, alpha, OptimizerConfig)
    CHAINS_PER_PROBLEM = 1
    SLICE_ITERS = 1

    def __init__(self, seed):
        self.seed = seed

    def chains(self, slice_iters=None):
        chains = []
        for label, field_, d, alpha, cfg in self.PROBLEMS:
            spec, seeds = frames.ConstraintSpec(alpha), itertools.count(self.seed)
            chains += [_Chain(label, field_, d, spec, cfg, slice_iters or self.SLICE_ITERS, seeds)
                       for _ in range(self.CHAINS_PER_PROBLEM)]
        return chains

    def warm_up(self):
        for chain in self.chains(slice_iters=1)[::self.CHAINS_PER_PROBLEM]:
            chain.call()

    def stream(self, in_process=False):
        return _SlicedStream(self.chains())


class _SlicedStream(_Stream):
    def __init__(self, chains):
        super().__init__()
        self.chains = chains

    def __iter__(self):
        while True:
            label = ", ".join(f"{c.label} seed {c.seed}" for c in self.chains)
            yield Op(label, self._run, self._check)

    def _run(self):
        return [chain.call() for chain in self.chains]

    def _check(self, results):
        if results is None:
            for chain in self.chains:
                chain.next_restart()
                self.outcomes["ERROR"] += 1
            return False
        ok = True
        for chain, res in zip(self.chains, results):
            ok = chain.check(res) and ok
            status = chain.advance(res)
            if status is None:
                continue
            self.outcomes[status] += 1
            if (chain.cfg.mode == optimizer.CRITICAL_SEARCH
                    and abs(np.sum(chain.spec.alpha) - chain.d) < 1e-12):
                self.dual_restarts += 1
                self.duals += int(frames.is_dual_pair(res.final_pair, DUAL_TOL)[0])
        return ok


class CriticalSearch(_SlicedWorkload):
    """CRITICAL_SEARCH with the CLI's default OptimizerConfig on criterion
    9's problem (R, d = 2, alpha = 1/2 x 4, where sum alpha = d and dual
    pairs exist) and on a complex problem (C, d = 2, alpha = 1 x 3)."""

    name = "critical-search"
    TRACE_OPS = 20
    CHAINS_PER_PROBLEM = 8
    SLICE_ITERS = 2
    PROBLEMS = (
        ("R", frames.Field.REAL, 2, np.full(4, 0.5), optimizer.OptimizerConfig()),
        ("C", frames.Field.COMPLEX, 2, np.ones(3), optimizer.OptimizerConfig()),
    )


def _descent(objective):
    return optimizer.OptimizerConfig(mode=optimizer.POTENTIAL_DESCENT, objective=objective)


class Descent(_SlicedWorkload):
    """POTENTIAL_DESCENT with the default divergence bound and alpha = ones,
    over R with REAL_PART and over C with REAL_PART and IMAG_PART, at
    (d, N) = (16, 48) and (64, 192)."""

    name = "descent"
    TRACE_OPS = 24
    SLICE_ITERS = 2
    PROBLEMS = tuple(
        (f"{field_.value} {objective} d={d}", field_, d, np.ones(n), _descent(objective))
        for d, n in ((16, 48), (64, 192))
        for field_, objective in ((frames.Field.REAL, optimizer.REAL_PART),
                                  (frames.Field.COMPLEX, optimizer.REAL_PART),
                                  (frames.Field.COMPLEX, optimizer.IMAG_PART))
    )


# ---------------------------------------------------------------------------
# analyze


def plant_critical_pair(rng, field_, d, n):
    """A critical pair in FX-MIX style with a known decomposition.

    Two orthogonal blocks of dimensions d1 = d - d/2 and d2 = d/2.  On the
    first, N - d2 vectors and the canonical dual scaled so that TU* =
    lam1 Id: this is the minimal-modulus group I.  On the second, d2
    biorthogonal vectors with <f_l, g_m> = lam2 delta_lm and |lam2| >=
    2 |lam1|.  Indices are shuffled; alpha is the diagonal products.
    Returns (pair, spec, index sets, group I), index sets as frozensets.
    """
    is_complex = field_ is frames.Field.COMPLEX

    def gauss(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if is_complex else x

    def phase():
        return np.exp(1j * rng.uniform(0, 2 * np.pi)) if is_complex else rng.choice((-1.0, 1.0))

    d2 = d // 2
    d1, n1 = d - d2, n - d2
    q, _ = np.linalg.qr(gauss(d, d))
    b1, b2 = q[:, :d1], q[:, d1:]
    lam1 = rng.uniform(0.5, 1.5) * phase()
    lam2 = lam1 * rng.uniform(2.0, 4.0) * phase()

    a1 = gauss(n1, d1)  # coordinates of f_m in the first block
    s = a1.T @ a1.conj()  # frame operator in those coordinates
    c1 = np.conj(lam1) * a1 @ np.linalg.inv(s).T  # scaled canonical dual
    u, _ = np.linalg.qr(gauss(d2, d2))
    v, _ = np.linalg.qr(gauss(d2, d2))
    a2 = (u * rng.uniform(0.5, 2.0, d2)) @ v  # condition number <= 4
    c2 = np.conj(lam2 * np.linalg.inv(a2)).T

    fv = np.vstack([a1 @ b1.T, a2 @ b2.T])
    gv = np.vstack([c1 @ b1.T, c2 @ b2.T])
    perm = rng.permutation(n)
    fv, gv = fv[perm].astype(np.complex128), gv[perm].astype(np.complex128)
    inverse = np.argsort(perm)
    group = sorted(int(m) for m in inverse[:n1])
    sets = {frozenset(group), frozenset(int(m) for m in inverse[n1:])}
    pair = frames.FramePair(frames.FrameSequence(field_, fv), frames.FrameSequence(field_, gv))
    spec = frames.ConstraintSpec(np.sum(fv * gv.conj(), axis=1))
    return pair, spec, sets, group


def analyze_pipeline(pair, spec):
    """The whole verification pipeline on one pair."""
    direct = potential.fp_direct(pair)
    traced = potential.fp_trace(pair)
    potential.bound_report(pair, spec)
    potential.scaled_identity_check(pair, spec)
    crit = structure.critical_report(pair, spec)
    dec = structure.decompose(pair, spec)
    structure.corollary_check(pair, spec)
    return direct, traced, crit, dec


class Analyze:
    """The verification pipeline on seeded planted critical pairs over R
    and C.  Per field the cycle is one pair each at (2, 4), (4, 12) and
    (64, 192) and three at (16, 48), so the median op lies inside the
    (16, 48) cases and the 90th percentile inside the (64, 192) ones,
    instead of on the edge between two sizes.  d > 64 is left out:
    ``linalg.MAX_EIG_ORDER`` rejects it."""

    name = "analyze"
    TRACE_OPS = 48
    CYCLE = ((2, 4), (4, 12), (16, 48), (16, 48), (16, 48), (64, 192))
    FIELDS = (frames.Field.REAL, frames.Field.COMPLEX)

    def __init__(self, seed):
        self.seed = seed
        self.cases = [(field_, d, n) for field_ in self.FIELDS for d, n in self.CYCLE]

    def warm_up(self):
        for i, (field_, d, n) in enumerate(dict.fromkeys(self.cases)):
            pair, spec, _, _ = plant_critical_pair(_sub_rng(self.seed, 0, i), field_, d, n)
            analyze_pipeline(pair, spec)

    def stream(self, in_process=False):
        return _AnalyzeStream(self)


class _AnalyzeStream(_Stream):
    def __init__(self, workload):
        super().__init__()
        self.w = workload

    def __iter__(self):
        for k in itertools.count():
            field_, d, n = self.w.cases[k % len(self.w.cases)]
            pair, spec, sets, group = plant_critical_pair(_sub_rng(self.w.seed, 1, k), field_, d, n)

            def run(pair=pair, spec=spec):
                return analyze_pipeline(pair, spec)

            def check(out, sets=sets, group=group):
                if out is None:
                    return False
                direct, traced, crit, dec = out
                fp = direct.value
                return (crit.is_critical
                        and {frozenset(s) for s in dec.classification.index_sets} == sets
                        and dec.group == group
                        and abs(fp - traced.value) <= 1e-9 * (1 + abs(fp)))

            yield Op(f"{field_.value} d={d} N={n}", run, check)


# ---------------------------------------------------------------------------
# cli

# Exit code each subcommand gives each fixture (0 verified, 1 check failed);
# `gen`, `potential`, `check` and `decompose` succeed on all six.  Only
# FX-ONB2 is a dual pair, so only it meets the corollary's conditions.
COROLLARY_EXIT = {"FX-ONB2": 0, "FX-SCALE": 1, "FX-D1": 1, "FX-MB": 1, "FX-IMAG": 1, "FX-MIX": 1}

# Report status -> exit code under the 0/1/2/3 contract.
STATUS_EXIT = {
    "potential": {"ok": 0, "discrepancy": 1},
    "check": {"critical": 0, "not_critical": 1},
    "decompose": {"ok": 0, "residuals_exceed_tol": 1},
    "corollary": {"ok": 0, "failed": 1},
    "optimize": {optimizer.CONVERGED: 0, optimizer.MAX_ITERS: 1, optimizer.DIVERGED: 1,
                 optimizer.DEGENERATE_RETRACTION: 3},
}


class Cli:
    """One ``python -m mixedframes.cli`` process per op, one after
    another (a closed loop with one client).  The command list covers
    every subcommand on the six fixture documents, ``corollary
    --alpha-only``, ``gen random --alpha``, ``potential`` and ``check`` on
    a generated C (16, 48) document, and one short ``optimize`` in each
    mode.  Commands are grouped by fixture, each group running every
    subcommand, so that any stretch of the list mixes subcommands evenly."""

    name = "cli"
    TRACE_OPS = 72

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.commands = []  # (argv, expected exit code, expected stdout or None)
        for name in fixtures.FIXTURE_NAMES:
            pair, spec = fixtures.fixture(name)
            text = frames.document_to_json(frames.pair_to_document(pair, spec.alpha))
            path = self._write(f"{name}.json", text)
            self.commands += [
                (["gen", "fixture", name], 0, text),
                (["potential", path], 0, None),
                (["check", path], 0, None),
                (["decompose", path], 0, None),
                (["corollary", path], COROLLARY_EXIT[name], None),
            ]
        d, n = 16, 48
        ones = ",".join(["1"] * n)
        pair = frames.random_pair(frames.Field.COMPLEX, d, n, seed)
        pair = frames.retract_to_constraint(pair, frames.ConstraintSpec(np.ones(n)))
        text = frames.document_to_json(frames.pair_to_document(pair, np.ones(n)))
        path = self._write("random-C-16-48.json", text)
        self.commands += [
            (["gen", "random", "--field", "C", "--d", str(d), "--N", str(n),
              "--seed", str(seed), "--alpha", ones], 0, text),
            (["potential", path], 0, None),
            (["check", path], 1, None),  # a random pair is not critical
            (["corollary", "--alpha-only", "1,1", "--d", "2", "--N", "3"], 0, None),
            # five iterations keep these as cheap as the other commands, so
            # the 90th percentile does not sit on the edge of a slow cluster
            (["optimize", "--alpha", "1,1,1", "--field", "R", "--d", "2", "--mode", "critical",
              "--seed", "7", "--max-iters", "5"], 1, None),
            (["optimize", "--alpha", "1,1,1,1", "--field", "R", "--d", "2",
              "--mode", "potential", "--seed", "7", "--max-iters", "5"], 1, None),
        ]

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def warm_up(self):
        self.run_subprocess(["potential", self.commands[1][0][1]])

    @staticmethod
    def run_subprocess(argv):
        """Exit code and stdout of one CLI process; the library is found
        through the PYTHONPATH the benchmark sets."""
        proc = subprocess.run([sys.executable, "-m", "mixedframes.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def run_in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def stream(self, in_process=False):
        return _CliStream(self, in_process)


class _CliStream(_Stream):
    def __init__(self, workload, in_process):
        super().__init__()
        self.w = workload
        self.call = workload.run_in_process if in_process else workload.run_subprocess

    def __iter__(self):
        for argv, code, text in itertools.cycle(self.w.commands):
            def run(argv=argv):
                return self.call(argv)

            def check(out, argv=argv, code=code, text=text):
                return out is not None and self._check(argv, code, text, *out)

            yield Op(" ".join(argv[:2]), run, check)

    def _check(self, argv, expected, text, code, stdout):
        if code != expected:
            return False
        if argv[0] == "gen":
            return stdout == text
        report = json.loads(stdout)
        if argv[0] == "optimize":
            self.outcomes[report["status"]] += 1
        return (report["command"] == argv[0]
                and STATUS_EXIT[argv[0]].get(report["status"]) == code)


WORKLOADS = {w.name: w for w in (CriticalSearch, Descent, Analyze, Cli)}
