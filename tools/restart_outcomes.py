"""Run whole restarts of the benchmark's optimizer problems to their outcome and print them.

CriticalSearch.PROBLEMS x seeds 0-15 and Descent.PROBLEMS x seeds 0-2, each one restart at
max_iters 2000, at 1 BLAS thread.  One line per restart: problem, seed, status, iterations and
``is_dual_pair`` at 1e-6; then the tallies per mode and one sha256 over every restart's
(problem, seed, status, dual verdict), the outcome a numerically equivalent change keeps.
These counts do not depend on the machine; the wall time goes to stderr.  ROOT (default: the
checkout holding this script) selects the source tree, so two checkouts can be compared:
``python tools/restart_outcomes.py [ROOT]``."""

import collections
import hashlib
import os
import sys
import time
from dataclasses import replace

MAX_ITERS = 2000
DUAL_TOL = 1e-6


def outcomes(root):
    sys.path[:0] = [os.path.join(root, "src"), root]
    from mixedframes import frames, optimizer
    from perfbench.workloads import CriticalSearch, Descent
    h = hashlib.sha256()
    for mode, problems, seeds in (("critical", CriticalSearch.PROBLEMS, range(16)),
                                  ("descent", Descent.PROBLEMS, range(3))):
        tally, iterations = collections.Counter(), 0
        for label, field_, d, alpha, cfg in problems:
            for seed in seeds:
                res = optimizer.search(frames.ConstraintSpec(alpha), field_, d,
                                       replace(cfg, seed=seed, max_iters=MAX_ITERS))
                dual, _ = frames.is_dual_pair(res.final_pair, tol=DUAL_TOL)
                iters = max(len(res.merit_history) - 1, 0)
                print(f"{mode} {label} seed {seed}: {res.status} iterations {iters} dual {dual}")
                h.update(f"{mode} {label} {seed} {res.status} {dual}\n".encode())
                tally[res.status] += 1
                tally["dual"] += dual
                iterations += iters
        counts = ", ".join(f"{key} {n}" for key, n in sorted(tally.items()))
        print(f"{mode}: {counts}, iterations {iterations}")
    print(h.hexdigest())


if __name__ == "__main__":
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), "1"))
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    start = time.perf_counter()
    # numpy loads inside outcomes(), after the thread count is set
    outcomes(os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else here)
    print(f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
