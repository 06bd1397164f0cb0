"""Print one sha256 over the search results of the benchmark's optimizer problems.

CriticalSearch.PROBLEMS x seeds 0-3 at 300 iterations, Descent.PROBLEMS x seeds 0-4 at 40, at
1 BLAS thread; each result adds its status, histories, final F/G bytes, the report's c and
residual bytes with repr((is_critical, tol, mixed_norm)) and repr((constraint_residual_final,
dual_deviation)).  Same results, same digest: ``python tools/search_digest.py``."""

import hashlib
import os
import sys
from dataclasses import replace


def digest():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from mixedframes import frames, optimizer
    from perfbench.workloads import CriticalSearch, Descent
    h = hashlib.sha256()
    for problems, seeds, iters in ((CriticalSearch.PROBLEMS, range(4), 300),
                                   (Descent.PROBLEMS, range(5), 40)):
        for _, field_, d, alpha, cfg in problems:
            for seed in seeds:
                res = optimizer.search(frames.ConstraintSpec(alpha), field_, d,
                                       replace(cfg, seed=seed, max_iters=iters))
                rep, pair = res.critical_report_final, res.final_pair
                parts = [res.status, repr(res.merit_history), repr(res.objective_history),
                         pair.f.vectors, pair.g.vectors]
                if rep is not None:
                    parts += [rep.c, rep.f_residuals, rep.g_residuals,
                              repr((rep.is_critical, rep.tol, rep.mixed_norm))]
                parts.append(repr((res.constraint_residual_final, res.dual_deviation)))
                for part in parts:
                    h.update(part.encode() if isinstance(part, str) else part.tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), "1"))
    print(digest())  # numpy loads inside digest(), after the thread count is set
