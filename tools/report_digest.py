"""Print one sha256 over the verification reports of the library and the CLI.

240 seeded ``plant_critical_pair`` pairs, cycling through the Analyze cases (both fields, d up
to 64), through ``perfbench.workloads.analyze_pipeline``, each report field by field (array
dtype, shape and bytes, every other value's repr); then the exit code and stdout of ``potential``,
``check``, ``decompose`` and ``corollary`` on the six fixture documents, of the last three on
FX-MB with F and G scaled by 1000 (a tight frame whose FP meets the bound to one ulp at 4.5e12)
and of ``decompose`` on two seeded non-critical pairs (the NotCriticalError payload); then
``corollary --alpha-only`` on valid inputs and ``optimize`` in both modes over R and C at seeds
0-2; all run in process, at 1 BLAS thread.  ROOT (default: the checkout holding this script)
selects the source tree, so two checkouts can be compared:
``python tools/report_digest.py [ROOT]``."""

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile

PIPELINES = 240
COMMANDS = ("potential", "check", "decompose", "corollary")
SCALE = 1e3  # FX-MB scaled: F, G times SCALE and alpha times SCALE^2
NON_CRITICAL = (("R", 2, 4, 11), ("C", 3, 5, 0))  # field, d, N, seed, retracted onto alpha = 1
ALPHA_ONLY = (("1,1", "2", "3"), ("1,0.5", "2", "3"), ("1+0.5i,1-0.5i,-i,i", "2", "4"))
OPTIMIZE = [("--field", field, "--mode", mode, "--seed", str(seed))
            for field in "RC" for mode in ("critical", "potential") for seed in range(3)]


def _feed(h, obj):
    """Hash obj exactly: dataclasses field by field, sequences item by item."""
    import numpy as np
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


def digest(root):
    sys.path[:0] = [os.path.join(root, "src"), root]
    import numpy as np
    from mixedframes import cli, fixtures, frames
    from perfbench.workloads import Analyze, _sub_rng, analyze_pipeline, plant_critical_pair
    h = hashlib.sha256()
    cases = Analyze(0).cases
    for k in range(PIPELINES):
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


if __name__ == "__main__":
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), "1"))
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # numpy loads inside digest(), after the thread count is set
    print(digest(os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else here))
