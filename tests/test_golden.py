"""Golden CLI reports.

The stdout of ``potential``, ``check``, ``decompose`` and ``corollary`` on
the six fixtures, of ``gen fixture``, and of a seeded five-iteration
``optimize`` in each mode is compared with the reports kept in
``tests/golden/<subcommand>.json``.  Exit codes, keys, statuses, index
sets, integers and strings must match exactly; floats must agree to
1e-12 * (1 + |x|), so a refactor may move trailing digits but nothing
else.  When a report is meant to change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py --record

and name the changed fields in CHANGES.md.
"""

import contextlib
import io
import json
import math
import pathlib
import sys
import tempfile

import pytest

from mixedframes import cli, fixtures, frames

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FIXTURE_COMMANDS = ("potential", "check", "decompose", "corollary")
OPTIMIZE = {
    "critical": ["optimize", "--alpha", "1,1,1", "--field", "R", "--d", "2",
                 "--mode", "critical", "--seed", "7", "--max-iters", "5"],
    "potential": ["optimize", "--alpha", "1,1,1,1", "--field", "R", "--d", "2",
                  "--mode", "potential", "--seed", "7", "--max-iters", "5"],
}
CASES = (
    [("gen", name) for name in fixtures.FIXTURE_NAMES]
    + [(command, name) for command in FIXTURE_COMMANDS for name in fixtures.FIXTURE_NAMES]
    + [("optimize", mode) for mode in OPTIMIZE]
)
FLOAT_TOL = 1e-12


def case_argv(command, label, workdir):
    if command == "gen":
        return ["gen", "fixture", label]
    if command == "optimize":
        return list(OPTIMIZE[label])
    pair, spec = fixtures.fixture(label)
    path = pathlib.Path(workdir) / f"{label}.json"
    path.write_text(frames.document_to_json(frames.pair_to_document(pair, spec.alpha)))
    return [command, str(path)]


def run_case(command, label, workdir):
    """{"exit": code, "stdout": parsed JSON report} of one CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(case_argv(command, label, workdir))
    return {"exit": code, "stdout": json.loads(out.getvalue())}


def assert_matches(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        if math.isfinite(want):
            assert abs(got - want) <= FLOAT_TOL * (1.0 + abs(want)), f"{where}: {got!r} != {want!r}"
        else:
            assert got == want or (math.isnan(got) and math.isnan(want)), f"{where}: {got!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("command,label", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_golden_report(command, label, tmp_path):
    golden = json.loads((GOLDEN_DIR / f"{command}.json").read_text())
    assert_matches(run_case(command, label, tmp_path), golden[label])


def record():
    reports = {}
    with tempfile.TemporaryDirectory() as workdir:
        for command, label in CASES:
            reports.setdefault(command, {})[label] = run_case(command, label, workdir)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for command, cases in reports.items():
        (GOLDEN_DIR / f"{command}.json").write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
