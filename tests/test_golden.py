"""Golden CLI reports.

The stdout of ``potential``, ``check``, ``decompose`` and ``corollary`` on
the six fixtures, of ``gen fixture``, and of a seeded five-iteration
``optimize`` in each mode is compared with the reports kept in
``tests/golden/<subcommand>.json``.  Exit codes, keys, statuses, index
sets, integers and strings must match exactly; floats must agree to
1e-12 * (1 + |x|), so a refactor may move trailing digits but nothing
else.  When a report is meant to change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py --record

and name the changed fields in CHANGES.md: the command prints the JSON
path of each one.  A re-record keeps every stored float that the new run
still matches, so the files change only where a report did.
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


def floats_agree(got, want):
    if math.isfinite(want):
        return abs(got - want) <= FLOAT_TOL * (1.0 + abs(want))
    return got == want or (math.isnan(got) and math.isnan(want))


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
        assert floats_agree(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("command,label", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_golden_report(command, label, tmp_path):
    golden = json.loads((GOLDEN_DIR / f"{command}.json").read_text())
    assert_matches(run_case(command, label, tmp_path), golden[label])


_MISSING = object()


def merged(got, stored, changed, where="$"):
    """The new report ``got``, keeping each float of the stored report
    that ``got`` matches to FLOAT_TOL; every other difference (a key, a
    type, a length, a string, a float beyond the tolerance) takes the new
    value, and its JSON path (a key only the stored report has included)
    is appended to ``changed``."""
    if isinstance(got, dict) and isinstance(stored, dict):
        changed.extend(f"{where}.{key}" for key in stored if key not in got)
        return {key: merged(value, stored.get(key, _MISSING), changed, f"{where}.{key}")
                for key, value in got.items()}
    if isinstance(got, list) and isinstance(stored, list) and len(got) == len(stored):
        return [merged(g, s, changed, f"{where}[{i}]") for i, (g, s) in enumerate(zip(got, stored))]
    if isinstance(got, float) and isinstance(stored, float) and floats_agree(got, stored):
        return stored
    if type(got) is not type(stored) or got != stored:
        changed.append(where)
    return got


def test_record_keeps_only_unchanged_floats():
    stored = {"status": "ok", "within": [1.0, 2.0], "beyond": 3.0, "old": 1.0, "none": None}
    got = {"status": "ok", "within": [1.0 + 1e-15, 2.0], "beyond": 3.001, "new": 1.0,
           "none": None}
    changed = []
    assert merged(got, stored, changed) == {"status": "ok", "within": [1.0, 2.0],
                                            "beyond": 3.001, "new": 1.0, "none": None}
    assert changed == ["$.old", "$.beyond", "$.new"]
    changed = []
    assert merged({"n": [1, 2], "s": "b", "x": 1}, {"n": [1], "s": "a", "x": 1.0}, changed)
    assert changed == ["$.n", "$.s", "$.x"]


def record():
    """Rewrite the golden files and print each JSON path that changed,
    one per line, prefixed by its file."""
    reports = {}
    with tempfile.TemporaryDirectory() as workdir:
        for command, label in CASES:
            reports.setdefault(command, {})[label] = run_case(command, label, workdir)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for command, cases in reports.items():
        path = GOLDEN_DIR / f"{command}.json"
        stored = json.loads(path.read_text()) if path.exists() else {}
        changed = []
        path.write_text(json.dumps(merged(cases, stored, changed), indent=1) + "\n")
        for where in changed:
            print(f"{path.name} {where}")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
