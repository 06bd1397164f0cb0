import re
import subprocess
import sys
from pathlib import Path

from mixedframes import optimizer

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tools" / "digest.py"


def test_digest_prints_four_digests():
    """tools/digest.py runs to the end, so its 2-iteration slices resumed
    from final_pair hashed like whole runs and each CRITICAL_SEARCH restart
    of its outcome table is CONVERGED exactly when critical_report calls
    its final pair critical, and closes with its four sha256
    lines; their values depend on the host's floating point, so they are
    not pinned here.  Each mode's tally line ends with the kernel passes
    and the trials they priced, each also per iteration."""
    proc = subprocess.run([sys.executable, str(DIGEST)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [re.fullmatch(r"(\w+) [0-9a-f]{64}", line) for line in lines[-4:]]
    assert [m and m[1] for m in names] == ["outcomes", "search", "reports", "tall"]
    work = r", iterations (\d+), kernel passes (\d+) \((\d+\.\d\d) per iteration\), " \
           r"trials (\d+) \((\d+\.\d\d) per iteration\)"
    for mode in ("critical", "descent"):
        tally = [re.fullmatch(rf"{mode}: .*{work}", line) for line in lines]
        (m,) = [m for m in tally if m]
        iterations, passes, trials = int(m[1]), int(m[2]), int(m[4])
        assert 0 < iterations <= passes <= trials
        assert abs(float(m[3]) - passes / iterations) <= 0.005


def test_digest_refuses_a_blas_thread_count_below_one():
    """``--blas-threads`` takes a count of at least 1: 0 exits 2 with a
    usage error before NumPy is loaded or any digest runs."""
    proc = subprocess.run([sys.executable, str(DIGEST), "--blas-threads", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "need at least 1 BLAS thread, got 0" in proc.stderr


def test_readme_python_example_runs_as_its_comments_say(capsys):
    """The ```python block of README.md's library overview runs, and the
    values its comments promise hold: FP of FX-MIX is 8.5, the minimal
    group is [2, 3, 4] with A = 1.5, and the search ends CONVERGED on a
    dual pair."""
    (block,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    ns = {}
    exec(block, ns)
    assert capsys.readouterr().out.count("\n") == 3
    assert abs(ns["mf"].fp_direct(ns["pair"]).value - 8.5) <= 1e-12
    assert [m + 1 for m in ns["dec"].group] == [2, 3, 4]
    assert abs(ns["dec"].a - 1.5) <= 1e-12
    assert ns["res"].status == optimizer.CONVERGED
    assert ns["res"].dual_deviation < 1e-6
