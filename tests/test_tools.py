import re
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def test_digest_prints_four_digests():
    """tools/digest.py runs to the end, so its 2-iteration slices resumed
    from final_pair hashed like whole runs, and closes with its four sha256
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
