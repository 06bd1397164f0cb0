import re
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def test_digest_prints_three_digests():
    """tools/digest.py runs to the end and closes with its three sha256
    lines; their values depend on the host's floating point, so they are
    not pinned here."""
    proc = subprocess.run([sys.executable, str(DIGEST)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = [re.fullmatch(r"(\w+) [0-9a-f]{64}", line)
             for line in proc.stdout.splitlines()[-3:]]
    assert [m and m[1] for m in names] == ["outcomes", "search", "reports"]
