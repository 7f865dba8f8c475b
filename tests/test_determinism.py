"""``--json`` reports must not depend on the interpreter's hash seed.

Generators hash by identity, so any output that followed set or dict order
of hashed objects would change from run to run.  Each command runs in fresh
processes under two ``PYTHONHASHSEED`` values and the reports are compared
byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {
    "virasoro-equiv": ["example", "virasoro", "equiv", "--window", "2"],
    "virasoro-check": ["check", "-f",
                       str(ROOT / "presentations" / "virasoro.alg")],
}


def _report(args, hash_seed, out: Path) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys; from conformal.cli import main; sys.exit(main())"
    subprocess.run([sys.executable, "-c", code, *args, "--json", str(out)],
                   env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_report_independent_of_hash_seed(name, tmp_path):
    args = COMMANDS[name]
    first = _report(args, 0, tmp_path / "seed0.json")
    second = _report(args, 12345, tmp_path / "seed12345.json")
    assert first
    assert first == second
