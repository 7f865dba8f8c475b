"""``--json`` reports must not depend on the interpreter's hash seed.

Generators hash by identity, so any output that followed set or dict order
of hashed objects would change from run to run.  Each command runs in fresh
processes under two ``PYTHONHASHSEED`` values and the reports are compared
byte for byte.  Reports whose details carry coefficient text and reduction
traces are also pinned to a recorded sha256, so that a refactor of the
search, division or coefficient code cannot change them unnoticed.
"""

import hashlib
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


# two relations with non-integral coefficients; completion adds 23 more
FRACTIONAL = """\
algebra {
    N = 2
    generators = a, b
}
relations {
    f: b (1) a - 2/3 * a (0) D b
    g: b (0) b - 1/2 * a (1) a
}
"""
# one schema whose 30 compositions at the default window are all
# inconclusive: check answers neither yes nor no
INCONCLUSIVE = """\
algebra {
    N = 2
    family L
}
relations {
    f[i]: L_i (1) L_i - L_0 (0) L_i
}
"""
SQUARE = str(ROOT / "presentations" / "square.alg")
HV = str(ROOT / "presentations" / "heisenberg_virasoro.alg")
PINNED = {
    "square-compositions-trace": (
        ["compositions", "--trace", "-f", SQUARE],
        "e69ec8f1f6815ed7db015f232d51bdf5b9830777f8f6af53c93fc4942a34bdea"),
    # check --trace lists the trivial composition with its trace too
    "square-check-trace": (
        ["check", "--trace", "-f", SQUARE],
        "642ab29651ebc2b189e0d016993df1380a476dc4feba414a969d18e93b3efcb4"),
    # the check reports without traces: fail (exit 1), lazy keep-all
    # (exit 0) and all inconclusive (exit 2)
    "square-check": (
        ["check", "-f", SQUARE],
        "ec0a20b6870931d5de7e606cafab696085adfa0a640afa8b4ae0abadc7899bbe"),
    "hv-compositions": (
        ["compositions", "-f", HV, "--window", "1"],
        "e25a1832bd56784fcfb8f188dd9010b097c9145d4d3a6e2c30c86f5928b7ab00"),
    "inconclusive-check": (
        ["check", "-f", "{inconclusive}"],
        "ad9231028d23a958797d5f796be95a70272810565de2903de68bcea17a29e172"),
    "square-complete": (
        ["complete", "-f", SQUARE],
        "b29121507693bbb5e41e59651c301f79dcb1fff9ff95d077fd59015db2b6e7b7"),
    "hv-reduce-trace": (
        ["reduce", "--trace", "-f", HV, "--window", "1",
         "H_-3 (0) L_5 + L_2 (1) L_-7"],
        "a39163116eb8503fb967baa4cac5e8d6b3bca03a31a795c4b3b078da12c36427"),
    "fractional-complete": (
        ["complete", "-f", "{fractional}"],
        "4a002cfc3a527d9e8d6cd99631de204a3a8d029a88574644c4d8d4584b7313f4"),
    "fractional-reduce-trace": (
        ["reduce", "--trace", "-f", "{fractional}",
         "b (1) a (1) b + 5/7 * b (0) b (0) a - 1/3 * b (1) D a"],
        "be0cbfa9a11f6c085c30f5fffd33a4125c82a558e9fdae2354a265eb9db9357d"),
    # the irreducibility tests of irr, embed, kdbasis and reduce-basis
    "hv-irr": (
        ["example", "heisenberg-virasoro", "irr", "--window", "1"],
        "07c19073243b50dfccaccb56d79f709143cef7c4c9eaf6b60387bf5390650652"),
    "hv-embed": (
        ["example", "heisenberg-virasoro", "embed", "--window", "1"],
        "99f32be017dfccdb80177497604d8fccce359f15ef6931901b5eda17795b11ca"),
    "virasoro-kdbasis": (
        ["example", "virasoro", "kdbasis", "--window", "2"],
        "7b5ad88cb4498b30f248b57a80aacc3e6329a9721c7e7a4b73bceedda674d98d"),
    "fractional-reduce-basis": (
        ["reduce-basis", "-f", "{fractional}"],
        "529e010542d773950e80567aced10dc7f55c28b2a12a834706621fbe056c4771"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_coefficient_report_is_pinned(name, tmp_path):
    fractional = tmp_path / "fractional.alg"
    fractional.write_text(FRACTIONAL)
    inconclusive = tmp_path / "inconclusive.alg"
    inconclusive.write_text(INCONCLUSIVE)
    args, digest = PINNED[name]
    args = [a.format(fractional=fractional, inconclusive=inconclusive)
            for a in args]
    for seed in (0, 12345):
        report = _report(args, seed, tmp_path / f"seed{seed}.json")
        assert hashlib.sha256(report).hexdigest() == digest
