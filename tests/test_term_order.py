"""Reports must not depend on the order in which the kernels insert terms.

No consumer reads the term order of ``_gen_mult`` or ``_word_mult``:
printing sorts, ``leading`` and ``reduce_poly`` take a ``max`` over unique
word keys, and the arithmetic is exact.  Each command runs once as is and
once with ``_gen_mult`` returning its dicts reversed and ``_word_mult``
adding its product into the caller's dict in reverse order, and its exit
code, stdout and ``--json`` report must match byte for byte.  ``main``
runs the same comparison on one command line, for larger runs than these.
"""

import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conformal import algebra, cli

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("_gen_mult", "_word_mult")
COMMANDS = [[cmd, "-f", str(path), "--window", "1"]
            for path in sorted((ROOT / "presentations").glob("*.alg"))
            for cmd in ("check", "compositions", "complete")]
COMMANDS.append(["example", "heisenberg-virasoro", "equiv", "--window", "1"])


def run(args, json_path: Path):
    """Exit code, stdout and report of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([*args, "--json", str(json_path)])
    return code, out.getvalue(), json_path.read_bytes()


def reverse_kernels(set_attr=setattr) -> dict:
    """Reverse both kernels' term order in every conformal module that
    holds them: ``_gen_mult`` returns its dict reversed, and ``_word_mult``
    adds its product into the caller's dict last term first.  The returned
    dict counts the wrapped calls."""
    calls = dict.fromkeys(KERNELS, 0)

    def reversed_gen_mult(kernel):
        def wrapped(*args):
            calls["_gen_mult"] += 1
            return dict(reversed(kernel(*args).items()))
        return wrapped

    def reversed_word_mult(kernel):
        def wrapped(sig, u, n, v, dst, c):
            calls["_word_mult"] += 1
            own: dict = {}
            kernel(sig, u, n, v, own, c)
            algebra._accum(dst, dict(reversed(own.items())), 1)
        return wrapped

    wrappers = {"_gen_mult": reversed_gen_mult,
                "_word_mult": reversed_word_mult}
    for name in KERNELS:
        kernel = getattr(algebra, name)
        wrapped = wrappers[name](kernel)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("conformal")
                    and getattr(mod, name, None) is kernel):
                set_attr(mod, name, wrapped)
    return calls


@pytest.mark.parametrize("args", COMMANDS,
                         ids=[" ".join(a).replace(str(ROOT) + "/", "")
                              for a in COMMANDS])
def test_reports_independent_of_kernel_term_order(args, tmp_path,
                                                  monkeypatch):
    plain = run(args, tmp_path / "plain.json")
    calls = reverse_kernels(monkeypatch.setattr)
    assert run(args, tmp_path / "reversed.json") == plain
    assert all(calls.values())


def main(args) -> int:
    """Run one command both ways; 0 when the outputs match, else 1."""
    with tempfile.TemporaryDirectory() as tmp:
        plain = run(args, Path(tmp) / "plain.json")
        calls = reverse_kernels()
        same = run(args, Path(tmp) / "reversed.json") == plain
        return 0 if same and all(calls.values()) else 1
