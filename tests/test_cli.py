"""Command dispatch, exit codes, and report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conformal import cli
from conformal.cli import main

ROOT = Path(__file__).resolve().parent.parent
VIRASORO_ALG = str(ROOT / "presentations" / "virasoro.alg")

EX00 = """
algebra {
    N = 2
    generators = a
}
relations {
    f: a (1) a - a (0) D a
}
"""

COMPLETED = """
algebra {
    N = 2
    generators = a
}
relations {
    f: a (1) a - a (0) D a
    g: a (0) a (0) a
}
"""

VIRASORO_FILE = """
algebra {
    N = 2
    family L
}
relations {
    s0[i, j | i != 0]: L_i (0) L_j - L_0 (0) L_{i+j}
    s1[i, j]: L_i (1) L_j + L_{i+j}
}
options {
    window = 1
    relation_multiplier = 3
}
"""

# every instance of f leads with L_i (0) L_i, reachable only through k > 20,
# which the lazy lookup (k in [-4, 4] here) never tries; g's compositions
# leave L_x (1) L_0 (1) L_0 remainders that no instance of f can reduce
NONTRIVIAL_FILE = """
algebra {
    N = 2
    family L
}
relations {
    f[i, k | k > 20]: L_i (0) L_i - L_{i+k}
    g: L_1 (1) L_1 - L_0 (0) L_0
}
options {
    window = 1
}
"""

# over N = 1 every remainder carries a word L_i (0) L_i that an out-of-reach
# instance of f might reduce
INCONCLUSIVE_FILE = """
algebra {
    N = 1
    family L
}
relations {
    f[i, k | k > 20]: L_i (0) L_i - L_{i+k}
    g: L_1 (0) L_1 (0) L_1 - L_0 (0) L_0
}
options {
    window = 1
}
"""


@pytest.fixture
def ex00(tmp_path):
    p = tmp_path / "ex00.alg"
    p.write_text(EX00)
    return str(p)


def test_normalize_command(ex00, capsys):
    assert main(["normalize", "-f", ex00, "(a (1) a) (0) a"]) == 0
    assert capsys.readouterr().out.strip() == "a (1) a (0) a - a (0) a (1) a"


def test_order_command(ex00, capsys):
    assert main(["order", "-f", ex00, "a (0) D a", "a (0) a"]) == 0
    assert capsys.readouterr().out.strip() == "greater"
    assert main(["order", "-f", ex00, "a (0) a", "a (0) a"]) == 0
    assert capsys.readouterr().out.strip() == "equal"


def test_reduce_command(ex00, capsys):
    assert main(["reduce", "-f", ex00, "a (1) a", "--trace"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "a (0) D a"
    assert "eliminated" in out


def test_check_exit_codes(ex00, tmp_path, capsys):
    assert main(["check", "-f", ex00]) == 1
    done = tmp_path / "done.alg"
    done.write_text(COMPLETED)
    assert main(["check", "-f", str(done)]) == 0


def test_complete_command(ex00, capsys):
    assert main(["complete", "-f", ex00]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["a (1) a - a (0) D a", "a (0) a (0) a"]
    # a limit produces the inconclusive exit code, not silence
    assert main(["complete", "-f", ex00, "--max-iters", "1"]) == 2


def test_minimalize_and_reduce_basis(tmp_path, capsys):
    five = tmp_path / "five.alg"
    five.write_text("""
algebra {
    N = 2
    generators = a
}
relations {
    f: a (1) a - a (0) D a
    g1: a (0) a (0) a
    g2: a (0) a (1) a
    g3: a (1) a (0) a
    g4: a (1) a (1) a
}
""")
    assert main(["minimalize", "-f", str(five)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["a (1) a - a (0) D a", "a (0) a (0) a"]
    assert main(["reduce-basis", "-f", str(five)]) == 0
    assert capsys.readouterr().out.strip().splitlines() == out


def test_irr_command(ex00, tmp_path, capsys):
    done = tmp_path / "done.alg"
    done.write_text(COMPLETED)
    assert main(["irr", "-f", str(done), "--max-length", "2",
                 "--max-dpow", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["a", "D a", "a (0) a", "a (0) D a"]


def test_kdbasis_command(tmp_path, capsys):
    done = tmp_path / "done.alg"
    done.write_text(COMPLETED)
    assert main(["kdbasis", "-f", str(done), "--max-length", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["a", "a (0) a"]


def test_schema_file_check(tmp_path, capsys):
    f = tmp_path / "vir.alg"
    f.write_text(VIRASORO_FILE)
    assert main(["check", "-f", str(f)]) == 0
    assert "basis: yes" in capsys.readouterr().out


def test_example_commands(capsys):
    assert main(["example", "virasoro", "check", "--window", "1"]) == 0
    capsys.readouterr()
    assert main(["example", "virasoro", "irr", "--window", "1",
                 "--max-length", "2", "--max-dpow", "1"]) == 0
    out = capsys.readouterr().out
    assert "matches closed form: yes" in out
    assert main(["example", "virasoro", "embed", "--window", "1"]) == 0
    assert main(["example", "nope", "check"]) == 3


def test_json_reports_deterministic(ex00, tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["check", "-f", ex00, "--json", str(r1)]) == 1
    assert main(["check", "-f", ex00, "--json", str(r2)]) == 1
    b1, b2 = r1.read_bytes(), r2.read_bytes()
    assert b1 == b2
    data = json.loads(b1)
    assert data["verdict"] == "fail"
    assert data["details"]["is_gsb"] is False
    assert data["timings"] is None
    assert set(data) == {"command", "inputs", "params", "verdict", "details",
                         "traces", "timings"}


def test_input_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra { N = }")
    assert main(["check", "-f", str(bad)]) == 3
    assert main(["check", "-f", str(tmp_path / "missing.alg")]) == 3
    assert main(["normalize", "-f", str(tmp_path / "missing.alg"), "a"]) == 3

def test_limit_env_vars_change_nothing(ex00, tmp_path, monkeypatch,
                                      capsys):
    # completion limits come from flags and the options block only, both
    # recorded in params and the digest
    plain, env = tmp_path / "plain.json", tmp_path / "env.json"
    assert main(["complete", "-f", ex00, "--json", str(plain)]) == 0
    monkeypatch.setenv("CONFORMAL_MAX_ITERS", "1")
    monkeypatch.setenv("CONFORMAL_MAX_BASIS", "junk")
    assert main(["complete", "-f", ex00, "--json", str(env)]) == 0
    assert env.read_bytes() == plain.read_bytes()


def test_mult_bound_flags(ex00, tmp_path, capsys):
    # the multiplication ranges come from the locality bound alone, so no
    # flag or option key widens them
    for flag in ("--mult-bound-left", "--mult-bound-right"):
        assert main(["check", "-f", ex00, flag, "3"]) == 3
    path = tmp_path / "wide.alg"
    path.write_text(EX00 + "options {\n    mult_bound_left = 3\n}\n")
    capsys.readouterr()
    assert main(["check", "-f", str(path)]) == 3
    line = EX00.count("\n") + 2
    assert capsys.readouterr().err == (
        f"error: line {line}, col 5: unknown option 'mult_bound_left'\n")


def test_example_kdbasis_and_equiv(capsys):
    assert main(["example", "heisenberg-virasoro", "kdbasis", "--window", "1",
                 "--max-length", "2"]) == 0
    out = capsys.readouterr().out
    assert "H_-1 (0) L_1" in out and "matches closed form: yes" in out
    assert main(["example", "virasoro", "equiv", "--window", "1",
                 "--relation-multiplier", "3"]) == 0
    assert "ideals equal over the window: yes" in capsys.readouterr().out


def test_trace_json_deterministic(ex00, tmp_path, capsys):
    r1, r2 = tmp_path / "t1.json", tmp_path / "t2.json"
    for r in (r1, r2):
        assert main(["reduce", "-f", ex00, "a (1) a (1) a", "--trace",
                     "--json", str(r)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    data = json.loads(r1.read_text())
    assert data["traces"] and data["traces"][0]["steps"]


def test_example_flags_between_positionals(capsys):
    assert main(["example", "virasoro", "--window", "2", "check"]) == 0
    assert "basis: yes" in capsys.readouterr().out


def _composition_counts(tmp_path, command, text, code):
    f = tmp_path / "incon.alg"
    f.write_text(text)
    out = tmp_path / "r.json"
    assert main([command, "-f", str(f), "--json", str(out)]) == code
    data = json.loads(out.read_text())
    return (data["verdict"], data["details"]["nontrivial"],
            data["details"]["inconclusive"])


@pytest.mark.parametrize("command", ["check", "compositions"])
def test_inconclusive_only_run(command, tmp_path, capsys):
    assert _composition_counts(tmp_path, command, INCONCLUSIVE_FILE, 2) == \
        ("inconclusive", 0, 2)


@pytest.mark.parametrize("command", ["check", "compositions"])
def test_remainder_no_instance_can_lead_is_nontrivial(command, tmp_path,
                                                      capsys):
    assert _composition_counts(tmp_path, command, NONTRIVIAL_FILE, 1) == \
        ("fail", 3, 1)


def test_example_records_result_changing_flags(tmp_path, capsys):
    def report(*flags):
        out = tmp_path / "r.json"
        assert main(["example", "virasoro", "irr", "--window", "1",
                     *flags, "--json", str(out)]) == 0
        return json.loads(out.read_text())

    default, short = report(), report("--max-length", "2")
    assert default["details"]["count"] == 27
    assert short["details"]["count"] == 18
    assert default["params"] == {"example": "virasoro", "window": 1,
                                 "relation_multiplier": 4}
    assert short["params"] == {**default["params"], "max_length": 2}
    assert default["inputs"]["digest"] != short["inputs"]["digest"]


def test_example_equiv_honours_limits(tmp_path, capsys):
    out = tmp_path / "r.json"
    # both directions reduce to zero after one round, which proves the
    # windowed equality although completion stopped at the limit
    assert main(["example", "virasoro", "equiv", "--window", "1",
                 "--max-iters", "1", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "ok"
    assert data["details"]["completion_rounds"] == 1
    assert data["params"]["max_iters"] == 1
    assert "ideals equal over the window: yes" in capsys.readouterr().out
    # a failed direction after a stopped completion proves nothing
    assert main(["example", "virasoro", "equiv", "--window", "1",
                 "--max-basis", "5", "--json", str(out)]) == 2
    data = json.loads(out.read_text())
    assert data["verdict"] == "inconclusive"
    assert data["details"]["forward_failures"]
    assert data["details"]["completion_completed"] is False
    assert data["params"]["max_basis"] == 5
    # the forward failures widen the source slice from W to the radius M*W
    assert data["details"]["source_radius"] == 4


def test_gsb_outcome_mapping():
    from conformal.cli import EXIT_CODES
    from conformal.gsb import GsbReport

    def rep(n_t, n_n, n_i):
        tally = {"trivial": n_t, "nontrivial": n_n, "inconclusive": n_i}
        return GsbReport([], {}, tally)

    assert rep(3, 0, 0).verdict == "ok" and rep(3, 0, 0).is_gsb
    assert rep(3, 0, 2).verdict == "inconclusive"
    assert rep(3, 1, 2).verdict == "fail"
    assert rep(0, 1, 0).verdict == "fail"
    assert not any(rep(*n).is_gsb for n in ((3, 0, 2), (3, 1, 2), (0, 1, 0)))
    assert EXIT_CODES == {"ok": 0, "fail": 1, "inconclusive": 2}


def test_embed_with_only_inconclusive_compositions(tmp_path, capsys):
    # every D^t b is irreducible and no word is on the boundary, but the
    # compositions are inconclusive, so the basis is not known
    f = tmp_path / "incon.alg"
    f.write_text(INCONCLUSIVE_FILE)
    args = SimpleNamespace(command="embed", file=str(f))
    rep = cli._cmd_embed(cli._load_context(args), args)
    assert rep.verdict == "inconclusive"
    assert rep.details == {"gsb": False, "embedded": True,
                           "inconclusive": False, "reducible": [],
                           "boundary": []}
    assert capsys.readouterr().out == "embedded: no\n"


EMBED_MIXED_FILE = """
algebra {
    N = 2
    family L
}
relations {
    f[i, k | k > 20]: D^2 L_i - L_{i+k}
    g: L_1 - L_0
}
options {
    window = 1
}
"""


def test_embed_fails_on_a_reducible_word_beside_boundary_words(
        tmp_path, capsys):
    # g reduces L_1 and its derivatives, a definite failure, while f's
    # out-of-window instances leave the other words on the boundary
    f = tmp_path / "mixed.alg"
    f.write_text(EMBED_MIXED_FILE)
    args = SimpleNamespace(command="embed", file=str(f))
    rep = cli._cmd_embed(cli._load_context(args), args)
    assert rep.verdict == "fail" and cli.EXIT_CODES[rep.verdict] == 1
    details = rep.details
    assert details["reducible"] == ["L_1", "D L_1", "D^2 L_1"]
    assert details["boundary"]
    assert details["inconclusive"] is False and details["embedded"] is False
    assert "gsb" in details
    assert capsys.readouterr().out == "embedded: no\n"


def test_timings_add_only_the_total(ex00, tmp_path, capsys):
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert main(["complete", "-f", ex00, "--json", str(plain)]) == 0
    assert main(["complete", "-f", ex00, "--timings", "--json",
                 str(timed)]) == 0
    plain_data, timed_data = (json.loads(plain.read_text()),
                              json.loads(timed.read_text()))
    timings = timed_data.pop("timings")
    assert set(timings) == {"total_s"}
    assert isinstance(timings["total_s"], float)
    assert timed_data == {k: v for k, v in plain_data.items()
                          if k != "timings"}
    assert plain_data["timings"] is None


TWIN_FILE = """
algebra {
    N = 2
    family L
}
relations {
    %s
}
options {
    window = 1
}
"""


def _check_twins(tmp_path, line, twin):
    """``check`` of a schema and of its hand-normalized twin: one exit
    code, and reports that differ only in the input digest."""
    out = []
    for name, text in (("schema", line), ("twin", twin)):
        path, report = tmp_path / f"{name}.alg", tmp_path / f"{name}.json"
        path.write_text(TWIN_FILE % text)
        code = main(["check", "-f", str(path), "--json", str(report)])
        data = json.loads(report.read_text())
        data.pop("inputs")
        out.append((code, data))
    assert out[0] == out[1]
    return out[0][0]


def test_non_chain_schema_term_checks_like_its_twin(tmp_path):
    assert _check_twins(tmp_path, "f[i]: D (L_i (0) L_0) - L_0 (1) L_i",
                        "f[i]: L_i (0) D L_0 - L_0 (1) L_i") == 1
    assert _check_twins(tmp_path, "f[i]: (L_i (0) L_0) (0) L_0 - L_i (1) L_0",
                        "f[i]: L_i (0) L_0 (0) L_0 - L_i (1) L_0") == 1
    # a concrete relation may take any form too
    good = tmp_path / "good.alg"
    good.write_text(TWIN_FILE % "f: D (L_1 (0) L_0) - L_0 (1) L_1")
    assert main(["check", "-f", str(good)]) in (0, 1)


def test_schema_junction_at_or_above_n_checks_like_its_twin(tmp_path):
    assert _check_twins(tmp_path, "f[i]: L_i (2) D L_0 - L_0 (0) L_i",
                        "f[i]: 2 * L_i (1) L_0 - L_0 (0) L_i") == 2


@pytest.mark.parametrize("argv", [
    ["check", "-f", VIRASORO_ALG, "--window", "0"],
    ["example", "virasoro", "check", "--window", "-1"],
    ["example", "virasoro", "check", "--window", "0"],
    # a file of concrete relations over listed generators has no window,
    # yet its window parameters are checked too
    ["check", "-f", str(ROOT / "presentations" / "square.alg"),
     "--window", "0"],
    ["check", "-f", str(ROOT / "presentations" / "square.alg"),
     "--relation-multiplier", "0"],
])
def test_window_below_one_is_an_input_error(argv, capsys):
    assert main(argv) == 3
    assert "window parameters must be positive" in capsys.readouterr().err


# one concrete relation over a family: no schema, so nothing is windowed
# but the generator slice, whose radius is the window
SCHEMA_FREE_FAMILY = """
algebra {
    N = 2
    family L
}
relations {
    f: L_0 (1) D L_0 - L_1 (0) L_0
}
"""


def test_window_sets_the_generator_slice_of_a_schema_free_family(
        tmp_path, capsys):
    path = tmp_path / "family.alg"
    path.write_text(SCHEMA_FREE_FAMILY)
    counts = {}
    for W in (1, 3):
        out = tmp_path / f"w{W}.json"
        assert main(["check", "-f", str(path), "--window", str(W),
                     "--json", str(out)]) == 1
        counts[W] = json.loads(out.read_text())["details"]["counts"]
    # one left and one right multiplication per generator L_-W .. L_W
    assert counts == {1: {"left_mult": 3, "right_mult": 3},
                      3: {"left_mult": 7, "right_mult": 7}}
    capsys.readouterr()
    assert main(["check", "-f", str(path), "--window", "0"]) == 3
    assert "window parameters must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["max_length", "max_dpow", "max_iters",
                                 "max_basis"])
def test_negative_bound_is_an_input_error(key, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    assert main(["complete", "-f", VIRASORO_ALG, flag, "-1"]) == 3
    assert main(["example", "virasoro", "embed", flag, "-1"]) == 3
    path = tmp_path / "negative.alg"
    path.write_text(EX00 + f"options {{\n    {key} = -2\n}}\n")
    assert main(["complete", "-f", str(path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(flag in line for line in err)
    assert err[-1].endswith("got -2")


def test_example_check_is_check_on_the_shipped_file(tmp_path, capsys):
    ex, fl = tmp_path / "ex.json", tmp_path / "file.json"
    assert main(["example", "virasoro", "check", "--window", "1",
                 "--json", str(ex)]) == 0
    assert main(["check", "-f", VIRASORO_ALG, "--window", "1",
                 "--relation-multiplier", "4", "--json", str(fl)]) == 0
    ex_data, file_data = json.loads(ex.read_text()), json.loads(fl.read_text())
    assert ex_data["command"] == "example check"
    assert ex_data["details"] == file_data["details"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[1]


def test_example_runs_outside_the_checkout(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "conformal.cli", "example", "virasoro",
         "check", "--window", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("basis: yes")
