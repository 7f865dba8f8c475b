"""The eager schema box held slice by slice against the box held up front.

A ``RelationSet`` given an ``eager_radius`` stands for the whole box, but
holds a slice's box instances only from just before the slice is first
looked up, or probed for composition sources.  ``props.eager_rset`` builds
the set as it was built before: the whole box instantiated and added when
the set is made.  Every CLI command that reads a relation set must print,
report and exit alike on either set, with the same ``materialized`` count
and the same tried slices, and at every slice the lazy set looked up its
lead bucket must hold the relations that the eager set's holds.  That is
checked on the shipped family files, on the built-ins and on random schema
files.

The lookups reject a solution whose instance cannot lead at the probed
slice from its index keys alone (``SchemaIndex._leads_at``); that test must
agree with instantiating the solution and reading its leading word.
"""

import contextlib
import io
import os
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conformal import (AlgebraSignature, GeneratorSymbol, cli, envelope,
                       parse_presentation)
from conformal.envelope import SchemaIndex
from conformal.dsl import parse_schema
import props
from conftest import within_budget

PRESENTATIONS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "presentations")
FAMILY_FILES = ["virasoro.alg", "heisenberg_virasoro.alg"]
REDUCE = {"virasoro.alg": "L_5 (0) L_-3 (1) L_2 + L_-6 (0) L_4",
          "heisenberg_virasoro.alg":
              "H_5 (0) L_-3 (0) L_7 + L_6 (1) H_-4 - H_3 (1) L_3"}
FILE_CASES = [(name, W, M) for name in FAMILY_FILES for W in (1, 2, 3)
              for M in (None, 1)]
BUILTIN_CASES = [(name, W) for name in ("virasoro", "heisenberg-virasoro")
                 for W in (1, 2, 3)]


def run(monkeypatch, tmp_path, argv, build):
    """``conformal ARGV --json`` in process, every relation set the CLI
    makes built by ``build``: (exit code, stdout, stderr, report bytes,
    the sets in the order they were made)."""
    sets = []

    def recording(*args, **kwargs):
        sets.append(build(*args, **kwargs))
        return sets[-1]
    out, err = io.StringIO(), io.StringIO()
    report = tmp_path / "report.json"
    with monkeypatch.context() as m:
        m.setattr(cli, "RelationSet", recording)
        m.setattr(envelope, "RelationSet", recording)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--json", str(report)])
    data = report.read_bytes() if report.exists() else None
    if report.exists():
        report.unlink()
    return code, out.getvalue(), err.getvalue(), data, sets


def assert_runs_alike(monkeypatch, tmp_path, argv):
    """The CLI on lazy and on eager sets: the same output, and the same
    relations wherever the lazy sets looked."""
    lazy = run(monkeypatch, tmp_path, argv, envelope.RelationSet)
    eager = run(monkeypatch, tmp_path, argv, props.eager_rset)
    assert lazy[:4] == eager[:4], argv
    assert len(lazy[4]) == len(eager[4])
    for a, b in zip(lazy[4], eager[4]):
        assert a.materialized == b.materialized, argv
        assert a._lazy_tried == b._lazy_tried, argv
        for sub in a._lazy_tried:
            assert [r.canon for r in a._lead_index.get(sub, ())] == \
                [r.canon for r in b._lead_index.get(sub, ())], (argv, sub)
    return lazy


def file_commands(path, reduce_text, flags):
    return [[cmd, "-f", path] + flags
            for cmd in ("check", "compositions", "irr", "kdbasis",
                        "complete", "minimalize", "reduce-basis")] + \
        [["reduce", "-f", path, reduce_text] + flags]


@pytest.mark.parametrize(
    "name,W,M", FILE_CASES,
    ids=[f"{n}-W{W}-M{M or 'file'}" for n, W, M in FILE_CASES])
def test_lazy_box_runs_as_the_eager_box_on_shipped_file(
        monkeypatch, tmp_path, name, W, M):
    flags = ["--window", str(W)] + \
        (["--relation-multiplier", str(M)] if M else [])
    for argv in file_commands(os.path.join(PRESENTATIONS, name),
                              REDUCE[name], flags):
        assert_runs_alike(monkeypatch, tmp_path, argv)


@pytest.mark.parametrize("name,W", BUILTIN_CASES,
                         ids=[f"{n}-W{W}" for n, W in BUILTIN_CASES])
def test_lazy_box_runs_as_the_eager_box_on_builtin(
        monkeypatch, tmp_path, name, W):
    for action in ("check", "irr", "kdbasis", "embed"):
        code = assert_runs_alike(monkeypatch, tmp_path,
                                 ["example", name, action, "--window",
                                  str(W)])[0]
        assert code == 0


def test_a_check_holds_only_the_box_it_looks_at(monkeypatch, tmp_path):
    # the point of the lazy box: a check holds a part of it, and still
    # reports what the whole box gives
    argv = ["check", "-f", os.path.join(PRESENTATIONS,
                                        "heisenberg_virasoro.alg")]
    (rset,) = assert_runs_alike(monkeypatch, tmp_path, argv)[4]
    box = rset.lazy.instances_within(rset.eager_radius)
    assert 0 < len(rset) - rset.materialized < len(box) // 2
    assert {p.canonical_key() for p in box} <= \
        {p.canonical_key() for p in rset.polys()}


_LEAVES = ["H_i", "L_i", "L_j", "L_{i+j}", "H_0", "L_{j-i}", "L_1"]


@st.composite
def _schema_line(draw, name):
    """``name[i, j | ...]: ...``, a short sum of short products whose
    terms may repeat, so that words collide and cancel."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [draw(st.sampled_from(_LEAVES))
                   for _ in range(draw(st.integers(1, 2)))]
        d = draw(st.integers(0, 1))
        factors[-1] = f"D {factors[-1]}" if d else factors[-1]
        text = factors[0]
        for fac in factors[1:]:
            text += f" ({draw(st.integers(0, 2))}) {fac}"
        terms.append(text)
    if draw(st.booleans()):
        terms.append(terms[0])
    body = " ".join(f"+ {draw(st.sampled_from(['1', '2', '1/2']))} * {t}"
                    if draw(st.booleans()) else f"- {t}" for t in terms)
    cond = draw(st.sampled_from(["", " | i != 0", " | i > j",
                                 " | i > 0 > j or i < j"]))
    return f"{name}[i, j{cond}]: {body}"


@st.composite
def _schema_file(draw):
    lines = [draw(_schema_line(name))
             for name in ("f", "g")[:draw(st.integers(1, 2))]]
    if draw(st.booleans()):
        lines.append("h: L_3 (1) L_2 - L_5")
    return ("algebra {\n    N = 2\n    family H, L\n    ranking = L > H\n}\n"
            "relations {\n" + "".join(f"    {ln}\n" for ln in lines) + "}\n")


@settings(max_examples=12, deadline=None)
@given(_schema_file(), st.integers(1, 2))
def test_lazy_box_runs_as_the_eager_box_on_random_schema_file(text, M):
    with pytest.MonkeyPatch.context() as monkeypatch, \
            tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        path = tmp_path / "family.alg"
        path.write_text(text)
        flags = ["--window", "1", "--relation-multiplier", str(M),
                 "--max-length", "2", "--max-dpow", "1",
                 "--max-iters", "2", "--max-basis", "30"]
        within_budget(lambda: [
            assert_runs_alike(monkeypatch, tmp_path, argv)
            for argv in file_commands(str(path), "L_3 (0) H_-2 (1) L_2",
                                      flags)], seconds=20)


# the lead test on index keys -------------------------------------------------


def assert_lead_test_is_exact(index, bound=6):
    """On every lead-capable template and every target tuple in
    [-bound, bound], ``_leads_at`` accepts a solution exactly when its
    instance is nonzero and leads at the probed slice; returns the
    number of solutions tested."""
    sig, tested = index.sig, 0
    for (names, juncs), templates in index.by_shape.items():
        for targets in product(range(-bound, bound + 1), repeat=len(names)):
            letters = [GeneratorSymbol(g, t) for g, t in zip(names, targets)]
            sub = tuple(x for g, n in zip(letters, juncs + (None,))
                        for x in (g, n))[:-1]
            key = tuple(sig.gen_key(x) if k % 2 == 0 else x
                        for k, x in enumerate(sub))
            for sc, forms, _ in templates:
                leads = index._leads_at(sc, key)
                for env in sc.solutions(list(zip(forms, targets)), bound):
                    p = sc.instantiate(env, sig)
                    assert leads(env) == bool(p and p.leading()[:-1] == sub), \
                        (sc.name, env, sub)
                    tested += 1
    return tested


@pytest.mark.parametrize("name", FAMILY_FILES)
def test_lead_test_on_index_keys_is_exact_on_shipped_file(name):
    with open(os.path.join(PRESENTATIONS, name), encoding="utf-8") as fh:
        pf = parse_presentation(fh.read())
    assert assert_lead_test_is_exact(SchemaIndex(pf.schemas, pf.sig)) > 0


def test_lead_test_sums_colliding_words_first():
    # at i = j the two greatest terms are one word, and their coefficients
    # cancel: the instance then leads with L_{2i} (0) L_0, never L_i (0) L_i
    sig = AlgebraSignature.indexed(["L"], 2)
    f = parse_schema("f[i, j]: L_i (0) L_j - L_j (0) L_i + L_{i+j} (0) L_0")
    index = SchemaIndex([f], sig)
    assert assert_lead_test_is_exact(index) > 0
    cancelled = f.instantiate({"i": 3, "j": 3}, sig)
    assert str(cancelled.leading()) == "L_6 (0) L_0"
    sub = (GeneratorSymbol("L", 3), 0, GeneratorSymbol("L", 3))
    key = tuple(sig.gen_key(x) if k % 2 == 0 else x
                for k, x in enumerate(sub))
    for sc, forms, _ in index.by_shape[(("L", "L"), (0,))]:
        assert not index._leads_at(sc, key)({"i": 3, "j": 3})


@settings(max_examples=30, deadline=None)
@given(_schema_line("f"), st.integers(1, 3))
def test_lead_test_on_index_keys_is_exact_on_random_schema(line, N):
    index = SchemaIndex([parse_schema(line)],
                        AlgebraSignature.indexed(["H", "L"], N))
    assert_lead_test_is_exact(index, bound=3)
