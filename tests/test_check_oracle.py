"""The composition check's fast paths against the slow paths they replace.

``gsb.enumerate_compositions`` visits only the pairs that its lead and
prefix maps say can compose; ``test_complete_oracle.enumerate_all`` calls
``pair_compositions`` on every ordered pair.  ``check_gsb_rset`` keeps a
trivial verdict only when asked to keep verdicts or traces; its counts,
verdict and non-trivial verdicts must not depend on that.  Both are run on
every shipped presentation, on the built-ins at W=1 and W=2 and on random
input.  A ``SchemaIndex`` given the eager radius solves only beyond it; a
check must end as with an index that solves the whole box again.
"""

import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conformal import (GeneratorSymbol, IndexWindow, NormalWord, RelationSet,
                       builtin_example, gsb, parse_presentation)
from conformal import cli
from conformal.envelope import SchemaIndex, comp_window_filter
from conftest import SIG_A2, a2_presentations
from test_complete_oracle import enumerate_all

PRESENTATIONS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "presentations")
FILES = ["square.alg", "virasoro.alg", "heisenberg_virasoro.alg"]
BUILTINS = [(name, W) for name in ("virasoro", "heisenberg-virasoro")
            for W in (1, 2)]


def file_inputs(name):
    """A fresh ``(rset, gens, comp_filter)`` of
    ``conformal check -f presentations/NAME``."""
    ctx = cli._load_context(SimpleNamespace(
        command="check", file=os.path.join(PRESENTATIONS, name)))
    return ctx.rset, ctx.gens, ctx.sources


def builtin_inputs(name, W):
    """A fresh ``(rset, gens, comp_filter)`` of
    ``conformal example NAME check --window W``."""
    ex = builtin_example(name, IndexWindow(W))
    return ex.basis_rset(), ex.gens(), comp_window_filter(W)


def fields(c):
    return (c.ctype, id(c.f), id(c.g), c.w, c.gen, c.n, c.poly)


def assert_same_enumeration(rset, gens, comp_filter):
    source = gsb.composition_sources(rset, comp_filter)
    fast = gsb.enumerate_compositions(source, gens)
    slow = enumerate_all(source, gens)
    assert [fields(c) for c in fast] == [fields(c) for c in slow]
    return fast


@pytest.mark.parametrize("name", FILES)
def test_enumeration_matches_every_pair_on_shipped_file(name):
    assert assert_same_enumeration(*file_inputs(name))


@pytest.mark.parametrize("name,W", BUILTINS)
def test_enumeration_matches_every_pair_on_builtin(name, W):
    assert assert_same_enumeration(*builtin_inputs(name, W))


@settings(max_examples=200, deadline=None)
@given(a2_presentations)
def test_enumeration_matches_every_pair_on_random_input(ps):
    rset = RelationSet(SIG_A2, gsb._monic_prepare(ps))
    assert_same_enumeration(rset, SIG_A2.generators, None)


def verdict_fields(v):
    return (v.comp.describe(), v.verdict, repr(v.remainder))


def assert_keeps_what_it_prints(inputs):
    """The default check and a keep-all check of the same inputs agree on
    everything the default reports."""
    rset, gens, comp_filter = inputs()
    lean = gsb.check_gsb_rset(rset, gens, comp_filter=comp_filter)
    rset, gens, comp_filter = inputs()
    full = gsb.check_gsb_rset(rset, gens, comp_filter=comp_filter,
                              keep="traces")
    assert (lean.counts, lean.tally, lean.materialized) == \
        (full.counts, full.tally, full.materialized)
    assert len(full.verdicts) == sum(full.counts.values()) == \
        sum(full.tally.values())
    assert [verdict_fields(v) for v in lean.verdicts] == \
        [verdict_fields(v) for v in full.verdicts if v.verdict != "trivial"]
    assert lean.to_json() == full.to_json()
    return full


@pytest.mark.parametrize("name", FILES)
def test_check_keeps_what_it_prints_on_shipped_file(name):
    full = assert_keeps_what_it_prints(lambda: file_inputs(name))
    assert full.verdicts


@pytest.mark.parametrize("name", FILES)
def test_verdicts_are_kept_without_traces_on_shipped_file(name):
    # what compositions keeps without --trace: every verdict, no trace
    rset, gens, comp_filter = file_inputs(name)
    lean = gsb.check_gsb_rset(rset, gens, comp_filter=comp_filter,
                              keep="verdicts")
    rset, gens, comp_filter = file_inputs(name)
    full = gsb.check_gsb_rset(rset, gens, comp_filter=comp_filter,
                              keep="traces")
    assert len(lean.verdicts) == sum(lean.tally.values()) > 0
    assert all(v.trace is None for v in lean.verdicts)
    assert all(v.trace is not None for v in full.verdicts)
    assert [verdict_fields(v) for v in lean.verdicts] == \
        [verdict_fields(v) for v in full.verdicts]
    assert lean.to_json() == full.to_json()
    rset, gens, comp_filter = file_inputs(name)
    failures = gsb.check_gsb_rset(rset, gens, comp_filter=comp_filter)
    assert all(v.trace is None for v in failures.verdicts)
    with pytest.raises(KeyError):
        gsb.check_gsb_rset(rset, gens, keep="all")


@pytest.mark.parametrize("name,W", BUILTINS)
def test_check_keeps_what_it_prints_on_builtin(name, W):
    full = assert_keeps_what_it_prints(lambda: builtin_inputs(name, W))
    assert full.is_gsb and full.tally["trivial"] == len(full.verdicts) > 0


@settings(max_examples=100, deadline=None)
@given(a2_presentations)
def test_check_keeps_what_it_prints_on_random_input(ps):
    assert_keeps_what_it_prints(lambda: (
        RelationSet(SIG_A2, gsb._monic_prepare(ps)), SIG_A2.generators,
        None))


def test_relation_index_keys_are_flat_slices_not_words():
    """A word equals the plain tuple of its fields, so no word may key the
    lead index or the lazy lookup's set of tried slices: their keys are
    flat slices, which start with a generator."""
    rset, gens, comp_filter = file_inputs("heisenberg_virasoro.alg")
    gsb.check_gsb_rset(rset, gens, comp_filter=comp_filter)
    keys = list(rset._lead_index) + list(rset._lazy_tried)
    assert rset._lazy_tried and rset._lead_index
    assert not any(isinstance(k, NormalWord) for k in keys)
    assert all(isinstance(k[0], GeneratorSymbol) for k in keys)


def file_pair(name, W, M):
    """``file_inputs`` at window W and multiplier M, and an equal set
    without an eager radius, whose lookup solves the whole box."""
    path = os.path.join(PRESENTATIONS, name)
    ctx = cli._load_context(SimpleNamespace(
        command="check", file=path, window=W, relation_multiplier=M))
    with open(path, encoding="utf-8") as fh:
        schemas = parse_presentation(fh.read()).schemas
    assert ctx.rset.eager_radius == W * M
    slow = RelationSet(ctx.sig, ctx.rset.polys(),
                       lazy=SchemaIndex(schemas, ctx.sig))
    return ctx.rset, slow, ctx.gens, ctx.sources


def builtin_pair(name, W, M):
    """``builtin_inputs`` at window W and multiplier M, and an equal set
    without an eager radius, whose lookup solves the whole box."""
    ex = builtin_example(name, IndexWindow(W, M))
    fast = ex.basis_rset()
    assert fast.eager_radius == W * M
    slow = RelationSet(ex.sig, ex.basis, lazy=SchemaIndex(ex.schemas, ex.sig))
    return fast, slow, ex.gens(), comp_window_filter(W)


LAZY_PAIRS = [(file_pair, name, W, M) for name in FILES[1:]
              for W in (1, 2) for M in (1, 4)] + \
    [(builtin_pair, name, 1, M) for name, _ in BUILTINS[::2] for M in (1, 2)]


def canon_keys(polys):
    return {p.canonical_key() for p in polys}


@pytest.mark.parametrize("pair,name,W,M", LAZY_PAIRS,
                         ids=[f"{n}-W{W}-M{M}" for _, n, W, M in LAZY_PAIRS])
def test_lazy_lookup_beyond_the_window_ends_as_the_whole_box(pair, name, W, M):
    fast, slow, gens, comp_filter = pair(name, W, M)
    assert fast.polys() == slow.polys()
    assert canon_keys(fast.lazy.instances_within(W * M)) <= \
        canon_keys(fast.polys())
    a = gsb.check_gsb_rset(fast, gens, comp_filter=comp_filter)
    b = gsb.check_gsb_rset(slow, gens, comp_filter=comp_filter)
    assert (a.tally, a.counts, a.materialized) == \
        (b.tally, b.counts, b.materialized)
    assert fast._lazy_tried == slow._lazy_tried
    assert fast.polys() == slow.polys()


def test_a_set_sharing_a_windowed_index_solves_the_whole_box():
    # the eager radius belongs to the set that added the window, not to
    # the index it shares: a set holding only part of the window must
    # materialize the eager instances it lacks, as a fresh index does
    path = os.path.join(PRESENTATIONS, "heisenberg_virasoro.alg")
    ctx = cli._load_context(SimpleNamespace(command="check", file=path,
                                            window=1))
    with open(path, encoding="utf-8") as fh:
        schemas = parse_presentation(fh.read()).schemas
    polys = ctx.rset.polys()[:130]
    shared = RelationSet(ctx.sig, polys, lazy=ctx.rset.lazy)
    ref = RelationSet(ctx.sig, polys, lazy=SchemaIndex(schemas, ctx.sig))
    assert shared.eager_radius is None
    a = gsb.check_gsb_rset(shared, ctx.gens, comp_filter=ctx.sources)
    b = gsb.check_gsb_rset(ref, ctx.gens, comp_filter=ctx.sources)
    assert (a.tally, a.counts, a.materialized) == \
        (b.tally, b.counts, b.materialized)
    assert shared.polys() == ref.polys()
    window = canon_keys(ctx.rset.lazy.instances_within(ctx.rset.eager_radius))
    assert canon_keys(shared.polys()[130:]) & window
