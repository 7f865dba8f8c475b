"""``reduce_poly``'s reducts, the memo ``check`` divides with, against the
step-by-step division.

``check_gsb_rset`` divides every composition with one dict of reducts
unless it keeps traces.  By linearity their remainder is the division's.
On a set with a schema index they must also leave the same instances
materialized, and they search only words the division searches.  Each
case builds two equal sets and divides the same compositions in the same
order on both, one step by step and one with reducts.  It compares every
remainder and the materialized count after each division, and at the end
the instances added, the slices that added them and the number of
pattern searches.
"""

import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conformal import (IndexWindow, RelationSet, builtin_example, cli, gsb,
                       parse_poly, reduce_poly, rewriting)
from conformal.envelope import comp_window_filter
from conformal.rewriting import RelationError
from conftest import SIG_A2, a2_polys, a2_presentations

PRESENTATIONS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "presentations")
FILES = ["square.alg", "virasoro.alg", "heisenberg_virasoro.alg"]
FILE_CASES = [(name, W, M) for name in FILES for W in (1, 2, 3)
              for M in (1, 4)]
BUILTIN_CASES = [(name, W) for name in ("virasoro", "heisenberg-virasoro")
                 for W in (1, 2, 3)]


def file_inputs(name, W, M):
    """A fresh ``(rset, gens, comp_filter)`` of
    ``conformal check -f presentations/NAME --window W
    --relation-multiplier M``."""
    ctx = cli._load_context(SimpleNamespace(
        command="check", file=os.path.join(PRESENTATIONS, name), window=W,
        relation_multiplier=M))
    return ctx.rset, ctx.gens, ctx.sources


def builtin_inputs(name, W):
    """A fresh ``(rset, gens, comp_filter)`` of
    ``conformal example NAME check --window W``."""
    ex = builtin_example(name, IndexWindow(W))
    return ex.basis_rset(), ex.gens(), comp_window_filter(W)


def compositions(rset, gens, comp_filter):
    return gsb.enumerate_compositions(
        gsb.composition_sources(rset, comp_filter), gens)


def counted_searches(rset):
    """Count ``rset``'s ``find_one`` calls in the returned one-item list."""
    count = [0]
    find_one = rset.find_one

    def counted(*args):
        count[0] += 1
        return find_one(*args)
    rset.find_one = counted
    return count


def assert_memo_divides_alike(inputs):
    """Divide the compositions of two equal sets from ``inputs()``, one
    step by step and one with reducts; returns their number."""
    plain, gens, comp_filter = inputs()
    memoed, _, _ = inputs()
    start = plain.added
    assert memoed.added == start
    comps = compositions(plain, gens, comp_filter)
    twins = compositions(memoed, gens, comp_filter)
    assert [c.describe() for c in comps] == [c.describe() for c in twins]
    probed = plain.added
    assert memoed.added == probed
    plain_searches, memo_searches = counted_searches(plain), \
        counted_searches(memoed)
    reducts = {}
    for c, twin in zip(comps, twins):
        by_steps = reduce_poly(c.poly, plain)
        by_memo = reduce_poly(twin.poly, memoed, reducts=reducts)
        assert by_memo.remainder.canonical_key() == \
            by_steps.remainder.canonical_key()
        assert memoed.materialized == plain.materialized
    added = [(r.canon, r.lead_flat) for r in plain.log_since(start)]
    assert [(r.canon, r.lead_flat)
            for r in memoed.log_since(start)] == added
    # the slices that added instances are the slices they lead: a window
    # slice probed for sources, or a slice the divisions tried
    window = set() if plain.lazy is None else \
        set(plain.lazy.slices_within(comp_filter.radius))
    assert {flat for _, flat in added[:probed - start]} <= window
    assert {flat for _, flat in added[probed - start:]} <= plain._lazy_tried
    assert {flat for _, flat in added[probed - start:]} <= memoed._lazy_tried
    assert memo_searches[0] <= plain_searches[0]
    return len(comps)


@pytest.mark.parametrize("name,W,M", FILE_CASES,
                         ids=[f"{n}-W{W}-M{M}" for n, W, M in FILE_CASES])
def test_memo_divides_as_the_division_on_shipped_file(name, W, M):
    assert assert_memo_divides_alike(lambda: file_inputs(name, W, M))


@pytest.mark.parametrize("name,W", BUILTIN_CASES,
                         ids=[f"{n}-W{W}" for n, W in BUILTIN_CASES])
def test_memo_divides_as_the_division_on_builtin(name, W):
    assert assert_memo_divides_alike(lambda: builtin_inputs(name, W))


def test_reducts_stay_exact_while_the_set_materializes():
    # at M=1 the eager window is small, so divisions add instances to a set
    # whose reducts already hold entries; those entries must stay exact
    plain, gens, comp_filter = file_inputs("virasoro.alg", 1, 1)
    memoed, _, _ = file_inputs("virasoro.alg", 1, 1)
    reducts, grown_after_entries = {}, 0
    for c, twin in zip(compositions(plain, gens, comp_filter),
                       compositions(memoed, gens, comp_filter)):
        before = (len(reducts), memoed.materialized)
        by_memo = reduce_poly(twin.poly, memoed, reducts=reducts)
        assert by_memo.remainder.canonical_key() == \
            reduce_poly(c.poly, plain).remainder.canonical_key()
        assert memoed.materialized == plain.materialized
        if before[0] and memoed.materialized > before[1]:
            grown_after_entries += 1
    assert grown_after_entries > 0


def test_reducts_divide_as_the_division_with_a_relation_excluded():
    rset, _, _ = file_inputs("virasoro.alg", 1, 4)
    plain, _, _ = file_inputs("virasoro.alg", 1, 4)
    for rel, twin in zip(rset.relations(), plain.relations()):
        reducts = {}   # one dict per excluded relation
        for _ in range(2):
            by_memo = reduce_poly(rel.poly, rset, exclude=rel,
                                  reducts=reducts)
            by_steps = reduce_poly(twin.poly, plain, exclude=twin)
            assert by_memo.remainder.canonical_key() == \
                by_steps.remainder.canonical_key()
            assert by_memo.steps == []
        assert reducts


@settings(max_examples=100, deadline=None)
@given(a2_presentations, a2_polys)
def test_memo_divides_as_the_division_on_random_input(ps, p):
    polys = gsb._monic_prepare(ps)
    plain, memoed = RelationSet(SIG_A2, polys), RelationSet(SIG_A2, polys)
    reducts = {}
    comps = compositions(plain, SIG_A2.generators, None)
    for poly in [p] + [c.poly for c in comps] + [p]:
        by_memo = reduce_poly(poly, memoed, reducts=reducts)
        by_steps = reduce_poly(poly, plain)
        assert by_memo.remainder == by_steps.remainder
        # the reducts search only words the step-by-step division steps on
        stepped = {st.pattern.word for st in by_steps.steps}
        assert {st.pattern.word for st in by_memo.steps} <= stepped
        assert len(by_memo.steps) <= len(by_steps.steps)


def test_a_non_monic_evaluation_raises(monkeypatch):
    # raised, not asserted, so the check also holds under python -O
    f = parse_poly("a (1) a - a (0) D a", SIG_A2)
    evaluate = rewriting.eval_pattern
    monkeypatch.setattr(rewriting, "eval_pattern", lambda pat: {
        w: 2 * c for w, c in evaluate(pat).items()})
    rset = RelationSet(SIG_A2, [f])
    for reducts in (None, {}):
        with pytest.raises(RelationError, match="with coefficient 1"):
            reduce_poly(parse_poly("a (1) a", SIG_A2), rset, reducts=reducts)


def test_an_evaluation_that_does_not_descend_raises(monkeypatch):
    f = parse_poly("a (1) a - a (0) D a", SIG_A2)
    u = parse_poly("a (1) a", SIG_A2).leading()
    v = parse_poly("a (0) a (1) a", SIG_A2).leading()
    # each word evaluates to itself plus the other, so neither descends
    monkeypatch.setattr(rewriting, "eval_pattern", lambda pat: {
        pat.word: 1, v if pat.word == u else u: 1})
    rset = RelationSet(SIG_A2, [f])
    for reducts in (None, {}):
        with pytest.raises(RelationError, match="meets"):
            reduce_poly(parse_poly("a (1) a", SIG_A2), rset, reducts=reducts)


def test_check_divides_through_the_memo_unless_it_keeps_traces(monkeypatch):
    memos = []
    reduce = gsb.reduce_poly

    def spy(p, rset, **kw):
        memos.append(kw.get("reducts"))
        return reduce(p, rset, **kw)
    monkeypatch.setattr(gsb, "reduce_poly", spy)
    for keep in ("failures", "verdicts", "traces"):
        memos.clear()
        rset, gens, comp_filter = file_inputs("virasoro.alg", 1, 4)
        rep = gsb.check_gsb_rset(rset, gens, comp_filter=comp_filter,
                                 keep=keep)
        assert len(memos) == sum(rep.tally.values()) > 0
        if keep == "traces":
            assert memos == [None] * len(memos)
        else:
            assert memos[0] is not None and \
                all(m is memos[0] for m in memos)
