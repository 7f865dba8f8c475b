"""Completion with reuse against the loop that recomputes everything.

``reference_complete`` is the former ``gsb.complete``: every round it
enumerates every composition of the sources afresh and divides each one by
the whole set step by step.  ``gsb.complete`` looks up the compositions of
relations that were sources before and divides with ``reduce_poly``'s
reducts, kept in one ``KeptReducts`` that drops only the entries a change
to the set reaches.  It must make exactly the same adds and removes, in
the same order, and return the same result, on every shipped
presentation, on the built-ins and on random input, and never search for
more patterns (``RelationSet.find_one`` calls); on the shipped
presentations and the built-ins it must search for fewer.  After every
add and its interreduction, every entry the reducts keep must agree with
a fresh division on the set as it is then.
"""

import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conformal import (CompletionLimits, ConformalPolynomial, IndexWindow,
                       RelationSet, builtin_example, envelope,
                       equivalence_check, gsb, rewriting)
from conformal import cli
from conftest import SIG_A2, a2_presentations, within_budget

PRESENTATIONS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "presentations")
reuse_complete = gsb.complete


def enumerate_all(source, gens):
    """Every composition of the sources, computed afresh (reference)."""
    out = []
    for f in source:
        out.extend(gsb.mult_compositions(f, gens))
    for f in source:
        for g in source:
            out.extend(gsb.pair_compositions(f, g))
    out.sort(key=gsb.Composition.sort_key)
    return out


def reference_complete(polys, sig, gens, *, limits=CompletionLimits(),
                       comp_filter=None):
    """Enumerate and divide every composition in every round
    (reference)."""
    rset = RelationSet(sig, gsb._monic_prepare(polys))
    index = gsb.SupportIndex(rset)
    gsb.interreduce(rset, index)
    added_total = 0
    rounds = 0
    for rounds in range(1, limits.max_rounds + 1):
        source = rset.relations()
        if comp_filter is not None:
            source = [r for r in source if comp_filter(r)]
        comps = enumerate_all(source, gens)
        added_this_round = 0
        for comp in comps:
            rem = gsb.reduce_poly(comp.poly, rset).remainder
            if rem.is_zero():
                continue
            rem = rem.monic()
            if limits.max_lead_length is not None and \
                    rem.leading().length > limits.max_lead_length:
                return gsb.CompletionResult(
                    rset.polys(), rounds, added_total,
                    f"leading word {rem.leading()} exceeds the length limit "
                    f"{limits.max_lead_length}")
            rset.add(rem)
            gsb.interreduce(rset, index)
            added_this_round += 1
            added_total += 1
            if len(rset) > limits.max_basis:
                return gsb.CompletionResult(
                    rset.polys(), rounds, added_total,
                    f"basis size exceeded the limit {limits.max_basis}")
        if added_this_round == 0:
            return gsb.CompletionResult(rset.polys(), rounds, added_total)
    return gsb.CompletionResult(
        rset.polys(), limits.max_rounds, added_total,
        f"no fixpoint within {limits.max_rounds} rounds")


def assert_reducts_hold(reducts):
    """Each entry of ``reducts`` agrees with a fresh division on its set:
    a word recorded irreducible has no pattern, a word with a reduct still
    has the pattern its division found, and a reduct leaves the remainder
    of its word.  Returns the number of entries checked."""
    rset, sig = reducts.rset, reducts.rset.sig
    for w, r in reducts.items():
        pat = rset.find_one(w)
        if r is None:
            assert pat is None, w
        else:
            assert pat.relation is reducts._relation[w], w
            assert rewriting.reduce_poly(ConformalPolynomial(sig, dict(r)),
                                   rset).remainder == \
                rewriting.reduce_poly(ConformalPolynomial.monomial(sig, w),
                                rset).remainder, w
    return len(reducts)


def recorded(monkeypatch, complete, run):
    """``run()`` with ``complete`` as the completion of ``gsb`` and
    ``envelope``.

    Returns the result, the run's adds and removes on relation sets, the
    number of patterns it searched for (``RelationSet.find_one`` calls,
    those of ``interreduce`` included), and the number of reducts entries
    that survived a change of the set, each checked by
    ``assert_reducts_hold`` after the change; the check's own searches are
    not counted.
    """
    events = []
    searches = [0]
    kept = [0]
    add, remove, find_one = RelationSet.add, RelationSet.remove, \
        RelationSet.find_one
    sync = rewriting.KeptReducts.sync

    def recording_add(rset, poly):
        rel = add(rset, poly)
        events.append(("add", rel.canon))
        return rel

    def recording_remove(rset, rel):
        events.append(("remove", rel.canon))
        remove(rset, rel)

    def counting_find_one(rset, *args, **kw):
        searches[0] += 1
        return find_one(rset, *args, **kw)

    def checking_sync(reducts):
        sync(reducts)
        counted = searches[0]
        kept[0] += assert_reducts_hold(reducts)
        searches[0] = counted

    with monkeypatch.context() as m:
        m.setattr(RelationSet, "add", recording_add)
        m.setattr(RelationSet, "remove", recording_remove)
        m.setattr(RelationSet, "find_one", counting_find_one)
        m.setattr(rewriting.KeptReducts, "sync", checking_sync)
        m.setattr(gsb, "complete", complete)
        m.setattr(envelope, "complete", complete)
        return run(), events, searches[0], kept[0]


def assert_same_completion(monkeypatch, run):
    """``run()`` makes the same adds and removes and gives the same result
    with either completion, and the reuse searches for no more patterns;
    returns the result, the searches that the reuse saved and the reducts
    entries it kept across changes of the set."""
    new, new_events, new_searches, kept = recorded(
        monkeypatch, reuse_complete, run)
    ref, ref_events, ref_searches, _ = recorded(
        monkeypatch, reference_complete, run)
    assert new_events == ref_events
    assert new == ref
    assert new_searches <= ref_searches
    return new, ref_searches - new_searches, kept


def result_fields(res):
    return (res.basis, res.completed, res.rounds, res.added, res.diagnostic)


def complete_file(name, **options):
    """``conformal complete -f presentations/NAME`` with the option flags
    given, as a call."""
    args = SimpleNamespace(command="complete",
                           file=os.path.join(PRESENTATIONS, name), **options)
    ctx = cli._load_context(args)

    def run():
        return result_fields(gsb.complete(
            ctx.rset.polys(), ctx.sig, ctx.gens, limits=cli._limits(ctx),
            comp_filter=ctx.sources))
    return run


@pytest.mark.parametrize("name", ["square.alg", "virasoro.alg",
                                  "heisenberg_virasoro.alg"])
def test_shipped_file(monkeypatch, name):
    (basis, completed, *_), saved, kept = assert_same_completion(
        monkeypatch, complete_file(name))
    assert completed and basis
    assert saved > 0


# smaller windows than the files' own leave their bases incomplete, so
# completion adds relations and the reducts must survive the adds
@pytest.mark.parametrize("name, options", [
    ("virasoro.alg", {"relation_multiplier": 1}),
    ("heisenberg_virasoro.alg", {"window": 1, "relation_multiplier": 2}),
], ids=["virasoro-M1", "heisenberg_virasoro-W1-M2"])
def test_shipped_file_in_a_smaller_window(monkeypatch, name, options):
    (basis, completed, _, added, _), saved, kept = assert_same_completion(
        monkeypatch, complete_file(name, **options))
    assert completed and basis and added
    assert saved > 0 and kept > 0


def equiv_builtin(name, W):
    ex = builtin_example(name, IndexWindow(W))

    def run():
        eq = equivalence_check(ex)
        return result_fields(eq.completion), eq.to_json()
    return run


def assert_builtin_completes(monkeypatch, name, W):
    (fields, report), saved, kept = assert_same_completion(
        monkeypatch, equiv_builtin(name, W))
    assert fields[1] and report["forward_ok"] and report["backward_ok"]
    assert saved > 0 and kept > 0


def test_builtin_virasoro_w1(monkeypatch):
    assert_builtin_completes(monkeypatch, "virasoro", 1)


def test_builtin_virasoro_w2(monkeypatch):
    assert_builtin_completes(monkeypatch, "virasoro", 2)


def test_builtin_heisenberg_virasoro_w1(monkeypatch):
    assert_builtin_completes(monkeypatch, "heisenberg-virasoro", 1)


@settings(max_examples=60, deadline=None)
@given(a2_presentations)
def test_random_completion_matches_reference(ps):
    limits = CompletionLimits(max_rounds=4, max_basis=40, max_lead_length=4)
    with pytest.MonkeyPatch.context() as monkeypatch:
        within_budget(lambda: assert_same_completion(
            monkeypatch, lambda: result_fields(
                gsb.complete(ps, SIG_A2, SIG_A2.generators, limits=limits))))
