"""The incremental interreduction against the full rescan it replaces.

``full_rescan_interreduce`` is the former ``gsb.interreduce``: every pass
sorts all live members and probes every term of every one.  The incremental
path must make exactly the same adds and removes, so it must leave the same
relation set, return the same ``changed`` flag, and give ``complete`` the
same result on every shipped presentation and on random input.
"""

import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conformal import (CompletionLimits, IndexWindow, RelationSet,
                       builtin_example, equivalence_check, gsb, reduce_poly)
from conformal import cli
from conftest import SIG_A2, a2_presentations, within_budget

PRESENTATIONS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "presentations")
incremental_interreduce = gsb.interreduce


def full_rescan_interreduce(rset: RelationSet) -> bool:
    """Reduce every member against the others until a fixpoint (reference)."""
    sig = rset.sig
    changed_any = False
    while True:
        changed = False
        for rel in sorted(rset.relations(),
                          key=lambda r: sig.word_key(r.lead), reverse=True):
            if not rel.alive:
                continue
            if not any(rset.has_reduction(w, exclude=rel)
                       for w in rel.poly.terms):
                continue
            trace = reduce_poly(rel.poly, rset, exclude=rel)
            if not trace.steps:
                continue
            rset.remove(rel)
            if not trace.remainder.is_zero():
                rset.add(trace.remainder.monic())
            changed = changed_any = True
        if not changed:
            return changed_any


def reference_interreduce(rset, index=None):
    return full_rescan_interreduce(rset)


def recorded(monkeypatch, interreduce, run):
    """``run()`` with ``interreduce`` inside ``complete``.

    Returns the result and the run's events: every add and remove on a
    relation set, and after each interreduction its return value and the
    live members in insertion order.
    """
    events = []
    add, remove = RelationSet.add, RelationSet.remove

    def recording_add(rset, poly):
        rel = add(rset, poly)
        events.append(("add", rel.canon))
        return rel

    def recording_remove(rset, rel):
        events.append(("remove", rel.canon))
        remove(rset, rel)

    def recording_interreduce(rset, index=None):
        changed = interreduce(rset, index)
        events.append(("interreduce", changed,
                       [r.canon for r in rset.relations()]))
        return changed

    with monkeypatch.context() as m:
        m.setattr(RelationSet, "add", recording_add)
        m.setattr(RelationSet, "remove", recording_remove)
        m.setattr(gsb, "interreduce", recording_interreduce)
        return run(), events


def assert_same_completion(monkeypatch, run):
    """``run()`` makes the same adds and removes, interreduction by
    interreduction, and gives the same result with either interreduction
    inside ``complete``; returns that result."""
    new, new_events = recorded(monkeypatch, incremental_interreduce, run)
    ref, ref_events = recorded(monkeypatch, reference_interreduce, run)
    assert any(e[0] == "interreduce" for e in new_events)
    assert new_events == ref_events
    assert new == ref
    return new


def result_fields(res):
    return (res.basis, res.completed, res.rounds, res.added, res.diagnostic)


def complete_file(name):
    """``conformal complete -f presentations/NAME --window 1``, as a call."""
    args = SimpleNamespace(command="complete",
                           file=os.path.join(PRESENTATIONS, name), window=1)
    ctx = cli._load_context(args)

    def run():
        return result_fields(gsb.complete(
            ctx.rset.polys(), ctx.sig, ctx.gens, limits=cli._limits(ctx),
            comp_filter=ctx.sources))
    return run


def test_square_alg(monkeypatch):
    basis, completed, *_ = assert_same_completion(
        monkeypatch, complete_file("square.alg"))
    assert completed and len(basis) == 2


def test_virasoro_alg(monkeypatch):
    assert assert_same_completion(monkeypatch, complete_file("virasoro.alg"))[1]


def test_heisenberg_virasoro_alg(monkeypatch):
    assert assert_same_completion(
        monkeypatch, complete_file("heisenberg_virasoro.alg"))[1]


def test_standalone_interreduce_with_lazy_schemas():
    # probes materialize out-of-window schema instances, which then take
    # part in the interreduction; a prefix of the set keeps this quick
    args = SimpleNamespace(
        command="complete",
        file=os.path.join(PRESENTATIONS, "heisenberg_virasoro.alg"), window=1)
    ctx = cli._load_context(args)
    polys = ctx.rset.polys()[:130]
    rset = RelationSet(ctx.sig, polys, lazy=ctx.rset.lazy)
    ref = RelationSet(ctx.sig, polys, lazy=ctx.rset.lazy)
    assert incremental_interreduce(rset) == full_rescan_interreduce(ref)
    assert rset.materialized == ref.materialized > 0
    assert [(r.canon, r.alive) for r in rset.log_since(0)] == \
        [(r.canon, r.alive) for r in ref.log_since(0)]


def equiv_builtin(name, W):
    ex = builtin_example(name, IndexWindow(W))

    def run():
        eq = equivalence_check(ex)
        return result_fields(eq.completion), eq.to_json()
    return run


def test_builtin_virasoro_w2(monkeypatch):
    fields, report = assert_same_completion(
        monkeypatch, equiv_builtin("virasoro", 2))
    assert fields[1] and report["forward_ok"] and report["backward_ok"]


def test_builtin_heisenberg_virasoro_w1(monkeypatch):
    fields, report = assert_same_completion(
        monkeypatch, equiv_builtin("heisenberg-virasoro", 1))
    assert fields[1] and report["forward_ok"] and report["backward_ok"]


# random small presentations over sig_a2 -----------------------------------


@settings(max_examples=40, deadline=None)
@given(a2_presentations)
def test_standalone_interreduce_matches_reference(ps):
    monic = [p.monic() for p in ps if not p.is_zero()]
    # add in the given order, duplicates included: the constructor would
    # sort and deduplicate
    rset, ref = RelationSet(SIG_A2), RelationSet(SIG_A2)
    for p in monic:
        rset.add(p)
        ref.add(p)
    changed, expected = within_budget(lambda: (
        incremental_interreduce(rset), full_rescan_interreduce(ref)))
    assert changed == expected
    assert rset.polys() == ref.polys()


@settings(max_examples=40, deadline=None)
@given(a2_presentations)
def test_random_completion_matches_reference(ps):
    limits = CompletionLimits(max_rounds=4, max_basis=40, max_lead_length=4)
    with pytest.MonkeyPatch.context() as monkeypatch:
        within_budget(lambda: assert_same_completion(
            monkeypatch, lambda: result_fields(
                gsb.complete(ps, SIG_A2, SIG_A2.generators, limits=limits))))
