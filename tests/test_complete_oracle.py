"""Completion with reuse against the loop that recomputes everything.

``reference_complete`` is the former ``gsb.complete``: every round it
enumerates every composition of the sources afresh and divides each one by
the whole set.  ``gsb.complete`` looks up the compositions of relations
that were sources before and skips the divisions it proved to repeat with
a zero remainder.  It must make exactly the same adds and removes, in the
same order, and return the same result, on every shipped presentation, on
the built-ins and on random input.
"""

import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conformal import (CompletionLimits, ConformalPolynomial, IndexWindow,
                       RelationSet, builtin_example, envelope,
                       equivalence_check, eval_pattern, gsb, reduce_poly)
from conformal import cli
from conftest import SIG_A2, a2_presentations, random_word, within_budget

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


def recorded(monkeypatch, complete, run):
    """``run()`` with ``complete`` as the completion of ``gsb`` and
    ``envelope``.

    Returns the result, the run's adds and removes on relation sets, and
    the number of compositions completion divided (``interreduce`` divides
    with ``exclude=``, completion without).
    """
    events = []
    divisions = [0]
    add, remove, reduce_poly = RelationSet.add, RelationSet.remove, \
        gsb.reduce_poly

    def recording_add(rset, poly):
        rel = add(rset, poly)
        events.append(("add", rel.canon))
        return rel

    def recording_remove(rset, rel):
        events.append(("remove", rel.canon))
        remove(rset, rel)

    def counting_reduce_poly(p, rset, **kw):
        if not kw:
            divisions[0] += 1
        return reduce_poly(p, rset, **kw)

    with monkeypatch.context() as m:
        m.setattr(RelationSet, "add", recording_add)
        m.setattr(RelationSet, "remove", recording_remove)
        m.setattr(gsb, "reduce_poly", counting_reduce_poly)
        m.setattr(gsb, "complete", complete)
        m.setattr(envelope, "complete", complete)
        return run(), events, divisions[0]


def assert_same_completion(monkeypatch, run):
    """``run()`` makes the same adds and removes and gives the same result
    with either completion; returns the result and the divisions that the
    reuse saved."""
    new, new_events, new_divs = recorded(monkeypatch, reuse_complete, run)
    ref, ref_events, ref_divs = recorded(monkeypatch, reference_complete,
                                         run)
    assert new_events == ref_events
    assert new == ref
    assert new_divs <= ref_divs
    return new, ref_divs - new_divs


def result_fields(res):
    return (res.basis, res.completed, res.rounds, res.added, res.diagnostic)


def complete_file(name):
    """``conformal complete -f presentations/NAME``, as a call."""
    args = SimpleNamespace(command="complete",
                           file=os.path.join(PRESENTATIONS, name))
    ctx = cli._load_context(args)

    def run():
        return result_fields(gsb.complete(
            ctx.rset.polys(), ctx.sig, ctx.gens, limits=cli._limits(ctx),
            comp_filter=cli._comp_filter(ctx)))
    return run


@pytest.mark.parametrize("name", ["square.alg", "virasoro.alg",
                                  "heisenberg_virasoro.alg"])
def test_shipped_file(monkeypatch, name):
    (basis, completed, rounds, *_), saved = assert_same_completion(
        monkeypatch, complete_file(name))
    assert completed and basis
    # the last round divides only compositions of known pairs
    assert saved > 0 or rounds == 1


def equiv_builtin(name, W):
    ex = builtin_example(name, IndexWindow(W))

    def run():
        eq = equivalence_check(ex)
        return result_fields(eq.completion), eq.to_json()
    return run


def test_builtin_virasoro_w2(monkeypatch):
    (fields, report), saved = assert_same_completion(
        monkeypatch, equiv_builtin("virasoro", 2))
    assert fields[1] and report["forward_ok"] and report["backward_ok"]
    assert saved > 0


def test_builtin_heisenberg_virasoro_w1(monkeypatch):
    (fields, report), saved = assert_same_completion(
        monkeypatch, equiv_builtin("heisenberg-virasoro", 1))
    assert fields[1] and report["forward_ok"] and report["backward_ok"]
    assert saved > 0


@settings(max_examples=60, deadline=None)
@given(a2_presentations)
def test_random_completion_matches_reference(ps):
    limits = CompletionLimits(max_rounds=4, max_basis=40, max_lead_length=4)
    with pytest.MonkeyPatch.context() as monkeypatch:
        within_budget(lambda: assert_same_completion(
            monkeypatch, lambda: result_fields(
                gsb.complete(ps, SIG_A2, SIG_A2.generators, limits=limits))))


@settings(max_examples=150, deadline=None)
@given(a2_presentations, a2_presentations, st.randoms(use_true_random=False))
def test_skip_rule_admits_only_repeating_divisions(ps, extra, rng):
    """A division to zero is recorded; after random adds and removes, with
    no interreduction in between, ``division_repeats`` may admit it only
    when dividing again finds the same patterns."""
    rset = RelationSet(SIG_A2, [p.monic() for p in ps])
    # a sum of leftmost patterns at distinct words divides to zero, taking
    # exactly those patterns from the greatest word down
    targets = sorted({random_word(rng, SIG_A2, max_len=4, max_dpow=3)
                      for _ in range(6)}, key=SIG_A2.word_key)
    pats = [pat for pat in map(rset.find_one, targets) if pat is not None]
    terms = {}
    for pat in pats:
        scale = rng.choice([-2, 1, 3])
        for w, c in eval_pattern(pat).items():
            terms[w] = terms.get(w, 0) + scale * c
    p = ConformalPolynomial(SIG_A2, terms)
    trace = reduce_poly(p, rset)
    assert trace.remainder.is_zero()
    stamp, steps = rset.log_length(), [st.pattern for st in trace.steps]
    words, rels = [pat.word for pat in steps], [pat.relation for pat in steps]
    for q in extra:
        used = [rel for rel in rels if rel.alive]
        if used and rng.random() < 0.5:
            rset.remove(rng.choice(used))
        elif q.monic().canonical_key() not in rset._canon:
            rset.add(q.monic())
        if rset.division_repeats(stamp, words, rels):
            again = reduce_poly(p, rset)
            assert again.remainder.is_zero()
            assert [st.pattern for st in again.steps] == steps
