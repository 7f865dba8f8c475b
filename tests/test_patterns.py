"""Pattern matching and evaluation against a brute-force occurrence scan
(``props.all_occurrences``)."""

import random

import pytest

from conformal import (AlgebraSignature, ConformalPolynomial, IndexWindow,
                       NormalWord, Pattern, RelationSet, apply_D,
                       builtin_example, eval_pattern, gen, make_word,
                       normalize, parse_poly, parse_word, word_expr)
from conformal.rewriting import RelationError
from conftest import random_word, random_poly
from props import all_occurrences, s_word


# two relations share the lead a (1) a, and two more share its flat word
# with the D powers 1 and 2; they are listed out of canonical order
SHARED_LEADS = ["a (1) D^2 a - a (0) D^3 a", "a (1) a + 2 * a (0) D a",
                "a (0) a (0) a", "a (1) D a - a (0) D^2 a",
                "a (1) a - a (0) D a"]


def _find_one_agrees(words, probe, ref):
    """find_one and has_reduction on probe give the first of
    ``all_occurrences`` on ref, an equal set, with and without exclude=
    (the first and the last relation found); returns the number of words
    where two occurrences share a slice."""
    key = lambda pat: pat and (pat.relation.canon, pat.word, pat.start)

    def twin(rel):
        # the hits at a slice do not depend on earlier searches, so probe
        # may materialize the relation's own lead slice first
        if rel is None:
            return None
        probe._materialize(rel.lead_flat)
        return next(r for r in probe.relations() if r.canon == rel.canon)

    shared = 0
    for w in words:
        pats = all_occurrences(ref, w)
        for rel in [None] + [p.relation for p in pats[:1] + pats[-1:]]:
            rest = [p for p in pats if p.relation is not rel]
            assert key(probe.find_one(w, exclude=twin(rel))) == \
                key(rest[0] if rest else None)
            assert probe.has_reduction(w, exclude=twin(rel)) == bool(rest)
        shared += len({(p.start, p.relation.lead.length)
                       for p in pats}) < len(pats)
    return shared


# the next two tests keep the names they had when RelationSet listed every
# occurrence itself (find_reductions); that list is now all_occurrences

def test_find_reductions_matches_brute_scan(sig_a2):
    rng = random.Random(11)
    probe, ref = RelationSet(sig_a2), RelationSet(sig_a2)
    for text in SHARED_LEADS:
        probe.add(parse_poly(text, sig_a2))
        ref.add(parse_poly(text, sig_a2))
    assert [r.canon for r in probe.relations()] != \
        sorted(r.canon for r in probe.relations())
    words = (random_word(rng, sig_a2, max_len=4, max_dpow=3)
             for _ in range(400))
    assert _find_one_agrees(words, probe, ref) > 20


def test_find_one_matches_find_reductions(sig_a2):
    rng = random.Random(13)
    probe, ref = [RelationSet(sig_a2, [parse_poly(t, sig_a2)
                                       for t in SHARED_LEADS])
                  for _ in range(2)]
    _find_one_agrees((random_word(rng, sig_a2, max_len=4, max_dpow=3)
                      for _ in range(300)), probe, ref)


def test_find_one_examples(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    rset = RelationSet(sig_a2, [f])
    w = parse_word("a (0) a (0) a", sig_a2)
    assert rset.find_one(w) is None and all_occurrences(rset, w) == []
    rel = rset.relations()[0]
    w = parse_word("a (1) a (0) D a", sig_a2)
    assert rset.find_one(w) == Pattern(rel, w, 0)
    assert all_occurrences(rset, w) == [Pattern(rel, w, 0)]
    assert Pattern(rel, w, 0).describe() == "[s (0) D a] with s = a (1) a"
    # a relation's own leading word always matches itself as a suffix
    assert rset.find_one(f.leading()) == Pattern(rel, f.leading(), 0)
    assert rset.find_one(f.leading(), exclude=rel) is None
    w = parse_word("a (0) a (1) D^2 a", sig_a2)
    assert rset.find_one(w) == Pattern(rel, w, 1)
    assert all_occurrences(rset, w) == [Pattern(rel, w, 1)]
    assert Pattern(rel, w, 1).describe() == "[a (0) D^2 s] with s = a (1) a"


def test_eval_pattern_identity_and_dshift(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    rset = RelationSet(sig_a2, [f])
    rel = rset.relations()[0]
    ident = s_word(rel)
    assert ConformalPolynomial(sig_a2, dict(eval_pattern(ident))) == f
    shifted = s_word(rel, i=2)
    p = ConformalPolynomial(sig_a2, dict(eval_pattern(shifted)))
    assert p.leading() == parse_word("a (1) D^2 a", sig_a2)
    assert p == apply_D(f, 2)


def test_eval_pattern_leading_word_law(sig_xy3):
    rng = random.Random(12)
    rels = []
    while len(rels) < 3:
        p = random_poly(rng, sig_xy3, max_terms=3)
        if not p.is_zero() and p.leading().is_dfree and p.leading().length <= 2:
            rels.append(p.monic())
    rset = RelationSet(sig_xy3, rels)
    checked = 0
    for _ in range(500):
        w = random_word(rng, sig_xy3, max_len=4, max_dpow=2)
        for pat in all_occurrences(rset, w):
            ev = ConformalPolynomial(sig_xy3, dict(eval_pattern(pat)))
            assert ev.leading() == w
            assert ev.terms[w] == 1
            checked += 1
    assert checked > 50


def test_eval_pattern_oracle_via_expression_tree():
    sig = AlgebraSignature.indexed(["L"], 2)
    L = lambda i: gen("L", i)
    s = parse_poly("L_1 (1) L_2 - L_3", sig)
    rset = RelationSet(sig, [s])
    rel = rset.relations()[0]
    prefix = make_word(sig, L(5))
    c = make_word(sig, L(0))
    pat = s_word(rel, prefix, 0, m=0, c=c)
    ev = ConformalPolynomial(sig, dict(eval_pattern(pat)))
    # independent evaluation: substitute through raw expression products
    from conformal import Prod, LinComb, Gen
    from fractions import Fraction
    inner = LinComb([(Fraction(1), Prod(0, word_expr(s.leading()), word_expr(c))),
                     (Fraction(-1), Prod(0, word_expr(parse_word("L_3", sig)),
                                         word_expr(c)))])
    oracle = normalize(Prod(0, Gen(L(5)), inner), sig)
    assert ev == oracle
    assert ev.leading() == parse_word("L_5 (0) L_1 (1) L_2 (0) L_0", sig)


def test_d_action_on_patterns(sig_a2):
    # applying D to a suffix pattern gives the shifted pattern's word as
    # leading term, everything else strictly smaller
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    rset = RelationSet(sig_a2, [f])
    rel = rset.relations()[0]
    prefix = make_word(sig_a2, gen("a"))
    for i in range(3):
        pat = s_word(rel, prefix, 0, i=i)
        ev = ConformalPolynomial(sig_a2, dict(eval_pattern(pat)))
        up = apply_D(ev, 2)
        assert up.leading() == s_word(rel, prefix, 0, i=i + 2).word
        others = [w for w in up.terms if w != up.leading()]
        for w in others:
            assert sig_a2.word_key(w) < sig_a2.word_key(up.leading())


def test_malformed_patterns_rejected(sig_a2):
    g = parse_poly("a (0) D a", sig_a2)      # leading word carries a D
    rset = RelationSet(sig_a2, [g])
    rel = rset.relations()[0]
    # the slice a (0) a at letter 0 matches the lead's flat word, but it is
    # interior, where only a D-free lead may occur
    w = parse_word("a (0) a (0) a", sig_a2)
    assert w.prefix_to(2)[:-1] == rel.lead_flat
    for bad in (Pattern(rel, w, 0), Pattern(rel, w, 2), Pattern(rel, w, -1),
                Pattern(rel, parse_word("a (1) D a", sig_a2), 0)):
        with pytest.raises(RelationError):
            eval_pattern(bad)


def _hv_words(rng, sig, count):
    """Random words over L_i, H_i with |i| <= 6, beyond the W=1 instances."""
    gens = [gen(name, i) for name in ("L", "H") for i in range(-6, 7)]
    for _ in range(count):
        body = [(rng.choice(gens), rng.randrange(sig.N))
                for _ in range(rng.randint(0, 3))]
        yield NormalWord(body, rng.choice(gens), rng.randint(0, 2))


def test_find_one_matches_brute_scan_on_a_lazy_set():
    rng = random.Random(14)
    ex = builtin_example("heisenberg-virasoro", IndexWindow(W=1))
    probe, ref = ex.basis_rset(), ex.basis_rset()
    _find_one_agrees(_hv_words(rng, ex.sig, 150), probe, ref)
    assert probe.materialized > 0


def test_find_one_and_has_reduction_walk_alike_on_a_lazy_set():
    # both searches stop at the first hit, so on two fresh lazy sets they
    # agree on every word and materialize the same slices
    rng = random.Random(15)
    ex = builtin_example("heisenberg-virasoro", IndexWindow(W=1))
    one, has = ex.basis_rset(), ex.basis_rset()
    for w in _hv_words(rng, ex.sig, 150):
        assert (one.find_one(w) is not None) == has.has_reduction(w)
        assert one._lazy_tried == has._lazy_tried
    assert one.materialized == has.materialized > 0


def test_live_count_follows_adds_and_removes(sig_a2):
    rng = random.Random(16)
    rset = RelationSet(sig_a2, [parse_poly(t, sig_a2) for t in SHARED_LEADS])
    added = len(rset)
    for _ in range(200):
        live = rset.relations()
        if live and rng.random() < 0.4:
            rset.remove(rng.choice(live))
        else:
            p = random_poly(rng, sig_a2)
            if not p.is_zero():
                rset.add(p.monic())
                added += 1
        assert len(rset) == len(rset.relations())
        assert rset.added == added
    assert added > len(rset) > 0


def test_remove_refuses_a_set_that_holds_an_eager_window():
    # its lookup skips the eager instances, so the set must keep them; a
    # set sharing the index without the radius solves them again
    ex = builtin_example("virasoro", IndexWindow(W=1))
    rset = ex.basis_rset()
    rset.hold_box()
    with pytest.raises(RelationError):
        rset.remove(rset.relations()[0])
    assert len(rset) == len(rset.relations()) == len(ex.basis)
    rset = RelationSet(ex.sig, ex.basis, lazy=ex.index)
    rset.remove(rset.relations()[0])
    assert len(rset) == len(ex.basis) - 1
