"""Pattern matching and evaluation against a brute-force occurrence scan."""

import random

import pytest

from conformal import (AlgebraSignature, ConformalPolynomial, Pattern,
                       RelationSet, apply_D, eval_pattern, gen, make_word,
                       normalize, parse_poly, parse_word, word_expr)
from conformal.rewriting import RelationError
from conftest import random_word, random_poly


def brute_occurrences(sig, w, rels):
    """Exhaustive occurrence scan, independent of the indexed search."""
    found = []
    letters, juncs = w.letters(), w.junctions()
    for rel in rels:
        s = rel.lead
        sl, sj = s.letters(), s.junctions()
        L = s.length
        for p in range(w.length - L + 1):
            if letters[p:p + L] != sl:
                continue
            if juncs[p:p + L - 1] != tuple(sj):
                continue
            interior = p + L < w.length
            if interior and s.dpow == 0:
                found.append(("k1", p, rel))
            if not interior and w.dpow >= s.dpow:
                found.append(("k2", p, rel))
    return found


def test_find_reductions_matches_brute_scan(sig_a2):
    rng = random.Random(11)
    # two relations share the lead a (1) a, and two more share its flat
    # word with the D powers 1 and 2; they are added out of canonical order
    texts = ["a (1) D^2 a - a (0) D^3 a", "a (1) a + 2 * a (0) D a",
             "a (0) a (0) a", "a (1) D a - a (0) D^2 a",
             "a (1) a - a (0) D a"]
    rset = RelationSet(sig_a2)
    for text in texts:
        rset.add(parse_poly(text, sig_a2))
    assert [r.canon for r in rset.relations()] != \
        sorted(r.canon for r in rset.relations())
    shared = 0
    for _ in range(400):
        w = random_word(rng, sig_a2, max_len=4, max_dpow=3)
        pats = rset.find_reductions(w)
        brute = sorted(brute_occurrences(sig_a2, w, rset.relations()),
                       key=lambda hit: (hit[1], hit[0],
                                        sig_a2.word_key(hit[2].lead),
                                        hit[2].canon))
        assert [(p.kind, p.prefix.length if p.prefix else 0, p.relation)
                for p in pats] == \
               [(1 if k == "k1" else 2, p, rel) for k, p, rel in brute]
        assert all(p.leading_word() == w for p in pats)
        if pats:
            assert rset.find_one(w, "rightmost") == pats[-1]
        shared += len({(p.kind, p.prefix) for p in pats}) < len(pats)
    assert shared > 20


def test_find_reductions_examples(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    rset = RelationSet(sig_a2, [f])
    assert rset.find_reductions(parse_word("a (0) a (0) a", sig_a2)) == []
    pats = rset.find_reductions(parse_word("a (1) a (0) D a", sig_a2))
    assert len(pats) == 1 and pats[0].kind == 1 and pats[0].prefix is None
    assert pats[0].m == 0
    assert pats[0].suffix == parse_word("D a", sig_a2)
    # a relation's own leading word always matches itself as a suffix
    self_pats = rset.find_reductions(f.leading())
    assert any(p.kind == 2 and p.prefix is None and p.dshift == 0
               for p in self_pats)


def test_eval_pattern_identity_and_dshift(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    rset = RelationSet(sig_a2, [f])
    rel = rset.relations()[0]
    ident = Pattern(2, rel, None, None, dshift=0)
    assert ConformalPolynomial(sig_a2, dict(eval_pattern(sig_a2, ident))) == f
    shifted = Pattern(2, rel, None, None, dshift=2)
    p = ConformalPolynomial(sig_a2, dict(eval_pattern(sig_a2, shifted)))
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
        for pat in rset.find_reductions(w):
            ev = ConformalPolynomial(sig_xy3, dict(eval_pattern(sig_xy3, pat)))
            assert pat.leading_word() == w
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
    pat = Pattern(1, rel, prefix, 0, m=0, suffix=c)
    ev = ConformalPolynomial(sig, dict(eval_pattern(sig, pat)))
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
        pat = Pattern(2, rel, prefix, 0, dshift=i)
        ev = ConformalPolynomial(sig_a2, dict(eval_pattern(sig_a2, pat)))
        up = apply_D(ev, 2)
        target = Pattern(2, rel, prefix, 0, dshift=i + 2)
        assert up.leading() == target.leading_word()
        others = [w for w in up.terms if w != up.leading()]
        for w in others:
            assert sig_a2.word_key(w) < sig_a2.word_key(up.leading())


def test_malformed_patterns_rejected(sig_a2):
    g = parse_poly("a (0) D a", sig_a2)      # leading word carries a D
    rset = RelationSet(sig_a2, [g])
    rel = rset.relations()[0]
    bad = Pattern(1, rel, None, None, m=0, suffix=make_word(sig_a2, gen("a")))
    with pytest.raises(RelationError):
        eval_pattern(sig_a2, bad)
