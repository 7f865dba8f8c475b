"""Pattern matching and evaluation against a brute-force occurrence scan."""

import random

import pytest

from conformal import (AlgebraSignature, ConformalPolynomial, IndexWindow,
                       NormalWord, Pattern, RelationSet, apply_D,
                       builtin_example, eval_pattern, gen, make_word,
                       normalize, parse_poly, parse_word, word_expr)
from conformal.rewriting import RelationError
from conftest import random_word, random_poly
from props import s_word


def interior(pat):
    """Whether letters of the word follow the occurrence."""
    return pat.start + pat.relation.lead.length < pat.word.length


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


# two relations share the lead a (1) a, and two more share its flat word
# with the D powers 1 and 2; they are listed out of canonical order
SHARED_LEADS = ["a (1) D^2 a - a (0) D^3 a", "a (1) a + 2 * a (0) D a",
                "a (0) a (0) a", "a (1) D a - a (0) D^2 a",
                "a (1) a - a (0) D a"]


def test_find_reductions_matches_brute_scan(sig_a2):
    rng = random.Random(11)
    rset = RelationSet(sig_a2)
    for text in SHARED_LEADS:
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
        assert [("k1" if interior(p) else "k2", p.start, p.relation)
                for p in pats] == brute
        assert all(p.word is w for p in pats)
        shared += len({(interior(p), p.start) for p in pats}) < len(pats)
    assert shared > 20


def test_find_reductions_examples(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    rset = RelationSet(sig_a2, [f])
    assert rset.find_reductions(parse_word("a (0) a (0) a", sig_a2)) == []
    rel = rset.relations()[0]
    w = parse_word("a (1) a (0) D a", sig_a2)
    assert rset.find_reductions(w) == [Pattern(rel, w, 0)]
    assert Pattern(rel, w, 0).describe() == "[s (0) D a] with s = a (1) a"
    # a relation's own leading word always matches itself as a suffix
    assert Pattern(rel, f.leading(), 0) in rset.find_reductions(f.leading())
    w = parse_word("a (0) a (1) D^2 a", sig_a2)
    assert rset.find_reductions(w) == [Pattern(rel, w, 1)]
    assert Pattern(rel, w, 1).describe() == "[a (0) D^2 s] with s = a (1) a"


def test_eval_pattern_identity_and_dshift(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    rset = RelationSet(sig_a2, [f])
    rel = rset.relations()[0]
    ident = s_word(rel)
    assert ConformalPolynomial(sig_a2, dict(eval_pattern(sig_a2, ident))) == f
    shifted = s_word(rel, i=2)
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
        pat = s_word(rel, prefix, 0, i=i)
        ev = ConformalPolynomial(sig_a2, dict(eval_pattern(sig_a2, pat)))
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
    assert w.flat()[:3] == rel.lead_flat
    for bad in (Pattern(rel, w, 0), Pattern(rel, w, 2), Pattern(rel, w, -1),
                Pattern(rel, parse_word("a (1) D a", sig_a2), 0)):
        with pytest.raises(RelationError):
            eval_pattern(sig_a2, bad)
    assert not rel._eval_cache


def _hv_words(rng, sig, count):
    """Random words over L_i, H_i with |i| <= 6, beyond the W=1 instances."""
    gens = [gen(name, i) for name in ("L", "H") for i in range(-6, 7)]
    for _ in range(count):
        body = tuple(rng.choice(gens).pair(rng.randrange(sig.N))
                     for _ in range(rng.randint(0, 3)))
        yield NormalWord(body, rng.choice(gens), rng.randint(0, 2))


def _find_one_agrees(words, left, right, full):
    """find_one on left (leftmost) and on right (rightmost) gives the first
    and last of find_reductions on full, three equal sets; exclude= too."""
    key = lambda pat: pat and (pat.relation.canon, pat.word, pat.start)
    twin = lambda rs, rel: rel and next(
        r for r in rs.relations() if r.canon == rel.canon)
    for w in words:
        pats = full.find_reductions(w)
        for rel in [None] + [p.relation for p in pats[:1] + pats[-1:]]:
            rest = full.find_reductions(w, exclude=rel)
            first = left.find_one(w, "leftmost", exclude=twin(left, rel))
            last = right.find_one(w, "rightmost", exclude=twin(right, rel))
            assert key(first) == key(rest[0] if rest else None)
            assert key(last) == key(rest[-1] if rest else None)
            # the walk runs to the end whatever the strategy, so the three
            # sets materialize the same instances
            assert left.materialized == right.materialized == \
                full.materialized


def test_find_one_matches_find_reductions(sig_a2):
    rng = random.Random(13)
    rsets = [RelationSet(sig_a2, [parse_poly(t, sig_a2) for t in SHARED_LEADS])
             for _ in range(3)]
    _find_one_agrees((random_word(rng, sig_a2, max_len=4, max_dpow=3)
                      for _ in range(300)), *rsets)


def test_find_one_matches_find_reductions_on_a_lazy_set():
    rng = random.Random(14)
    ex = builtin_example("heisenberg-virasoro", IndexWindow(W=1))
    rsets = [ex.basis_rset() for _ in range(3)]
    _find_one_agrees(_hv_words(rng, ex.sig, 150), *rsets)
    assert rsets[0].materialized > 0


def test_lazy_materialization_does_not_depend_on_the_strategy():
    # a leftmost search stops at the first hit only on a set without
    # schemas; on a lazy set both strategies walk, and materialize, alike
    rng = random.Random(15)
    ex = builtin_example("heisenberg-virasoro", IndexWindow(W=1))
    left, right = ex.basis_rset(), ex.basis_rset()
    for w in _hv_words(rng, ex.sig, 150):
        left.find_one(w, "leftmost")
        right.find_one(w, "rightmost")
        assert left.materialized == right.materialized
        assert left._lazy_tried == right._lazy_tried
    assert left.materialized > 0


def test_live_count_follows_adds_and_removes(sig_a2):
    rng = random.Random(16)
    rset = RelationSet(sig_a2, [parse_poly(t, sig_a2) for t in SHARED_LEADS])
    for _ in range(200):
        live = rset.relations()
        if live and rng.random() < 0.4:
            rset.remove(rng.choice(live))
        else:
            p = random_poly(rng, sig_a2)
            if not p.is_zero():
                rset.add(p.monic())
        assert len(rset) == len(rset.relations())
        assert rset.log_length() == len(rset.log_since(0))
    assert rset.log_length() > len(rset) > 0
