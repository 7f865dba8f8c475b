"""Structural consequences of a completed basis.

For a set whose compositions are all trivial: products of substituted
relations stay in the ideal (and reduce to zero), two substitutions with the
same leading word differ by strictly smaller ideal members, and the
irreducible words are linearly independent in the quotient.
"""

import random

from conformal import (ConformalPolynomial, RelationSet, complete,
                       eval_pattern, parse_poly, poly_mult, reduce_poly)
from conftest import random_word
from props import all_occurrences, random_s_word, reconstruct


def _completed(sig):
    res = complete([parse_poly("a (1) a - a (0) D a", sig)], sig,
                   sig.generators)
    assert res.completed
    return RelationSet(sig, res.basis)


def test_products_of_substitutions_reduce_to_zero(sig_a2):
    rng = random.Random(51)
    rset = _completed(sig_a2)
    rels = rset.relations()
    for _ in range(150):
        pat = random_s_word(rng, sig_a2, rels)
        sub = ConformalPolynomial(sig_a2, dict(eval_pattern(pat)))
        u = ConformalPolynomial.monomial(
            sig_a2, random_word(rng, sig_a2, max_len=2))
        n = rng.randrange(0, sig_a2.N + 2)
        if rng.random() < 0.5:
            prod = poly_mult(sub, n, u)
        else:
            prod = poly_mult(u, n, sub)
        assert reduce_poly(prod, rset).remainder.is_zero()


def test_equal_leading_words_differ_below(sig_a2):
    rng = random.Random(52)
    rset = _completed(sig_a2)
    rels = rset.relations()
    found = 0
    while found < 60:
        p1 = random_s_word(rng, sig_a2, rels)
        w = p1.word
        candidates = all_occurrences(rset, w)
        if len(candidates) < 2:
            continue
        p2 = candidates[-1]
        e1 = ConformalPolynomial(sig_a2, dict(eval_pattern(p1)))
        e2 = ConformalPolynomial(sig_a2, dict(eval_pattern(p2)))
        trace = reduce_poly(e2 - e1, rset)
        assert trace.remainder.is_zero()
        for st in trace.steps:
            assert sig_a2.word_key(st.pattern.word) < sig_a2.word_key(w)
        found += 1


def test_reduction_and_quotient_agree(sig_a2):
    # every element splits as (ideal part) + (irreducible part); the
    # irreducible part is unique, so reducing twice along different routes
    # and comparing in the quotient is consistent
    rng = random.Random(53)
    rset = _completed(sig_a2)
    from conftest import random_poly
    for _ in range(200):
        p = random_poly(rng, sig_a2, max_terms=4, max_len=4)
        trace = reduce_poly(p, rset)
        assert reconstruct(trace) == p
        diff = p - trace.remainder
        assert reduce_poly(diff, rset).remainder.is_zero()
