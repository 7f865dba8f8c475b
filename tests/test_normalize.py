"""Normalization engine: defining identities and worked examples."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conformal import (AlgebraSignature, ConformalPolynomial, Gen, Prod,
                       apply_D, gen, make_word, mult, normalize, parse_poly,
                       parse_word, poly_mult, word_expr)
from conformal.algebra import ArithmeticError_
from conftest import SIG_A2, a2_rational_polys, random_word, random_poly


def test_zero_product_by_locality(sig_a1):
    assert parse_poly("(a (0) D a) (0) a", sig_a1).is_zero()


def test_right_normed_is_already_normal(sig_a1):
    p = parse_poly("a (0) (a (0) a)", sig_a1)
    a = gen("a")
    assert p == ConformalPolynomial.monomial(
        sig_a1, make_word(sig_a1, a, 0, a, 0, a))


def test_d_shift_on_generators():
    sig = AlgebraSignature.finite(["a", "b"], 3)
    assert parse_poly("(D a) (1) b", sig) == parse_poly("0", sig) - parse_poly("a (0) b", sig)
    assert parse_poly("(D a) (0) b", sig).is_zero()
    # D^i absorbs a falling factorial
    assert parse_poly("(D^2 a) (2) b", sig) == parse_poly("2 * a (0) b", sig)


def test_associative_identity_example():
    sig = AlgebraSignature.finite(["a", "b", "c"], 2)
    assert parse_poly("(a (1) b) (0) c", sig) == \
        parse_poly("a (1) (b (0) c) - a (0) (b (1) c)", sig)


def test_mult_examples():
    sig = AlgebraSignature.finite(["b", "c"], 2)
    b, c = sig.generators
    assert mult(sig, make_word(sig, b), 0, make_word(sig, c)) == \
        ConformalPolynomial.monomial(sig, make_word(sig, b, 0, c))
    # the falling factorial vanishes when the D power exceeds the index
    assert mult(sig, make_word(sig, b, dpow=2), 1, make_word(sig, c)).is_zero()
    # hand expansion: b(2)Dc = D(b(2)c) + 2 b(1)c = 2 b(1)c
    assert mult(sig, make_word(sig, b), 2, make_word(sig, c, dpow=1)) == \
        parse_poly("2 * b (1) c", sig)


def test_apply_d_examples(sig_a2):
    a = gen("a")
    w = ConformalPolynomial.monomial(sig_a2, make_word(sig_a2, a, dpow=2))
    assert apply_D(w) == ConformalPolynomial.monomial(
        sig_a2, make_word(sig_a2, a, dpow=3))
    assert apply_D(parse_poly("a (0) a", sig_a2)) == parse_poly("a (0) D a", sig_a2)
    assert apply_D(parse_poly("a (1) a", sig_a2)) == \
        parse_poly("a (1) D a - a (0) a", sig_a2)


def test_leading_and_monic(sig_a2):
    p = parse_poly("a (1) a - a (0) D a", sig_a2)
    assert p.leading() == parse_word("a (1) a", sig_a2)
    assert ConformalPolynomial.zero(sig_a2).leading() is None
    q = parse_poly("3 * a (0) a", sig_a2)
    assert q.leading() == parse_word("a (0) a", sig_a2)
    assert q.monic() == parse_poly("a (0) a", sig_a2)
    assert parse_poly("2 * a (1) a - 2 * a (0) D a", sig_a2).monic() == p
    with pytest.raises(ArithmeticError_):
        ConformalPolynomial.zero(sig_a2).monic()


def test_poly_ring_ops(sig_a2):
    rng = random.Random(0)
    for _ in range(50):
        p = random_poly(rng, sig_a2)
        assert (p - p).is_zero()
        assert p.scale(0).is_zero()
        assert (p + (-p)).is_zero()
        assert p.scale(Fraction(3, 2)).scale(Fraction(2, 3)) == p


def test_normalization_is_linear(sig_xy3):
    rng = random.Random(1)
    for _ in range(100):
        p = random_poly(rng, sig_xy3)
        q = random_poly(rng, sig_xy3)
        n = rng.randrange(4)
        lhs = poly_mult(p + q.scale(2), n, p)
        rhs = poly_mult(p, n, p) + poly_mult(q, n, p).scale(2)
        assert lhs == rhs


def test_normalize_idempotent_on_normal_words(sig_xy3):
    rng = random.Random(2)
    for _ in range(200):
        w = random_word(rng, sig_xy3)
        assert normalize(word_expr(w), sig_xy3) == \
            ConformalPolynomial.monomial(sig_xy3, w)


def test_length_preservation(sig_xy3):
    rng = random.Random(3)
    for _ in range(200):
        u = random_word(rng, sig_xy3)
        v = random_word(rng, sig_xy3)
        p = mult(sig_xy3, u, rng.randrange(6), v)
        for w in p.terms:
            assert w.length == u.length + v.length


def test_negative_index_rejected(sig_a2):
    with pytest.raises(ArithmeticError_):
        Prod(-1, Gen(gen("a")), Gen(gen("a")))


def _random_tree(rng, sig, depth):
    from fractions import Fraction
    from conformal import Deriv, Gen, LinComb, Prod
    if depth == 0 or rng.random() < 0.3:
        return Gen(rng.choice(sig.generators))
    kind = rng.randrange(3)
    if kind == 0:
        return Deriv(_random_tree(rng, sig, depth - 1), rng.randint(1, 2))
    if kind == 1:
        return Prod(rng.randrange(sig.N + 2),
                    _random_tree(rng, sig, depth - 1),
                    _random_tree(rng, sig, depth - 1))
    parts = [(Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])),
              _random_tree(rng, sig, depth - 1))
             for _ in range(rng.randint(1, 2))]
    return LinComb(parts)


def test_random_tree_round_trip(sig_xy3):
    # normalizing, re-expanding every normal word as a tree, and
    # normalizing again is the identity
    import random
    from fractions import Fraction
    from conformal import LinComb
    rng = random.Random(9)
    for _ in range(150):
        tree = _random_tree(rng, sig_xy3, 3)
        p = normalize(tree, sig_xy3)
        rebuilt = LinComb([(Fraction(c), word_expr(w))
                           for w, c in p.terms.items()])
        assert normalize(rebuilt, sig_xy3) == p


def test_random_tree_linearity(sig_xy3):
    import random
    from fractions import Fraction
    from conformal import LinComb
    rng = random.Random(10)
    for _ in range(100):
        t1 = _random_tree(rng, sig_xy3, 2)
        t2 = _random_tree(rng, sig_xy3, 2)
        a, b = Fraction(3, 2), Fraction(-2, 5)
        combined = normalize(LinComb([(a, t1), (b, t2)]), sig_xy3)
        split = normalize(t1, sig_xy3).scale(a) + normalize(t2, sig_xy3).scale(b)
        assert combined == split


@settings(max_examples=80, deadline=None)
@given(a2_rational_polys, a2_rational_polys, st.integers(0, 2),
       st.sampled_from([-2, Fraction(1, 3), 3]), st.booleans())
def test_cached_lead_and_key_match_a_fresh_computation(p, q, n, c, warm):
    # polynomials are immutable, so the lead and key kept on first use must
    # equal a computation from scratch after every operation
    wkey = SIG_A2.word_key
    if warm:
        for r in (p, q):
            r.leading(), r.canonical_key(), hash(r)
    results = [p + q, p - q, p.scale(c), poly_mult(p, n, q), apply_D(p, n)]
    results += [r.monic() for r in results if r]
    for r in results:
        lead = max(r.terms, key=wkey) if r.terms else None
        key = tuple((wkey(w), cw) for w, cw in
                    sorted(r.terms.items(), key=lambda t: wkey(t[0]),
                           reverse=True))
        fresh = ConformalPolynomial(SIG_A2, dict(r.terms))
        for _ in range(2):  # the first call fills the cache, the next reads it
            assert r.leading() == fresh.leading() == lead
            assert r.canonical_key() == fresh.canonical_key() == key
            assert hash(r) == hash(fresh) == hash(key) and r == fresh
