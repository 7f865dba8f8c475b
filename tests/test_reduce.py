"""The division algorithm: traces, termination, determinism, irreducibles."""

import random

import pytest

from conformal import (ConformalPolynomial, RelationSet, irr_enumerate,
                       kd_basis, make_word, gen, parse_poly, parse_word,
                       reduce_poly)
from conformal.rewriting import RelationError
from conftest import random_poly
from props import all_occurrences, reconstruct


def test_self_reduction_is_zero(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    trace = reduce_poly(f, RelationSet(sig_a2, [f]))
    assert trace.remainder.is_zero()
    assert len(trace.steps) == 1


def test_single_forced_step(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    trace = reduce_poly(parse_poly("a (1) a", sig_a2), RelationSet(sig_a2, [f]))
    assert trace.remainder == parse_poly("a (0) D a", sig_a2)


def test_irreducible_input_is_its_own_remainder(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    rset = RelationSet(sig_a2, [f])
    p = parse_poly("a (0) a (0) a + 2 * a (0) a", sig_a2)
    trace = reduce_poly(p, rset)
    assert trace.remainder == p and not trace.steps


def test_trace_soundness_random(sig_a2):
    rng = random.Random(21)
    rels = [parse_poly("a (1) a - a (0) D a", sig_a2),
            parse_poly("a (0) a (0) a", sig_a2)]
    rset = RelationSet(sig_a2, rels)
    for _ in range(300):
        p = random_poly(rng, sig_a2, max_terms=4, max_len=4)
        trace = reduce_poly(p, rset)
        assert reconstruct(trace) == p
        # remainder supported on irreducible words, strictly decreasing steps
        for w in trace.remainder.terms:
            assert not rset.has_reduction(w)
        keys = [sig_a2.word_key(st.pattern.word) for st in trace.steps]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)


def test_reduce_idempotent(sig_a2):
    rng = random.Random(22)
    rels = [parse_poly("a (1) a - a (0) D a", sig_a2),
            parse_poly("a (0) a (0) a", sig_a2)]
    rset = RelationSet(sig_a2, rels)
    for _ in range(200):
        p = random_poly(rng, sig_a2, max_terms=4, max_len=4)
        r = reduce_poly(p, rset).remainder
        again = reduce_poly(r, rset)
        assert again.remainder == r and not again.steps


def test_non_monic_relation_rejected(sig_a2):
    with pytest.raises(RelationError):
        RelationSet(sig_a2, [parse_poly("2 * a (1) a", sig_a2)])
    with pytest.raises(RelationError):
        RelationSet(sig_a2, [ConformalPolynomial.zero(sig_a2)])


def test_irr_enumerate_free_algebra(sig_a1):
    rset = RelationSet(sig_a1, [])
    words = irr_enumerate(rset, sig_a1.generators, 2, 1)
    a = gen("a")
    assert words == [make_word(sig_a1, a), make_word(sig_a1, a, dpow=1),
                     make_word(sig_a1, a, 0, a),
                     make_word(sig_a1, a, 0, a, dpow=1)]


def test_irr_enumerate_filters_reducibles(sig_a2):
    rels = [parse_poly("a (1) a - a (0) D a", sig_a2),
            parse_poly("a (0) a (0) a", sig_a2)]
    rset = RelationSet(sig_a2, rels)
    words = irr_enumerate(rset, sig_a2.generators, 3, 1)
    # oracle: filter all candidates through the brute occurrence scan
    from conformal.rewriting import normal_words
    expected = sorted(
        (w for w in normal_words(sig_a2, sig_a2.generators, 3, 1)
         if not all_occurrences(rset, w)), key=sig_a2.word_key)
    assert words == expected
    assert parse_word("a (0) a", sig_a2) in words
    assert parse_word("a (0) D a", sig_a2) in words
    assert parse_word("a (1) a", sig_a2) not in words
    assert parse_word("a (0) a (0) D a", sig_a2) not in words


def test_kd_basis_requires_dfree_leads(sig_a2):
    with pytest.raises(RelationError):
        kd_basis(RelationSet(sig_a2, [parse_poly("a (0) D a", sig_a2)]),
                 sig_a2.generators, 2)
    words = kd_basis(RelationSet(sig_a2, [parse_poly("a (1) a", sig_a2)]),
                     sig_a2.generators, 2)
    a = gen("a")
    assert words == [make_word(sig_a2, a), make_word(sig_a2, a, 0, a)]


def test_kd_basis_empty_relations(sig_a2):
    words = kd_basis(RelationSet(sig_a2, []), sig_a2.generators, 2)
    a = gen("a")
    assert words == [make_word(sig_a2, a), make_word(sig_a2, a, 0, a),
                     make_word(sig_a2, a, 1, a)]


def test_non_cancelling_substitution_raises(sig_a2, monkeypatch):
    # the cancellation check is a raised error, so it also holds under -O
    import conformal.rewriting as rewriting
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    monkeypatch.setattr(rewriting, "eval_pattern", lambda pat: {})
    with pytest.raises(RelationError, match="did not cancel"):
        reduce_poly(parse_poly("a (1) a", sig_a2), RelationSet(sig_a2, [f]))


def test_an_eager_radius_without_a_schema_index_is_an_error(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    with pytest.raises(RelationError, match="schema index"):
        RelationSet(sig_a2, [f], eager_radius=2)
