"""Completion, minimal bases, reduced bases."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conformal import (CompletionLimits, RelationSet, check_gsb_rset,
                       complete, minimalize, parse_poly, reduce_basis,
                       reduce_poly)
from conftest import SIG_A2, a2_presentations, within_budget


F = "a (1) a - a (0) D a"
CUBE = "a (0) a (0) a"


def test_completion_of_single_relation(sig_a2):
    res = complete([parse_poly(F, sig_a2)], sig_a2, sig_a2.generators)
    assert res.completed
    assert res.basis == [parse_poly(F, sig_a2), parse_poly(CUBE, sig_a2)]
    assert check_gsb_rset(RelationSet(sig_a2, res.basis),
                          sig_a2.generators).is_gsb


def test_completion_fixpoint(sig_a2):
    basis = [parse_poly(F, sig_a2), parse_poly(CUBE, sig_a2)]
    res = complete(basis, sig_a2, sig_a2.generators)
    assert res.completed and res.added == 0
    assert res.basis == basis


def test_completion_empty_input(sig_a2):
    res = complete([], sig_a2, sig_a2.generators)
    assert res.completed and res.basis == []


def test_completion_monicizes_and_dedups(sig_a2):
    polys = [parse_poly(F, sig_a2).scale(Fraction(-3, 7)),
             parse_poly(F, sig_a2).scale(2)]
    res = complete(polys, sig_a2, sig_a2.generators)
    assert res.basis == [parse_poly(F, sig_a2), parse_poly(CUBE, sig_a2)]


def test_completion_limit_reports_partial(sig_a2):
    res = complete([parse_poly(F, sig_a2)], sig_a2, sig_a2.generators,
                   limits=CompletionLimits(max_rounds=1))
    assert not res.completed
    assert res.diagnostic and "round" in res.diagnostic


def test_minimalize_five_element_basis(sig_a2):
    five = [parse_poly(t, sig_a2) for t in
            [F, CUBE, "a (0) a (1) a", "a (1) a (0) a", "a (1) a (1) a"]]
    assert minimalize(five, sig_a2) == \
        [parse_poly(F, sig_a2), parse_poly(CUBE, sig_a2)]


def test_minimalize_keeps_reduced_basis(sig_a2):
    basis = [parse_poly(F, sig_a2), parse_poly(CUBE, sig_a2)]
    assert minimalize(basis, sig_a2) == basis
    single = [parse_poly("a (1) a", sig_a2)]
    assert minimalize(single, sig_a2) == single


def test_reduce_basis_on_five_element(sig_a2):
    five = [parse_poly(t, sig_a2) for t in
            [F, CUBE, "a (0) a (1) a", "a (1) a (0) a", "a (1) a (1) a"]]
    red = reduce_basis(five, sig_a2)
    assert red == [parse_poly(F, sig_a2), parse_poly(CUBE, sig_a2)]
    assert reduce_basis(red, sig_a2) == red


def test_reduce_basis_tail_reduction(sig_a2):
    # a tail that is reducible against the other member gets rewritten
    messy = [parse_poly(F, sig_a2),
             parse_poly(CUBE + " + " + F, sig_a2)]
    red = reduce_basis(messy, sig_a2)
    assert red == [parse_poly(F, sig_a2), parse_poly(CUBE, sig_a2)]
    for p in red:
        rset = RelationSet(sig_a2, [q for q in red if q != p])
        for w in p.terms:
            if w != p.leading():
                assert not rset.has_reduction(w)


def test_reduce_basis_invariance(sig_a2):
    rng = random.Random(31)
    base = [parse_poly(F, sig_a2), parse_poly(CUBE, sig_a2)]
    reference = reduce_basis(base, sig_a2)
    for _ in range(20):
        shuffled = list(base)
        rng.shuffle(shuffled)
        scaled = [p.scale(Fraction(rng.choice([-5, -2, -1, 1, 2, 3, 7]),
                                   rng.choice([1, 2, 3])))
                  for p in shuffled]
        assert reduce_basis(scaled, sig_a2) == reference


def test_completed_ideal_membership(sig_a2):
    # anything built from the relations reduces to zero after completion
    rng = random.Random(32)
    res = complete([parse_poly(F, sig_a2)], sig_a2, sig_a2.generators)
    rset = RelationSet(sig_a2, res.basis)
    f = parse_poly(F, sig_a2)
    from conformal import apply_D, poly_mult
    from conftest import random_poly
    for _ in range(50):
        member = apply_D(f, rng.randint(0, 2))
        mixer = random_poly(rng, sig_a2, max_terms=2, max_len=2)
        member = poly_mult(mixer, rng.randint(0, 2), member)
        assert reduce_poly(member, rset).remainder.is_zero()


def test_completion_with_d_leading_relation(sig_a2):
    # the leading word carries a D, so right multiplications with n < N
    # participate; completion still reaches a finite reduced basis
    g = parse_poly("a (0) D a - a (0) a", sig_a2)
    res = complete([g], sig_a2, sig_a2.generators)
    assert res.completed
    expected = [g] + [parse_poly(t, sig_a2) for t in
                      ["a (0) a (0) a", "a (0) a (1) a",
                       "a (1) a (0) a", "a (1) a (1) a"]]
    assert res.basis == expected
    assert check_gsb_rset(RelationSet(sig_a2, res.basis),
                          sig_a2.generators).is_gsb
    rset = RelationSet(sig_a2, res.basis)
    assert rset.has_reduction(parse_poly("a (0) D^3 a", sig_a2).leading())
    assert not rset.has_reduction(parse_poly("a (1) D^3 a", sig_a2).leading())


def test_completion_lead_length_limit(sig_a2):
    res = complete([parse_poly(F, sig_a2)], sig_a2, sig_a2.generators,
                   limits=CompletionLimits(max_lead_length=2))
    assert not res.completed
    assert "length limit" in res.diagnostic
    # the partial basis is still returned
    assert parse_poly(F, sig_a2) in res.basis


def test_reduce_basis_tolerates_non_basis_input(sig_a2):
    # the contract assumes a verified basis, but arbitrary monic input
    # must not crash and must keep every surviving leading word
    single = [parse_poly(F, sig_a2)]
    out = reduce_basis(single, sig_a2)
    assert out == single


FUZZ_LIMITS = CompletionLimits(max_rounds=4, max_basis=40, max_lead_length=4)
nonzero_rationals = st.builds(Fraction, st.sampled_from([-5, -2, -1, 1, 3]),
                              st.integers(1, 4))


def complete_a2(polys):
    return complete(polys, SIG_A2, SIG_A2.generators, limits=FUZZ_LIMITS)


@settings(max_examples=30, deadline=None)
@given(a2_presentations, st.randoms(use_true_random=False),
       st.lists(nonzero_rationals, min_size=4, max_size=4))
def test_completion_invariant_under_permutation_and_scaling(ps, rng, scales):
    shuffled = list(ps)
    rng.shuffle(shuffled)
    scaled = [p.scale(c) for p, c in zip(shuffled, scales)]
    res, again = within_budget(lambda: (complete_a2(ps), complete_a2(scaled)))
    assert again.basis == res.basis
    assert (again.completed, again.diagnostic) == (res.completed,
                                                   res.diagnostic)


@settings(max_examples=30, deadline=None)
@given(a2_presentations, nonzero_rationals)
def test_completed_basis_is_the_unique_fixpoint(ps, c):
    res = within_budget(lambda: complete_a2(ps))
    if not res.completed:
        return
    # idempotent: the reduced basis completes to itself with nothing added
    again = within_budget(lambda: complete_a2(res.basis))
    assert again.completed and again.added == 0
    assert again.basis == res.basis
    # a redundant generator of the same ideal changes nothing
    extra = within_budget(lambda: complete_a2(ps + [ps[0] + ps[-1].scale(c)]))
    if extra.completed:
        assert extra.basis == res.basis
