"""Stored coefficients: an ``int`` exactly when integral, else a ``Fraction``.

The stored form is an implementation detail: ``Fraction(3) == 3`` and the
two hash alike, so keys, equality and printing must not depend on it.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conformal import (ConformalPolynomial, RelationSet, apply_D, poly_mult,
                       reduce_poly)
from conftest import SIG_A2, a2_rational_coeffs, a2_rational_polys, a2_words
from props import reconstruct


def assert_stored(coeffs):
    for c in coeffs:
        assert c != 0
        if Fraction(c).denominator == 1:
            assert type(c) is int, repr(c)
        else:
            assert type(c) is Fraction, repr(c)


@settings(max_examples=60, deadline=None)
@given(a2_rational_polys, a2_rational_polys, a2_rational_coeffs,
       st.integers(0, SIG_A2.N))
def test_every_operation_stores_integral_coefficients_as_int(p, q, c, n):
    results = [p, q, p + q, p - q, -p, p.scale(c), p.monic(),
               poly_mult(p, n, q), apply_D(p), apply_D(q, 2)]
    trace = reduce_poly(p, RelationSet(SIG_A2, [q.monic()]))
    results.append(trace.remainder)
    for r in results:
        assert_stored(r.terms.values())
    assert_stored(step.coeff for step in trace.steps)
    assert reconstruct(trace) == p


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(a2_words, st.integers(-3, 3).filter(bool),
                       min_size=1, max_size=3),
       a2_rational_coeffs)
def test_keys_do_not_depend_on_the_stored_form(terms, c):
    as_int = ConformalPolynomial(SIG_A2, terms)
    # stored as Fractions on purpose, bypassing the normalizer
    as_frac = ConformalPolynomial(
        SIG_A2, {w: Fraction(v) for w, v in terms.items()}, _frozen=True)
    assert as_int == as_frac
    assert as_int.canonical_key() == as_frac.canonical_key()
    assert hash(as_int) == hash(as_frac)
    assert repr(as_int) == repr(as_frac)
    # scaling either form gives the same polynomial
    assert as_frac.scale(c) == as_int.scale(c)
    assert hash(as_frac.scale(c)) == hash(as_int.scale(c))
