"""The product kernels against the reference kernels of ``props``.

``_gen_mult`` takes  g (n) [b (m) v1]  at n >= N as the polynomial of
degree < N in n through its N normal values, and  g (n) D^i b  in closed
form; ``props.ref_gen_mult`` still recurses in n and in i, and the two must
agree.  ``_word_mult`` and ``_word_D`` add into the caller's dict.
"""

import random
from fractions import Fraction
from math import comb

from conformal import (AlgebraSignature, NormalWord, locality_bound,
                       make_word, mult)
from conformal.algebra import (_gen_mult, _lagrange_weights, _scaled, _word_D,
                               _word_mult)
from conformal.rewriting import normal_words
from conftest import random_word
import props


def unrolled_recurrence(N: int, count: int) -> list:
    """For n < count, the coefficients of f(0) ... f(N-1) in f(n), where
    f(n) = -sum_{k=1}^{n} (-1)^k C(n, k) f(n-k) for n >= N."""
    rows = [tuple(int(i == j) for i in range(N)) for j in range(N)]
    for n in range(N, count):
        rows.append(tuple(
            -sum((-1) ** k * comb(n, k) * rows[n - k][i]
                 for k in range(1, n + 1))
            for i in range(N)))
    return rows


def test_weights_unroll_the_recurrence():
    for N in range(1, 7):
        rows = unrolled_recurrence(N, N + 16)
        for n in range(N, N + 16):
            assert _lagrange_weights(N, n) == rows[n], (N, n)


def test_gen_mult_matches_reference_at_every_index():
    # four words of each body length 0-4 per N, and n up to the bound + 1
    rng = random.Random(29)
    for N in range(1, 6):
        sig = AlgebraSignature.finite(["x", "y"], N)
        memo: dict = {}
        for body in [0, 1, 2, 3, 4] * 4:
            g, v = rng.choice(sig.generators), NormalWord(
                [(rng.choice(sig.generators), rng.randrange(N))
                 for _ in range(body)],
                rng.choice(sig.generators), rng.randint(0, 2))
            bound = locality_bound(sig, make_word(sig, g), v)
            for n in range(bound + 2):
                got = _gen_mult(sig, g, n, v)
                assert (props._sorted(sig, got)
                        == props._sorted(sig, props.ref_gen_mult(
                            sig, g, n, v, memo))), (N, g, n, v)
                if n >= bound:
                    assert got == {}, (N, g, n, v)


def test_d_power_closed_form_matches_reference():
    # g (n) D^i b for n from N past the bound N + i, also with n < i
    for N in range(1, 6):
        sig = AlgebraSignature.finite(["x", "y"], N)
        memo: dict = {}
        for g in sig.generators:
            for b in sig.generators:
                for i in range(9):
                    v = make_word(sig, b, dpow=i)
                    for n in range(N, N + i + 3):
                        got = _gen_mult(sig, g, n, v)
                        assert (props._sorted(sig, got)
                                == props._sorted(sig, props.ref_gen_mult(
                                    sig, g, n, v, memo))), (N, g, n, v)
                        assert bool(got) == (n < N + i), (N, n, i)


def test_locality_bound_is_exact_for_generators():
    # the reference kernel, which skips nothing, vanishes at the bound and
    # not one index below it
    cases = 0
    for N in range(1, 6):
        sig = AlgebraSignature.finite(["x", "y"], N)
        memo: dict = {}
        for v in normal_words(sig, sig.generators, 3, 4):
            for g in sig.generators:
                bound = locality_bound(sig, make_word(sig, g), v)
                assert props.ref_gen_mult(sig, g, bound, v, memo) == {}
                assert props.ref_gen_mult(sig, g, bound - 1, v, memo)
                cases += 1
    assert cases == 5100


def test_kernels_add_into_the_callers_dict():
    sig = AlgebraSignature.finite(["x", "y"], 3)
    x, y = sig.generators
    u = make_word(sig, x, 2, y, dpow=1)
    v = make_word(sig, y, 1, x)
    for n in range(locality_bound(sig, u, v)):
        product = props.word_product(sig, u, n, v)
        assert product
        dst = {w: -c for w, c in product.items()}
        _word_mult(sig, u, n, v, dst, 1)
        assert dst == {}
        # half the product twice: coefficients that end integral are ints
        dst = {}
        _word_mult(sig, u, n, v, dst, Fraction(1, 2))
        assert props._listed(dst) == props._listed(
            _scaled(product, Fraction(1, 2)))
        _word_mult(sig, u, n, v, dst, Fraction(1, 2))
        assert props._listed(dst) == props._listed(product)
    derivative = props.word_derivative(sig, u)
    dst = {w: -c for w, c in derivative.items()}
    _word_D(sig, u, dst, 1)
    assert dst == {}
    dst = {}
    _word_D(sig, u, dst, Fraction(1, 2))
    _word_D(sig, u, dst, Fraction(1, 2))
    assert props._listed(dst) == props._listed(derivative)
    dst = {}
    _word_D(sig, u, dst, Fraction(4, 2))
    assert props._listed(dst) == props._listed(
        props.word_derivative(sig, u, 2))


def test_memo_holds_only_products_at_or_past_n():
    rng = random.Random(30)
    for N in (1, 2, 3):
        sig = AlgebraSignature.finite(["x", "y", "z"], N)
        for _ in range(60):
            u = random_word(rng, sig, max_len=3, max_dpow=2)
            v = random_word(rng, sig, max_len=3, max_dpow=2)
            mult(sig, u, rng.randint(0, locality_bound(sig, u, v)), v)
        assert sig._gm_cache
        assert all(n >= N for _, n, _ in sig._gm_cache), N
        assert all(sig._gm_cache.values()), N
        g, v = sig.generators[0], random_word(rng, sig)
        assert _gen_mult(sig, g, N - 1, v) is not _gen_mult(sig, g, N - 1, v)
