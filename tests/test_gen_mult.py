"""The generator product interpolates  g (n) [b (m) v1]  from n < N.

``_gen_mult`` takes the product at n >= N as the polynomial of degree < N
in n through its N normal values; ``props.ref_gen_mult`` still recurses in
n through the associativity sum, and the two must agree.
"""

import random
from math import comb

from conformal import (AlgebraSignature, NormalWord, locality_bound,
                       make_word, mult)
from conformal.algebra import _gen_mult, _lagrange_weights
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
        g, v = sig.generators[0], random_word(rng, sig)
        assert _gen_mult(sig, g, N - 1, v) is not _gen_mult(sig, g, N - 1, v)
