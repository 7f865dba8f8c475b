import random
import signal
from fractions import Fraction

import pytest
from hypothesis import reject, strategies as st

from conformal import AlgebraSignature, ConformalPolynomial, NormalWord

# props.py is a shared helper, not a test module: pytest rewrites its asserts
# only when told to, and only rewritten asserts survive python -O
pytest.register_assert_rewrite("props")

# verdict lines recorded by the acceptance tests, echoed in the summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def sig_a1():
    """One generator, locality 1."""
    return AlgebraSignature.finite(["a"], 1)


@pytest.fixture
def sig_a2():
    """One generator, locality 2 (the running single-generator example)."""
    return AlgebraSignature.finite(["a"], 2)


@pytest.fixture
def sig_xy3():
    return AlgebraSignature.finite(["x", "y"], 3)


def random_word(rng: random.Random, sig, max_len=3, max_dpow=2) -> NormalWord:
    gens = sig.generators
    length = rng.randint(1, max_len)
    body = tuple((rng.choice(gens), rng.randrange(sig.N))
                 for _ in range(length - 1))
    return NormalWord(body, rng.choice(gens), rng.randint(0, max_dpow))


def random_poly(rng: random.Random, sig, max_terms=3, **kw):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.choice([-2, -1, 1, 2, 3])
        w = random_word(rng, sig, **kw)
        terms[w] = terms.get(w, 0) + c
    return ConformalPolynomial(sig, terms)


# hypothesis strategies over sig_a2; a strategy needs its signature when it
# is defined, so this one is shared rather than built per test
SIG_A2 = AlgebraSignature.finite(["a"], 2)
_a = SIG_A2.generators[0]
a2_words = st.builds(
    lambda body, d: NormalWord(tuple((_a, n) for n in body), _a, d),
    st.lists(st.integers(0, SIG_A2.N - 1), max_size=2), st.integers(0, 2))
a2_polys = st.dictionaries(a2_words, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                           min_size=1, max_size=3).map(
    lambda terms: ConformalPolynomial(SIG_A2, terms))
# the same with rational coefficients, some of them integral Fractions, so
# that the non-integer arithmetic and the int normalization are exercised
a2_rational_coeffs = st.sampled_from(
    [-3, Fraction(-1, 2), 1, Fraction(2, 3), Fraction(3)])
a2_rational_polys = st.dictionaries(a2_words, a2_rational_coeffs,
                                    min_size=1, max_size=3).map(
    lambda terms: ConformalPolynomial(SIG_A2, terms))
# small presentations: 1 to 4 polynomials, words of length <= 3, D^<=2
a2_presentations = st.lists(a2_polys, min_size=1, max_size=4)


class OverBudget(Exception):
    """Raised by ``within_budget`` when its wall-clock budget runs out."""


def within_budget(fn, seconds=2.0):
    """Return ``fn()``, discarding the hypothesis example if it takes longer.

    Completion limits bound rounds, basis size and leading-word length, not
    work: on some three-term inputs with D^2 words the coefficients swell
    and a single ``complete`` runs for minutes.  Random tests discard those
    inputs rather than wait; the library's caches are written only after a
    value is complete, so an interrupted call leaves them consistent.
    """
    def expire(signum, frame):
        raise OverBudget

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        reject()
    finally:
        signal.signal(signal.SIGALRM, previous)
