"""Acceptance suite: one test per criterion, one visible verdict line each.

Everything here is exact arithmetic; there are no numerical tolerances.
Run with ``pytest tests/test_acceptance.py -v`` (verdict lines bypass
capture so they are always visible).
"""

import random
import time
from fractions import Fraction

import props
from conformal import (AlgebraSignature, ConformalPolynomial, IndexWindow,
                       RelationSet, builtin_example, compare_words,
                       complete, embedding_check, equivalence_check,
                       eval_pattern, gen, irr_enumerate, locality_bound,
                       minimalize, parse_poly, parse_word, reduce_basis,
                       reduce_poly)
from conformal.envelope import comp_window_filter
from conformal.gsb import check_gsb_rset
from conformal.rewriting import normal_words


def _verdict(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    from conftest import ACCEPTANCE_LINES
    ACCEPTANCE_LINES.append(line)
    assert ok, line


F_TEXT = "a (1) a - a (0) D a"
CUBE_TEXT = "a (0) a (0) a"


def test_criterion_1_completion_of_running_example(sig_a2):
    t0 = time.monotonic()
    f = parse_poly(F_TEXT, sig_a2)
    res = complete([f], sig_a2, sig_a2.generators)
    expected = [parse_poly(F_TEXT, sig_a2), parse_poly(CUBE_TEXT, sig_a2)]
    ok = res.completed and res.basis == expected
    ok = ok and check_gsb_rset(RelationSet(sig_a2, res.basis),
                               sig_a2.generators).is_gsb
    ok = ok and reduce_basis(res.basis, sig_a2) == expected
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _verdict("1 completion of the one-generator example", ok,
             f"{elapsed:.2f}s")


def test_criterion_2_non_monotonicity(sig_a1):
    left = parse_poly("(a (0) D a) (0) a", sig_a1)
    right = parse_poly("a (0) (a (0) a)", sig_a1)
    u = parse_word("a (0) D a", sig_a1)
    v = parse_word("a (0) a", sig_a1)
    ok = left.is_zero() and not right.is_zero()
    ok = ok and right == ConformalPolynomial.monomial(
        sig_a1, parse_word("a (0) a (0) a", sig_a1))
    ok = ok and compare_words(sig_a1, u, v) == 1
    _verdict("2 order incompatible with products", ok)


def test_criterion_3_minimalization(sig_a2):
    five = [parse_poly(t, sig_a2) for t in
            [F_TEXT, CUBE_TEXT, "a (0) a (1) a", "a (1) a (0) a",
             "a (1) a (1) a"]]
    expected = [parse_poly(F_TEXT, sig_a2), parse_poly(CUBE_TEXT, sig_a2)]
    ok = minimalize(five, sig_a2) == expected
    ok = ok and reduce_basis(five, sig_a2) == expected
    _verdict("3 five-element basis minimalizes to two", ok)


def test_criterion_4_loop_virasoro():
    t0 = time.monotonic()
    ex = builtin_example("virasoro", IndexWindow(W=3, M=3))
    eq = equivalence_check(ex)
    a_ok = eq.ok and eq.completion.completed

    rset = ex.basis_rset()
    rep = check_gsb_rset(rset, ex.gens(),
                         comp_filter=comp_window_filter(3))
    b_ok = rep.is_gsb and rep.tally["inconclusive"] == 0

    irr = irr_enumerate(rset, ex.sig.family_generators(3), 3, 2)
    expected = ex.irr_expected(3, 3, 2)
    c_ok = len(irr) == 63 and set(irr) == set(expected)

    emb = embedding_check(rset, ex.gens(), 2)
    d_ok = emb.embedded and not emb.inconclusive
    elapsed = time.monotonic() - t0
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 60.0
    _verdict("4 loop Virasoro window protocol", ok,
             f"equality={a_ok} basis={b_ok} irr63={c_ok} embedded={d_ok} "
             f"{elapsed:.1f}s")


def test_criterion_5_loop_heisenberg_virasoro():
    t0 = time.monotonic()
    ex = builtin_example("heisenberg-virasoro", IndexWindow(W=2, M=4))
    eq = equivalence_check(ex)
    a_ok = eq.ok and eq.completion.completed

    rset = ex.basis_rset()
    rep = check_gsb_rset(rset, ex.gens(),
                         comp_filter=comp_window_filter(2))
    b_ok = rep.is_gsb and rep.tally["inconclusive"] == 0

    irr = set(irr_enumerate(rset, ex.sig.family_generators(2), 3, 2))
    c_ok = irr == set(ex.irr_expected(2, 3, 2))
    H, L = (lambda i: gen("H", i)), (lambda i: gen("L", i))
    from conformal import NormalWord
    for t in range(3):
        for i in range(-2, 3):
            c_ok = c_ok and NormalWord(((H(0), 0),), H(i), t) in irr
            c_ok = c_ok and NormalWord(((H(-1), 0),), L(i), t) in irr
            c_ok = c_ok and NormalWord((), H(i), t) in irr

    emb = embedding_check(rset, ex.gens(), 2)
    d_ok = emb.embedded and not emb.inconclusive
    elapsed = time.monotonic() - t0
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 300.0
    _verdict("5 loop Heisenberg-Virasoro window protocol", ok,
             f"equality={a_ok} basis={b_ok} irr={c_ok} embedded={d_ok} "
             f"{elapsed:.1f}s")


def test_criterion_6_identity_suites():
    t0 = time.monotonic()
    total = props.run_all(cases_per_check=1000)
    elapsed = time.monotonic() - t0
    ok = total >= 10_000
    _verdict("6 randomized identity suites", ok,
             f"{total} cases, {elapsed:.1f}s")


def test_criterion_7_confluence(sig_a2):
    rng = random.Random(71)
    cases = 0
    res = complete([parse_poly(F_TEXT, sig_a2)], sig_a2, sig_a2.generators)
    left_rset = RelationSet(sig_a2, res.basis)
    right_rset = RelationSet(sig_a2, res.basis)
    from conftest import random_poly
    for _ in range(700):
        p = random_poly(rng, sig_a2, max_terms=4, max_len=4)
        assert reduce_poly(p, left_rset).remainder == \
            props.rightmost_reduce(p, right_rset)
        cases += 1
    ex = builtin_example("virasoro", IndexWindow(W=2, M=3))
    lr, rr = ex.basis_rset(), ex.basis_rset()
    gens = ex.sig.family_generators(2)
    from conformal import NormalWord
    for _ in range(400):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            body = tuple((rng.choice(gens), rng.randrange(2))
                         for _ in range(rng.randint(0, 2)))
            w = NormalWord(body, rng.choice(gens), rng.randint(0, 2))
            terms[w] = terms.get(w, 0) + rng.choice([-2, -1, 1, 2])
        p = ConformalPolynomial(ex.sig, terms)
        assert reduce_poly(p, lr).remainder == props.rightmost_reduce(p, rr)
        cases += 1
    _verdict("7 reduction strategy confluence", cases >= 1000,
             f"{cases} polynomials")


def test_criterion_8_theorem_level_checks(sig_a2):
    rng = random.Random(81)
    res = complete([parse_poly(F_TEXT, sig_a2)], sig_a2, sig_a2.generators)
    rset = RelationSet(sig_a2, res.basis)
    rels = rset.relations()

    ideal_ok = 0
    for _ in range(1000):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            ev = eval_pattern(props.random_s_word(rng, sig_a2, rels))
            c = rng.choice([-2, -1, 1, 2, 3])
            for w, cw in ev.items():
                terms[w] = terms.get(w, 0) + c * cw
        member = ConformalPolynomial(sig_a2, terms)
        assert reduce_poly(member, rset).remainder.is_zero()
        ideal_ok += 1

    irr_words = irr_enumerate(rset, sig_a2.generators, 4, 2)
    indep_ok = 0
    for _ in range(1000):
        picks = rng.sample(irr_words, k=rng.randint(1, 3))
        combo = ConformalPolynomial(
            sig_a2, {w: Fraction(rng.choice([-3, -1, 1, 2])) for w in picks})
        trace = reduce_poly(combo, rset)
        assert trace.remainder == combo and not trace.remainder.is_zero()
        indep_ok += 1

    reference = reduce_basis(res.basis, sig_a2)
    invariance_ok = True
    for _ in range(25):
        shuffled = list(res.basis)
        rng.shuffle(shuffled)
        scaled = [p.scale(Fraction(rng.choice([-4, -1, 2, 3, 5]),
                                   rng.choice([1, 2, 7]))) for p in shuffled]
        invariance_ok = invariance_ok and \
            reduce_basis(scaled, sig_a2) == reference
    ok = ideal_ok >= 1000 and indep_ok >= 1000 and invariance_ok
    _verdict("8 ideal membership and independence at scale", ok,
             f"{ideal_ok} members, {indep_ok} combinations")


def test_criterion_9_locality_bound_sweep():
    t0 = time.monotonic()
    checked = 0
    violations = []
    # _word_mult skips what the bound says vanishes, so the reference
    # kernels, which compute it, are swept too and must agree with it
    for N in (1, 2, 3):
        sig = AlgebraSignature.finite(["x", "y"], N)
        words = list(normal_words(sig, sig.generators, 3, 2))
        memo: dict = {}
        for u in words:
            for v in words:
                M = locality_bound(sig, u, v)
                for n in range(M, M + 11):
                    if (props.word_product(sig, u, n, v)
                            or props.ref_word_mult(sig, u, n, v, memo)):
                        violations.append((u, n, v))
                checked += 1
    elapsed = time.monotonic() - t0
    ok = not violations and checked == 42 ** 2 + 126 ** 2 + 258 ** 2
    _verdict("9 vanishing bound exhaustive sweep", ok,
             f"{checked} pairs, {elapsed:.1f}s")
