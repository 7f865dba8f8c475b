"""Randomized identity checks shared by the property and acceptance suites.

Every checker draws its own cases from a seeded generator, asserts the
identity in exact arithmetic, and returns the number of cases it ran.
"""

import operator
import random
from fractions import Fraction
from math import comb, perm

from conformal import (AlgebraSignature, ConformalPolynomial, Deriv, Gen,
                       GeneratorSymbol, LinComb, NormalWord, Prod,
                       RelationSet, apply_D, eval_pattern, locality_bound,
                       mult, normalize, poly_mult, reduce_poly, word_expr)
from conformal.algebra import _accum, _gen_mult, _scaled, _word_D, _word_mult
from conformal.gsb import Composition, _monic_prepare
from conformal.rewriting import Pattern, slices
from conftest import random_word, random_poly


# leading-word bounds of products ---------------------------------------------


def strip_tail_D(w: NormalWord) -> NormalWord:
    """The word with its tail D power dropped."""
    return w.prefix_to(w.length) if w.dpow else w


def splice(sig: AlgebraSignature, u: NormalWord, v: NormalWord) -> NormalWord:
    """Join u (tail D stripped) to v, junctions at and after the seam N-1.

    The result bounds the leading word of any product of u and v: u's
    junctions survive, while v contributes only its letters and tail D
    power, every junction from the seam on being the maximal index N-1.
    """
    nm1 = sig.N - 1
    top = NormalWord([(g, nm1) for g in v.letters()[:-1]], v.tail, v.dpow)
    return _join(strip_tail_D(u), nm1, top)


def word_leq(sig: AlgebraSignature, u, v) -> bool:
    """Order comparison with None as the bottom element (the zero word)."""
    if u is None:
        return True
    if v is None:
        return False
    return sig.word_key(u) <= sig.word_key(v)


def _sigs():
    return [AlgebraSignature.finite(["x", "y"], 1),
            AlgebraSignature.finite(["x", "y"], 2),
            AlgebraSignature.finite(["x", "y", "z"], 3)]


def check_c3(rng: random.Random, cases: int) -> int:
    """Applying D to the left argument shifts the index down."""
    sigs = _sigs()
    for _ in range(cases):
        sig = rng.choice(sigs)
        x = random_word(rng, sig, max_len=2)
        y = random_word(rng, sig, max_len=2)
        n = rng.randrange(0, sig.N + 2)
        lhs = normalize(Prod(n, Deriv(word_expr(x)), word_expr(y)), sig)
        if n == 0:
            assert lhs.is_zero()
        else:
            rhs = mult_polys(sig, x, n - 1, y).scale(-n)
            assert lhs == rhs
    return cases


def mult_polys(sig, x, n, y):
    return mult(sig, x, n, y)


def check_c2(rng: random.Random, cases: int) -> int:
    """Leibniz rule for D over every product."""
    sigs = _sigs()
    for _ in range(cases):
        sig = rng.choice(sigs)
        x = random_word(rng, sig, max_len=2)
        y = random_word(rng, sig, max_len=2)
        n = rng.randrange(0, sig.N + 2)
        lhs = apply_D(mult(sig, x, n, y))
        rhs = normalize(LinComb([
            (Fraction(1), Prod(n, Deriv(word_expr(x)), word_expr(y))),
            (Fraction(1), Prod(n, word_expr(x), Deriv(word_expr(y)))),
        ]), sig)
        assert lhs == rhs
    return cases


def check_locality(rng: random.Random, cases: int) -> int:
    """Generator products vanish from N on; all products vanish from the
    bound.  The engine skips the work past the bound, so the reference
    kernels, which do not, must vanish there too."""
    sigs = _sigs()
    memos = [{} for _ in sigs]
    for _ in range(cases):
        k = rng.randrange(len(sigs))
        sig, memo = sigs[k], memos[k]
        b = rng.choice(sig.generators)
        b2 = rng.choice(sig.generators)
        from conformal import make_word
        n = sig.N + rng.randrange(0, 4)
        bw, b2w = make_word(sig, b), make_word(sig, b2)
        assert mult(sig, bw, n, b2w).is_zero()
        assert ref_word_mult(sig, bw, n, b2w, memo) == {}
        u = random_word(rng, sig)
        v = random_word(rng, sig)
        m = locality_bound(sig, u, v) + rng.randrange(0, 4)
        assert mult(sig, u, m, v).is_zero()
        assert ref_word_mult(sig, u, m, v, memo) == {}
    return cases


def check_assoc(rng: random.Random, cases: int) -> int:
    """(x(n)y)(m)z equals the alternating binomial sum of right products."""
    sigs = _sigs()
    for _ in range(cases):
        sig = rng.choice(sigs)
        x = random_word(rng, sig, max_len=1)
        y = random_word(rng, sig, max_len=1)
        z = random_word(rng, sig, max_len=2)
        n = rng.randrange(0, sig.N + 1)
        m = rng.randrange(0, sig.N + 1)
        lhs = normalize(Prod(m, Prod(n, word_expr(x), word_expr(y)),
                             word_expr(z)), sig)
        rhs = ConformalPolynomial.zero(sig)
        for t in range(n + 1):
            c = Fraction((-1) ** t * comb(n, t))
            rhs = rhs + normalize(
                Prod(n - t, word_expr(x),
                     Prod(m + t, word_expr(y), word_expr(z))), sig).scale(c)
        assert lhs == rhs
    return cases


def check_assoc_inverted(rng: random.Random, cases: int) -> int:
    """The same identity solved for the right-normed product."""
    sigs = _sigs()
    for _ in range(cases):
        sig = rng.choice(sigs)
        x = random_word(rng, sig, max_len=1)
        y = random_word(rng, sig, max_len=1)
        z = random_word(rng, sig, max_len=2)
        n = rng.randrange(0, sig.N + 2)
        m = rng.randrange(0, sig.N + 1)
        lhs = normalize(Prod(n, word_expr(x), Prod(m, word_expr(y),
                                                   word_expr(z))), sig)
        rhs = normalize(Prod(m, Prod(n, word_expr(x), word_expr(y)),
                             word_expr(z)), sig)
        for t in range(1, n + 1):
            c = Fraction(-((-1) ** t) * comb(n, t))
            rhs = rhs + normalize(
                Prod(n - t, word_expr(x),
                     Prod(m + t, word_expr(y), word_expr(z))), sig).scale(c)
        assert lhs == rhs
    return cases


def check_product_bounds(rng: random.Random, cases: int) -> int:
    """Leading words of products never exceed the spliced upper bound."""
    sigs = _sigs()
    for _ in range(cases):
        sig = rng.choice(sigs)
        u = random_word(rng, sig)
        v = random_word(rng, sig)
        n = rng.randrange(0, sig.N + 3)
        p = mult(sig, u, n, v)
        cap = splice(sig, u, v)
        assert word_leq(sig, p.leading(), cap)
        # a D-free left factor with a small index gives the exact leading word
        a = random_word(rng, sig, max_dpow=0)
        k = rng.randrange(0, sig.N)
        q = mult(sig, a, k, v)
        exact = _join(a, k, v)
        assert q.leading() == exact and q.terms[exact] == 1
    return cases


def check_monotone_corollary(rng: random.Random, cases: int) -> int:
    """Strictly D-free-larger left factors give strictly larger products."""
    sigs = _sigs()
    done = 0
    while done < cases:
        sig = rng.choice(sigs)
        u = random_word(rng, sig, max_dpow=0)
        v = random_word(rng, sig)
        if sig.word_key(u) <= sig.word_key(v):
            continue
        w = random_word(rng, sig)
        n = rng.randrange(0, sig.N)
        lead_u = mult(sig, u, n, w).leading()
        lead_v = mult(sig, v, n, w).leading()
        assert lead_u is not None
        assert lead_v is None or sig.word_key(lead_u) > sig.word_key(lead_v)
        done += 1
    return cases


def check_poly_product_bound(rng: random.Random, cases: int) -> int:
    """Polynomial times word stays below the spliced leading-word bound."""
    sigs = _sigs()
    done = 0
    while done < cases:
        sig = rng.choice(sigs)
        f = random_poly(rng, sig)
        if f.is_zero():
            continue
        u = random_word(rng, sig)
        n = rng.randrange(0, sig.N + 2)
        p = poly_mult(f, n, ConformalPolynomial.monomial(sig, u))
        cap = splice(sig, strip_tail_D(f.leading()), u)
        assert word_leq(sig, p.leading(), cap)
        done += 1
    return cases


def _random_relation_set(rng, sig, count=2):
    rels = []
    while len(rels) < count:
        p = random_poly(rng, sig, max_terms=3, max_len=2)
        if p.is_zero():
            continue
        p = p.monic()
        if p.leading().length >= 2:
            rels.append(p)
    try:
        return RelationSet(sig, rels)
    except Exception:
        return _random_relation_set(rng, sig, count)


def _join(u: NormalWord, n: int, v: NormalWord) -> NormalWord:
    """The word u (n) v of a D-free u."""
    return NormalWord(zip(u.letters() + v.letters()[:-1],
                          u.junctions() + (n,) + v.junctions()),
                      v.tail, v.dpow)


def s_word(rel, a=None, n=None, m=None, c=None, i=0) -> Pattern:
    """The normal S-word a (n) s (m) c, or a (n) s D^i when c is None, of
    rel's lead s, spelled by joining its parts (a None: no prefix)."""
    w = rel.lead.append_D(i) if c is None else _join(rel.lead, m, c)
    if a is None:
        return Pattern(rel, w, 0)
    return Pattern(rel, _join(a, n, w), a.length)


def random_s_word(rng: random.Random, sig, rels) -> Pattern:
    """A random normal S-word of one of rels: an interior one (only for a
    D-free lead) or a suffix one, with or without a prefix."""
    rel = rng.choice(rels)
    a = rng.choice([None, random_word(rng, sig, max_len=2, max_dpow=0)])
    n = rng.randrange(sig.N) if a is not None else None
    if rel.lead.is_dfree and rng.random() < 0.5:
        return s_word(rel, a, n, m=rng.randrange(sig.N),
                      c=random_word(rng, sig, max_len=2))
    return s_word(rel, a, n, i=rng.randrange(3))


# occurrences and division, independent of the indexed search -----------------


def all_occurrences(rset: RelationSet, w: NormalWord):
    """Every pattern with leading word w over the live relations, by a
    brute scan of each lead at each letter, in slice walk order (start
    letter, then lead length) and by canonical form within a slice.  On a
    lazy set every slice of w is materialized first."""
    if rset.lazy is not None:
        for _, sub, _ in slices(w, rset._length_set()):
            rset._materialize(sub)
    found = []
    letters, juncs = w.letters(), w.junctions()
    for rel in rset.relations():
        s = rel.lead
        L = s.length
        if L > w.length:
            continue
        sl, sj = s.letters(), tuple(s.junctions())
        for p in range(w.length - L + 1):
            if letters[p:p + L] != sl or juncs[p:p + L - 1] != sj:
                continue
            if s.dpow == 0 if p + L < w.length else w.dpow >= s.dpow:
                found.append(Pattern(rel, w, p))
    found.sort(key=lambda pat: (pat.start, pat.relation.lead.length,
                                pat.relation.canon))
    return found


def rightmost_reduce(p: ConformalPolynomial,
                     rset: RelationSet) -> ConformalPolynomial:
    """The remainder of p when each leading word is divided by its last
    occurrence, where ``reduce_poly`` takes the first."""
    sig = p.sig
    remainder = {}
    while not p.is_zero():
        w = p.leading()
        pats = all_occurrences(rset, w)
        c = p.terms[w]
        if not pats:
            remainder[w] = c
            p = p - ConformalPolynomial.monomial(sig, w, c)
            continue
        p = p - ConformalPolynomial(sig, dict(eval_pattern(pats[-1]))).scale(c)
        assert w not in p.terms
    return ConformalPolynomial(sig, remainder)


def reconstruct(trace) -> ConformalPolynomial:
    """The remainder plus every eliminated part: the input of the division
    that left the trace, exactly."""
    total = dict(trace.remainder.terms)
    for st in trace.steps:
        for w, c in eval_pattern(st.pattern).items():
            total[w] = total.get(w, 0) + st.coeff * c
    return ConformalPolynomial(trace.remainder.sig, total)


def check_pattern_leading_law(rng: random.Random, cases: int) -> int:
    """Every S-word evaluates with its word on top, coefficient 1."""
    sigs = _sigs()
    for _ in range(cases):
        sig = rng.choice(sigs)
        rels = _random_relation_set(rng, sig).relations()
        pat = random_s_word(rng, sig, rels)
        ev = ConformalPolynomial(sig, dict(eval_pattern(pat)))
        assert ev.leading() == pat.word
        assert ev.terms[pat.word] == 1
    return cases


def s_word_expr(pat: Pattern):
    """The pattern's S-word as an expression tree: the relation as a
    combination of its words, then (m) c or D^i, then one product per
    prefix letter, the last letter innermost."""
    rel, w, p = pat.relation, pat.word, pat.start
    s = rel.lead
    q = p + s.length
    e = LinComb((c, word_expr(u)) for u, c in rel.poly.terms.items())
    if q < w.length:
        e = Prod(w[2 * q - 1], e, word_expr(w.suffix_from(q)))
    else:
        e = Deriv(e, w.dpow - s.dpow)
    for j in reversed(range(p)):
        e = Prod(w[2 * j + 1], Gen(w[2 * j]), e)
    return e


def check_s_word_values(rng: random.Random, cases: int) -> int:
    """Every S-word evaluates to the normal form of its expression tree,
    every coefficient included."""
    sigs = _sigs()
    for _ in range(cases):
        sig = rng.choice(sigs)
        rels = _random_relation_set(rng, sig).relations()
        pat = random_s_word(rng, sig, rels)
        assert normalize(s_word_expr(pat), sig).terms == eval_pattern(pat)
    return cases


def check_traces(rng: random.Random, cases: int) -> int:
    """Reduction traces reconstruct the input; remainders are fixpoints."""
    sigs = _sigs()
    for _ in range(cases):
        sig = rng.choice(sigs)
        rset = _random_relation_set(rng, sig)
        p = random_poly(rng, sig, max_terms=4, max_len=3)
        trace = reduce_poly(p, rset)
        assert reconstruct(trace) == p
        r = trace.remainder
        again = reduce_poly(r, rset)
        assert again.remainder == r and not again.steps
    return cases


def check_linearity(rng: random.Random, cases: int) -> int:
    """Normalization commutes with linear combinations."""
    sigs = _sigs()
    for _ in range(cases):
        sig = rng.choice(sigs)
        p = random_poly(rng, sig, max_len=2)
        q = random_poly(rng, sig, max_len=2)
        a = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        b = Fraction(rng.randint(-3, 3), rng.choice([1, 3]))
        n = rng.randrange(0, sig.N + 1)
        r = random_poly(rng, sig, max_len=1)
        lhs = poly_mult(p.scale(a) + q.scale(b), n, r)
        rhs = poly_mult(p, n, r).scale(a) + poly_mult(q, n, r).scale(b)
        assert lhs == rhs
    return cases


# reference kernels -------------------------------------------------------------
#
# The recursive kernels that algebra's flat ones replaced, kept as the slow
# path they are checked against.  They return fresh dicts where the engine's
# _word_mult and _word_D add into the caller's.  ref_word_D and
# ref_word_mult peel the first letter of the left word and compute every
# offset, also those past the locality bound that _word_mult skips.
# ref_gen_mult recurses in n through the associativity sum
# g(n) (b(m) v1) = -sum_{k>=1} (-1)^k C(n,k) g(n-k) (b(m+k) v1),  where
# algebra._gen_mult interpolates from the N products with n < N, and its
# D-power branch lowers the D power one step at a time through ref_word_D,
# where _gen_mult has a closed form.  Only ref_gen_mult memoizes, in a dict
# of the caller's, so they share no state with the engine.


def ref_word_D(u: NormalWord) -> dict:
    if u.length == 1:
        return {u.append_D(1): 1}
    b, n1 = u.letters()[0], u.junctions()[0]
    u1 = u.suffix_from(1)
    out = {}
    if n1 > 0:
        out[u1.prepend(b, n1 - 1)] = -n1
    for w, c in ref_word_D(u1).items():
        out[w.prepend(b, n1)] = c
    return out


def ref_gen_mult(sig, g, n: int, v: NormalWord, memo: dict) -> dict:
    key = (g, n, v)
    out = memo.get(key)
    if out is not None:
        return out
    if n < sig.N:
        out = {v.prepend(g, n): 1}
    elif v.length == 1:
        out = {}
        if v.dpow:
            v1 = NormalWord((), v.tail, v.dpow - 1)
            for w, c in ref_gen_mult(sig, g, n, v1, memo).items():
                _accum(out, ref_word_D(w), c)
            if n > 0:
                _accum(out, ref_gen_mult(sig, g, n - 1, v1, memo), n)
    else:
        b, m = v.letters()[0], v.junctions()[0]
        v1 = v.suffix_from(1)
        out = {}
        for k in range(1, n + 1):
            c = -comb(n, k) if k % 2 == 0 else comb(n, k)
            for w, cw in ref_gen_mult(sig, b, m + k, v1, memo).items():
                _accum(out, ref_gen_mult(sig, g, n - k, w, memo), c * cw)
    memo[key] = out
    return out


def ref_word_mult(sig, u: NormalWord, n: int, v: NormalWord,
                  memo: dict) -> dict:
    if u.length == 1:
        i = u.dpow
        if i == 0:
            return ref_gen_mult(sig, u.tail, n, v, memo)
        if i > n:
            return {}
        c = perm(n, i) if i % 2 == 0 else -perm(n, i)
        return _scaled(ref_gen_mult(sig, u.tail, n - i, v, memo), c)
    b, m0 = u.letters()[0], u.junctions()[0]
    u1 = u.suffix_from(1)
    out = {}
    for t in range(0, m0 + 1):
        c = comb(m0, t) if t % 2 == 0 else -comb(m0, t)
        for w, cw in ref_word_mult(sig, u1, n + t, v, memo).items():
            key = w.prepend(b, m0 - t)
            val = out.get(key, 0) + c * cw
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def _kernel_sigs():
    return ([AlgebraSignature.finite(["x", "y"], N) for N in range(1, 5)]
            + [AlgebraSignature.indexed(["L", "H"], N) for N in range(1, 5)])


def _kernel_word(rng: random.Random, sig) -> NormalWord:
    """A word of body length 0-3 and D power 0-3."""
    if sig.generators is not None:
        def draw():
            return rng.choice(sig.generators)
    else:
        def draw():
            return GeneratorSymbol(rng.choice(sig.families), rng.randint(-2, 2))
    body = [(draw(), rng.randrange(sig.N)) for _ in range(rng.randint(0, 3))]
    return NormalWord(body, draw(), rng.randint(0, 3))


def _kernel_poly(rng: random.Random, sig) -> ConformalPolynomial:
    coeffs = [-2, Fraction(-1, 2), 1, Fraction(2, 3), 3]
    return ConformalPolynomial(sig, {_kernel_word(rng, sig): rng.choice(coeffs)
                                     for _ in range(rng.randint(1, 3))})


def word_product(sig, u: NormalWord, n: int, v: NormalWord, c=1) -> dict:
    """c * [u] (n) [v] from ``_word_mult``, in a fresh dict."""
    out: dict = {}
    _word_mult(sig, u, n, v, out, c)
    return out


def word_derivative(sig, u: NormalWord, c=1) -> dict:
    """c * D [u] from ``_word_D``, in a fresh dict."""
    out: dict = {}
    _word_D(sig, u, out, c)
    return out


def _listed(terms: dict) -> list:
    """Words, coefficients and their types, in insertion order."""
    return [(type(w), w, type(c), c) for w, c in terms.items()]


def _sorted(sig, terms: dict) -> list:
    """``_listed`` in word order, for kernels whose insertion order differs
    from the references'."""
    return sorted(_listed(terms), key=lambda t: sig.word_key(t[1]))


def check_kernels(rng: random.Random, cases: int) -> int:
    """The flat kernels and the products and derivatives built on them give
    the reference kernels' terms: the same words, coefficient values and
    types.  Derivatives keep the references' insertion order; products are
    compared in word order, since _gen_mult interpolates where
    ref_gen_mult recurses and inserts its terms in another order.  A
    kernel adds c times its result into the caller's dict, so adding it
    into the negated result leaves the dict empty."""
    sigs = _kernel_sigs()
    coeffs = [-2, Fraction(-1, 2), 1, Fraction(2, 3), 3]
    for _ in range(cases):
        sig = rng.choice(sigs)
        memo: dict = {}
        u, v = _kernel_word(rng, sig), _kernel_word(rng, sig)
        n = rng.randint(0, locality_bound(sig, u, v))
        c = rng.choice(coeffs)
        ref_D, ref = ref_word_D(u), ref_word_mult(sig, u, n, v, memo)
        assert _listed(word_derivative(sig, u)) == _listed(ref_D)
        assert (_listed(word_derivative(sig, u, c))
                == _listed(_scaled(ref_D, c)))
        assert (_sorted(sig, word_product(sig, u, n, v))
                == _sorted(sig, ref))
        assert (_sorted(sig, word_product(sig, u, n, v, c))
                == _sorted(sig, _scaled(ref, c)))
        negated = _scaled(ref_D, -c)
        _word_D(sig, u, negated, c)
        assert negated == {}
        negated = _scaled(ref, -c)
        _word_mult(sig, u, n, v, negated, c)
        assert negated == {}
        # n >= N with a D power on v takes _gen_mult's D-power branch
        g, m = u.tail, rng.randint(sig.N, sig.N + 3)
        assert (_sorted(sig, _gen_mult(sig, g, m, v))
                == _sorted(sig, ref_gen_mult(sig, g, m, v, memo)))
        p, q, j = _kernel_poly(rng, sig), _kernel_poly(rng, sig), rng.randint(0, 3)
        terms = p.terms
        for _ in range(j):
            out: dict = {}
            for w, c in terms.items():
                _accum(out, ref_word_D(w), c)
            terms = out
        assert _listed(apply_D(p, j).terms) == _listed(terms)
        terms = {}
        for w, cw in p.terms.items():
            for x, cx in q.terms.items():
                _accum(terms, ref_word_mult(sig, w, n, x, memo), cw * cx)
        assert _sorted(sig, poly_mult(p, n, q).terms) == _sorted(sig, terms)
    return cases


ALL_CHECKS = [check_c2, check_c3, check_locality, check_assoc,
              check_assoc_inverted, check_product_bounds,
              check_monotone_corollary, check_poly_product_bound,
              check_pattern_leading_law, check_traces, check_linearity,
              check_s_word_values]


def run_all(cases_per_check: int, seed: int = 20240817) -> int:
    total = 0
    for i, check in enumerate(ALL_CHECKS):
        total += check(random.Random(seed + i), cases_per_check)
    return total


# schema instances and shapes ----------------------------------------------------


def substitute(e, env):
    """The template tree with every subscripted leaf's generator evaluated
    at ``env``: the reference that the compiled ``RelationSchema.instantiate``
    must match after normalization."""
    if isinstance(e, Gen):
        if e.sub is None or not e.sub.vars:
            return e
        return Gen(GeneratorSymbol(e.gen.name, e.sub.eval(env)))
    if isinstance(e, Deriv):
        return Deriv(substitute(e.expr, env), e.power)
    if isinstance(e, Prod):
        return Prod(e.n, substitute(e.left, env), substitute(e.right, env))
    return LinComb((c, substitute(part, env)) for c, part in e.parts)


def reference_instance(schema, env, sig) -> ConformalPolynomial:
    """The schema instance at ``env``, substituted and then normalized."""
    return normalize(substitute(schema.template, env), sig)


_REF_CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def ref_admits(node, env) -> bool:
    """The constraint tree walked at ``env``, every atom of a chain valued
    before any comparison: the reference for the compiled
    ``Constraint.admits``."""
    tag = node[0]
    if tag == "or":
        return any(ref_admits(n, env) for n in node[1])
    if tag == "and":
        return all(ref_admits(n, env) for n in node[1])
    vals = [_ref_atom(a, env) for a in node[1]]
    return all(_REF_CMP[op](x, y) for x, op, y in zip(vals, node[2],
                                                      vals[1:]))


def _ref_atom(a, env) -> int:
    tag, v = a
    if tag == "int":
        return v
    if tag == "var":
        return env[v]
    return abs(env[v])


def ref_solutions(schema, eqs, bound: int, outside=None):
    """The per-call rational solver that ``RelationSchema.solutions``'s
    cached integer plan replaced, kept as the slow path it is checked
    against: Gauss-Jordan elimination over the rationals on every call,
    then a walk of the free variables' box (the first varying fastest)
    that rejects a point where a pivot variable is not an integer."""
    from itertools import product
    varnames, node = schema.vars, schema.constraint.node
    n = len(varnames)
    pos = {v: k for k, v in enumerate(varnames)}
    rows = []
    for form, target in eqs:
        row = [Fraction(0)] * n
        if form is not None:
            for v, c in form.vars:
                row[pos[v]] += c
        rows.append((row, Fraction(target - (form.const if form else 0))))
    pivots, r = [], 0
    for col in range(n):
        piv = next((k for k in range(r, len(rows)) if rows[k][0][col]),
                   None)
        if piv is None:
            continue
        prow, pval = rows[piv]
        rows[piv] = rows[r]
        inv = 1 / prow[col]
        prow, pval = rows[r] = [x * inv for x in prow], pval * inv
        for k in range(len(rows)):
            if k != r and rows[k][0][col]:
                f = rows[k][0][col]
                rows[k] = ([a - f * b for a, b in zip(rows[k][0], prow)],
                           rows[k][1] - f * pval)
        pivots.append(col)
        r += 1
    if any(val for _, val in rows[r:]):
        return
    free = [c for c in range(n) if c not in pivots]
    free_names = [varnames[c] for c in reversed(free)]
    # each pivot variable as its value minus the free variables' terms
    solved = [(varnames[col], val,
               [(varnames[c], row[c]) for c in free if row[c]])
              for (row, val), col in zip(rows, pivots)]
    for vals in product(range(-bound, bound + 1), repeat=len(free)):
        env = dict(zip(free_names, vals))
        for name, val, terms in solved:
            acc = val - sum(c * env[v] for v, c in terms)
            if acc.denominator != 1:
                break
            env[name] = int(acc)
        else:
            inside = outside is not None and \
                max(map(abs, env.values()), default=0) <= outside
            if not inside and ref_admits(node, env):
                yield env


def ref_box_solutions(schema, eqs, radius: int):
    """The solutions with every variable in [-radius, radius], in the
    order of their own walk: ``ref_solutions(schema, eqs, radius)``
    filtered to the box.  The reference for the box part of
    ``RelationSchema.solutions(eqs, bound, radius)``."""
    return [env for env in ref_solutions(schema, eqs, radius)
            if max(map(abs, env.values()), default=0) <= radius]


def ref_instances_for(index, sub: tuple, outside=None):
    """The lazy lookup that tested an instance's lead only after making it
    monic: every solution of every template of the slice's shape, with
    some variable outside [-outside, outside] when that is given, is
    instantiated, ``_monic_prepare`` scales, keys and deduplicates them,
    and then the instances not leading at ``sub`` are dropped.  The
    reference for ``SchemaIndex.instances_for(sub, outside)[1]``, the part
    beyond the box."""
    bound = max((abs(g.index or 0) for g in sub[0::2]), default=0) + 4
    return _ref_lookup(index, sub, lambda sc, eqs: [
        env for env in sc.solutions(eqs, bound) if outside is None
        or max(map(abs, env.values()), default=0) > outside])


def ref_box_instances_for(index, sub: tuple, radius=None):
    """The box part of the lookup as it was looked up on its own: the
    solutions ``ref_box_solutions(eqs, radius)`` of every template of the
    slice's shape, instantiated, made monic and filtered by lead as in
    ``ref_instances_for``; none without a radius.  The reference for
    ``SchemaIndex.instances_for(sub, radius)[0]``."""
    if radius is None:
        return []
    return _ref_lookup(index, sub, lambda sc, eqs:
                       ref_box_solutions(sc, eqs, radius))


def _ref_lookup(index, sub: tuple, solve):
    letters = sub[0::2]
    templates = index.by_shape.get((tuple(g.name for g in letters),
                                    sub[1::2]), ())
    found = _monic_prepare(
        sc.instantiate(env, index.sig) for sc, forms, _ in templates
        for env in solve(sc, [(form, g.index or 0) for form, g
                              in zip(forms, letters)]))
    return [p for p in found if p.leading()[:-1] == sub]


def eager_rset(sig, polys=(), *, lazy=None, eager_radius=None):
    """A relation set built as it was before the eager box was held slice
    by slice: with an eager radius, the index's whole box is instantiated
    and added with the given relations when the set is made, so every later
    box lookup finds its instances held.  The reference for ``RelationSet``
    given ``eager_radius``; it takes the same arguments."""
    polys = list(polys)
    if eager_radius is not None and lazy is not None:
        polys += lazy.instances_within(eager_radius)
    return RelationSet(sig, polys, lazy=lazy, eager_radius=eager_radius)


def all_term_shapes(schemas):
    """The (names, junctions, dpow) shape of every term of chain schemas
    b1 (n1) ... (nk) D^j b, zero coefficients and terms that cannot lead
    included."""
    out = []
    for sc in schemas:
        for _, t in sc.template.parts:
            names, juncs = [], []
            while isinstance(t, Prod):
                names.append(t.left.gen.name)
                juncs.append(t.n)
                t = t.right
            dpow = t.power if isinstance(t, Deriv) else 0
            names.append((t.expr if dpow else t).gen.name)
            out.append((tuple(names), tuple(juncs), dpow))
    return out


def all_shapes_could_reduce(word: NormalWord, shapes) -> bool:
    """Reference matcher over every term shape, subscripts ignored.

    A shape matches an interior slice of the word when it is D-free, and
    the suffix slice when the word carries at least its D power.
    """
    names = tuple(g.name for g in word.letters())
    juncs = word.junctions()
    K = word.length
    for snames, sjuncs, sdpow in shapes:
        L = len(snames)
        for p in range(K - L + 1):
            if names[p:p + L] != snames or juncs[p:p + L - 1] != sjuncs:
                continue
            if (sdpow == 0) if p + L < K else word.dpow >= sdpow:
                return True
    return False


# pair compositions ---------------------------------------------------------------


def reference_pair_compositions(f, g):
    """The four pair compositions of (f, g), each case scanned on its own
    and every S-word spelled from its parts: the reference that
    ``pair_compositions``, reading the shared occurrence walk, must match."""
    out = []
    fl, gl = f.lead, g.lead
    Kf, Kg = fl.length, gl.length
    flat_f, flat_g = f.lead_flat, g.lead_flat
    juncs_f = fl.junctions()

    def ev(pat):
        return ConformalPolynomial(f.poly.sig, dict(eval_pattern(pat)))

    # interior occurrences of gl inside fl (remainder c nonempty)
    if gl.is_dfree and Kg < Kf:
        for p in range(0, Kf - Kg):
            if flat_f[2 * p: 2 * (p + Kg) - 1] != flat_g:
                continue
            pat = s_word(g, fl.prefix_to(p), juncs_f[p - 1] if p > 0 else None,
                         m=juncs_f[p + Kg - 1], c=fl.suffix_from(p + Kg))
            assert pat.word == fl
            out.append(Composition("inclusion", f, g, fl, None, None,
                                   f.poly - ev(pat)))

    # suffix occurrence: fl = a(n) gl D^i
    p = Kf - Kg
    if p >= 0 and flat_f[2 * p:] == flat_g and fl.dpow >= gl.dpow:
        i = fl.dpow - gl.dpow
        if not (f is g and i == 0):
            pat = s_word(g, fl.prefix_to(p),
                         juncs_f[p - 1] if p > 0 else None, i=i)
            assert pat.word == fl
            out.append(Composition("right_inclusion", f, g, fl, None, None,
                                   f.poly - ev(pat)))

    # proper overlap: a suffix of fl is a prefix of gl
    if fl.is_dfree:
        for ell in range(1, min(Kf, Kg)):
            if flat_f[2 * (Kf - ell):] != flat_g[: 2 * ell - 1]:
                continue
            left = s_word(f, m=gl.junctions()[ell - 1], c=gl.suffix_from(ell))
            right = s_word(g, fl.prefix_to(Kf - ell), juncs_f[Kf - ell - 1])
            assert left.word == right.word
            out.append(Composition("intersection", f, g, left.word, None,
                                   None, ev(left) - ev(right)))

    # gl equals a strict suffix of fl with extra D powers
    if Kg < Kf and flat_f[2 * (Kf - Kg):] == flat_g and gl.dpow > fl.dpow:
        i = gl.dpow - fl.dpow
        right = s_word(g, fl.prefix_to(Kf - Kg), juncs_f[Kf - Kg - 1])
        assert right.word == fl.append_D(i)
        out.append(Composition("right_intersection", f, g, right.word, None,
                               None, apply_D(f.poly, i) - ev(right)))
    return out
