"""Exact polynomial arithmetic and the normalization engine.

Every element of the free algebra is stored as a rational linear combination
of normal words.  A coefficient is stored as a Python ``int`` when it is
integral and as a reduced ``fractions.Fraction`` otherwise (``_coeff``);
there are no floats.  ``Fraction(3) == 3`` and the two hash alike, so the
stored form never shows in equality, hashing, ordering or printing.

The engine rewrites arbitrary products into that basis using only the
defining identities:

* D-shift:        Da (n) b = -n a(n-1) b           (zero for n = 0)
* Leibniz:        D(a (n) b) = Da (n) b + a (n) Db
* locality:       b (n) b' = 0 for generators and n >= N
* associativity:  (a (n) b) (m) c = sum_t (-1)^t C(n,t) a(n-t) (b(m+t) c)

The three primitives are ``_gen_mult`` (generator times word), ``_word_D``
(one derivation of a word) and ``_word_mult`` (word times word), each in
one pass.  ``_gen_mult`` takes g (n) D^i b in closed form and interpolates
g (n) [b (m) v1] at n >= N from the N products with n < N, so it recurses
only along the word, never in n or in the D power; it is memoized on the
signature, its cached dicts are frozen by convention, and callers must
copy before mutating.  ``_word_D`` and ``_word_mult`` add c times their
result into a dict of the caller's, normalized as ``_accum`` does, so no
result is built only to be added again.  ``_word_D`` is a closed form, and
``_word_mult`` is one pass over the junction offsets of its left word, one
``_gen_mult`` call per offset.  Vanishing is exact: g (n) [v] is zero
exactly from ``locality_bound(g, v)`` on, so no product at or past the
bound is computed, and the memo holds no zero product.
All three concatenate flat word tuples through ``tuple.__new__(NormalWord,
...)``, which skips the constructor that takes (generator, index) pairs.

Unevaluated input is one expression tree (``Gen``, ``Deriv``, ``Prod``,
``LinComb``): the parser builds it, a relation schema's template is such a
tree whose leaves may carry index forms, and ``normalize`` evaluates it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, perm
from typing import Dict, Iterable, Optional, Tuple, Union

from .words import (AlgebraSignature, ConformalError, GeneratorSymbol,
                    NormalWord, SignatureError)

Coeff = Union[int, Fraction]
Terms = Dict[NormalWord, Coeff]


class ArithmeticError_(ConformalError):
    """Illegal polynomial operation (monic of zero, negative index, ...)."""


def _coeff(c) -> Coeff:
    """The stored form of a coefficient: an ``int`` when ``c`` is integral,
    a reduced ``Fraction`` otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _accum(dst: Terms, src: Terms, c) -> None:
    """dst += c * src, for stored coefficients ``src`` and ``c``."""
    _accum_items(dst, src.items(), c)


def _accum_items(dst: Terms, pairs, c) -> None:
    """``_accum`` over (word, stored coefficient) pairs, such as the
    reducts that ``rewriting.reduce_poly`` keeps: a zero is dropped, and an
    integral ``Fraction`` is stored as an ``int``."""
    for w, cw in pairs:
        v = dst.get(w, 0) + c * cw
        if v:
            if type(v) is not int and v.denominator == 1:
                v = v.numerator
            dst[w] = v
        else:
            dst.pop(w, None)


def _scaled(src: Terms, c) -> Terms:
    """c * src; an int times a Fraction may be integral, so every product
    is normalized."""
    return {w: _coeff(c * cw) for w, cw in src.items()}


@cache
def _lagrange_weights(N: int, n: int) -> Tuple[int, ...]:
    """The weights L_j(n), j < N, of ``_gen_mult``'s interpolation."""
    return tuple((-1) ** (N - 1 - j) * comb(n, j) * comb(n - j - 1, N - 1 - j)
                 for j in range(N))


def _gen_bound(N: int, v: NormalWord) -> int:
    """``locality_bound`` of a generator and v: g (n) [v] = 0 exactly
    for n >= N + dpow(v) + sum over v's junctions of (N-1 - nj)."""
    return N + v[-1] + (N - 1) * ((len(v) >> 1) - 1) - sum(v[1:-2:2])


def _gen_mult(sig: AlgebraSignature, g: GeneratorSymbol, n: int,
              v: NormalWord) -> Terms:
    """Normalized product  g (n) [v]  as a terms dict.

    For n < N the word (g, n) ++ v is normal and comes back as a fresh
    one-word dict.  For n >= N the product is memoized and frozen when it
    is not zero; it is zero exactly from ``locality_bound(g, v)`` on.

    For v = D^i b, the rule  g (n) D b = D(g (n) b) + n g (n-1) b  iterates
    to  g (n) D^i b = sum_t C(i,t) n!/(n-t)! D^(i-t) [g (n-t) b].  By
    locality only the t with n-t < N remain, where g (n-t) b is a normal
    word, and  D^j [g (k) b] = sum_r C(j,r) (-1)^r k!/(k-r)! [g (k-r)
    D^(j-r) b]  by Leibniz and the D-shift.  Collecting q = t + r, with
    C(i,t) C(i-t,q-t) = C(i,q) C(q,t) and the partial alternating sum
    sum_{t=lo}^{q} (-1)^(q-t) C(q,t) = (-1)^(q-lo) C(q-1, q-lo), gives

        g (n) D^i b = sum_{q=lo}^{min(i,n)} (-1)^(q-lo) C(q-1, q-lo)
                      n!/(n-q)! C(i,q) [g (n-q) D^(i-q) b],  lo = n-N+1.

    Each q gives its own normal word; the sum is empty exactly when
    n >= N + i.

    For v = b (m) [v1], fix s = n + m and let f(k) = g (k) [b (s-k) v1] for
    0 <= k <= s.  With g (p) b = 0 for p >= N, associativity gives
    sum_t (-1)^t C(p, t) f(p-t) = 0 for N <= p <= s: every forward
    difference of f at 0 of order N or more vanishes.  By Newton's
    forward-difference formula f is then a polynomial in k of degree < N,
    and Lagrange interpolation at k = j < N, where f(j) is (g, j) prefixed
    to each word of [b (s-j) v1], gives

        g (n) [b (m) v1] = sum_{j<N} L_j(n) (g, j) ++ [b (m+n-j) v1],
        L_j(n) = (-1)^(N-1-j) C(n, j) C(n-j-1, N-1-j).

    That is N products on the shorter word v1, so the recursion runs along
    the word and never in n.  Distinct j give distinct prefixes and, for
    n >= N, every L_j(n) is nonzero, so the product vanishes exactly when
    every inner b (m+n-j) v1 does.  By induction along v, from the D-power
    case, the bound is exact: an inner product with m+n-j at or past
    ``locality_bound(b, v1)`` is zero and is skipped, and g (n) [v] is zero
    exactly from  locality_bound(b, v1) + N-1 - m = locality_bound(g, v).
    """
    N, new = sig.N, tuple.__new__
    if n < N:
        return {new(NormalWord, (g, n) + v): 1}
    key = (g, n, v)
    cache = sig._gm_cache
    out = cache.get(key)
    if out is not None:
        return out
    out = {}
    if len(v) == 2:
        b, i = v
        lo = n - N + 1
        for q in range(lo, min(i, n) + 1):
            c = comb(q - 1, q - lo) * perm(n, q) * comb(i, q)
            out[new(NormalWord, (g, n - q, b, i - q))] = \
                -c if (q - lo) % 2 else c
    else:
        b, s = v[0], v[1] + n
        v1 = new(NormalWord, v[2:])
        weights = _lagrange_weights(N, n)
        # k = s - j falls as j rises; the inner product vanishes from bound on
        for j in range(max(0, s - _gen_bound(N, v1) + 1), N):
            c, k = weights[j], s - j
            if k < N:
                out[new(NormalWord, (g, j, b, k) + v1)] = c
            else:
                pre = (g, j)
                for w, cw in _gen_mult(sig, b, k, v1).items():
                    out[new(NormalWord, pre + w)] = c * cw
    if out:
        cache[key] = out
    return out


def _word_D(sig: AlgebraSignature, u: NormalWord, dst: Terms, c) -> None:
    """dst += c * D [u], in closed form: by Leibniz and the D-shift,
    D [b1(n1) ... bk(nk) D^i b] is the sum over the junctions j with
    nj > 0 of  -nj [u with nj lowered by one],  then  [u with D^(i+1)].
    The terms never collide and are added in that order."""
    new, get = tuple.__new__, dst.get
    last = len(u) - 1  # the D power; the junctions sit at the odd j below
    for j in range(1, len(u), 2):
        m = u[j]
        if j == last:
            m, x = m + 1, c
        elif m:
            m, x = m - 1, -m * c
        else:
            continue
        w = new(NormalWord, u[:j] + (m,) + u[j + 1:])
        x += get(w, 0)
        if x:
            dst[w] = x if type(x) is int or x.denominator != 1 else x.numerator
        else:
            dst.pop(w, None)


_NO_OFFSETS = (((), 0, 1),)


def _word_plan(sig: AlgebraSignature, u: NormalWord) -> tuple:
    """The junction offsets of u's body, kept per word on the signature:
    (prefix, t1 + ... + tk, prod_j (-1)^tj C(mj, tj)) per offset, in
    lexicographic order, t1 slowest."""
    if len(u) == 2:
        return _NO_OFFSETS
    plan = sig._plan_cache.get(u)
    if plan is None:
        plan = [((), 0, 1)]
        for j in range(0, len(u) - 2, 2):
            b, m = u[j], u[j + 1]
            plan = [(pre + (b, m - t), s + t,
                     (-c if t % 2 else c) * comb(m, t))
                    for pre, s, c in plan for t in range(m + 1)]
        plan = sig._plan_cache[u] = tuple(plan)
    return plan


def _word_mult(sig: AlgebraSignature, u: NormalWord, n: int,
               v: NormalWord, dst: Terms, c) -> None:
    """dst += c * [u] (n) [v], the normalized right-normed product, in one
    pass.

    For u = b1(m1) ... bk(mk) D^i b, associativity expands the product over
    the junction offsets t = (t1, ..., tk), 0 <= tj <= mj, as the sum of
    prod_j (-1)^tj C(mj, tj)  b1(m1-t1) ... bk(mk-tk) [D^i b (s) v]  with
    s = n + t1 + ... + tk, and  D^i b (s) v = (-1)^i s!/(s-i)! b (s-i) v,
    zero for i > s and, by ``_gen_mult``'s exact bound, for s-i at or past
    ``locality_bound(b, v)``; those offsets are skipped.  Distinct offsets
    give distinct prefixes, so no two terms of the product collide.
    """
    if n < 0:
        raise ArithmeticError_("negative product index")
    N, new, get = sig.N, tuple.__new__, dst.get
    tail, i = u[-2], u[-1]
    bound = _gen_bound(N, v)
    for pre, s, k in _word_plan(sig, u):
        s += n
        if i:
            if i > s:
                continue
            k *= -perm(s, i) if i % 2 else perm(s, i)
            s -= i
        if s >= bound:
            continue
        k *= c
        if s < N:
            terms = (((tail, s) + v, 1),)
        else:
            terms = _gen_mult(sig, tail, s, v).items()
        for w, cw in terms:
            w = new(NormalWord, pre + w)
            x = get(w, 0) + k * cw
            if x:
                dst[w] = x if type(x) is int or x.denominator != 1 \
                    else x.numerator
            else:
                dst.pop(w, None)


class ConformalPolynomial:
    """A rational linear combination of normal words over one signature.

    Immutable: nothing writes to ``terms`` after construction, and each
    ``_frozen=True`` caller hands over a dict it has just built and keeps
    no other reference to; every other dict is copied.  So the leading word
    and the canonical key are computed on first use and kept in ``_lead``
    and ``_key``."""

    __slots__ = ("sig", "terms", "_lead", "_key")

    def __init__(self, sig: AlgebraSignature, terms: Optional[Terms] = None,
                 *, _frozen: bool = False):
        self.sig = sig
        self._lead = self._key = None
        if _frozen:
            self.terms = terms
        else:
            self.terms = {w: _coeff(c) for w, c in (terms or {}).items() if c}

    # constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, sig) -> "ConformalPolynomial":
        return cls(sig, None)

    @classmethod
    def monomial(cls, sig, w: NormalWord, c=1) -> "ConformalPolynomial":
        sig.check_word(w)
        if not c:
            return cls(sig, None)
        return cls(sig, {w: _coeff(c)}, _frozen=True)

    # basic queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading(self) -> Optional[NormalWord]:
        """The greatest word, or None for the zero polynomial."""
        lw = self._lead
        if lw is None and self.terms:
            lw = self._lead = max(self.terms, key=self.sig.word_key)
        return lw

    def leading_coeff(self) -> Coeff:
        lw = self.leading()
        return self.terms[lw] if lw is not None else 0

    def is_monic(self) -> bool:
        return bool(self.terms) and self.terms[self.leading()] == 1

    def items_desc(self):
        return sorted(self.terms.items(),
                      key=lambda it: self.sig.word_key(it[0]), reverse=True)

    def canonical_key(self) -> tuple:
        """Hashable form: (word key, coefficient) pairs, descending by word
        (keys are unique, so coefficients are never compared)."""
        key = self._key
        if key is None:
            wkey = self.sig.word_key
            key = self._key = tuple(sorted(
                [(wkey(w), c) for w, c in self.terms.items()], reverse=True))
        return key

    # arithmetic ---------------------------------------------------------------

    def _check_same(self, other):
        if self.sig is not other.sig:
            raise SignatureError("polynomials over different signatures")

    def __add__(self, other):
        self._check_same(other)
        out = dict(self.terms)
        _accum(out, other.terms, 1)
        return ConformalPolynomial(self.sig, out, _frozen=True)

    def __sub__(self, other):
        self._check_same(other)
        out = dict(self.terms)
        _accum(out, other.terms, -1)
        return ConformalPolynomial(self.sig, out, _frozen=True)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "ConformalPolynomial":
        if not c:
            return ConformalPolynomial.zero(self.sig)
        return ConformalPolynomial(self.sig, _scaled(self.terms, _coeff(c)),
                                   _frozen=True)

    def monic(self) -> "ConformalPolynomial":
        if not self.terms:
            raise ArithmeticError_("cannot normalize the zero polynomial to monic")
        lc = self.terms[self.leading()]
        if lc == 1:
            return self
        out = self.scale(1 / Fraction(lc))
        out._lead = self._lead
        return out

    def __eq__(self, other):
        return (isinstance(other, ConformalPolynomial)
                and self.sig is other.sig and self.terms == other.terms)

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        from .dsl import poly_str
        return poly_str(self)


# raw expressions -------------------------------------------------------------


class Expr:
    """Base class for unevaluated expressions over a signature.  A node is
    compared, hashed and printed by its type and its slots, so a tree
    equals its reparse and prints without object addresses."""
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and other._fields() == self._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"


class Gen(Expr):
    """A generator leaf.  A subscripted leaf keeps its ``IndexForm`` in
    ``sub``, and ``gen`` is its generator with every index variable zero."""
    __slots__ = ("gen", "sub")

    def __init__(self, g: GeneratorSymbol, sub=None):
        self.gen = g
        self.sub = sub


class Deriv(Expr):
    __slots__ = ("expr", "power")

    def __init__(self, expr: Expr, power: int = 1):
        if power < 0:
            raise ArithmeticError_("negative D power")
        self.expr = expr
        self.power = power


class Prod(Expr):
    """The n-th product of two subexpressions; n is unrestricted here."""
    __slots__ = ("n", "left", "right")

    def __init__(self, n: int, left: Expr, right: Expr):
        if n < 0:
            raise ArithmeticError_("negative product index")
        self.n = n
        self.left = left
        self.right = right


class LinComb(Expr):
    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Tuple[Coeff, Expr]]):
        self.parts = tuple(parts)


def word_expr(w: NormalWord) -> Expr:
    """The right-normed expression tree that spells a normal word."""
    e: Expr = Gen(w.tail)
    if w.dpow:
        e = Deriv(e, w.dpow)
    letters, juncs = w.letters(), w.junctions()
    for g, n in zip(letters[-2::-1], juncs[::-1]):
        e = Prod(n, Gen(g), e)
    return e


def normalize(e, sig: AlgebraSignature) -> ConformalPolynomial:
    """Rewrite an expression as a combination of normal words."""
    if isinstance(e, ConformalPolynomial):
        if e.sig is not sig:
            raise SignatureError("polynomial over a different signature")
        return e
    if isinstance(e, NormalWord):
        sig.check_word(e)
        return ConformalPolynomial.monomial(sig, e)
    if isinstance(e, GeneratorSymbol):
        sig.check_gen(e)
        return ConformalPolynomial.monomial(sig, NormalWord((), e))
    if isinstance(e, Gen):
        return normalize(e.gen, sig)
    if isinstance(e, Deriv):
        return apply_D(normalize(e.expr, sig), e.power)
    if isinstance(e, Prod):
        return poly_mult(normalize(e.left, sig), e.n, normalize(e.right, sig))
    if isinstance(e, LinComb):
        out: Terms = {}
        for c, part in e.parts:
            _accum(out, normalize(part, sig).terms, _coeff(c))
        return ConformalPolynomial(sig, out, _frozen=True)
    raise TypeError(f"cannot normalize object of type {type(e).__name__}")


def mult(sig: AlgebraSignature, u: NormalWord, n: int,
         v: NormalWord) -> ConformalPolynomial:
    """Normalized product [u] (n) [v] of two normal words."""
    sig.check_word(u)
    sig.check_word(v)
    out: Terms = {}
    _word_mult(sig, u, n, v, out, 1)
    return ConformalPolynomial(sig, out, _frozen=True)


def poly_mult(p: ConformalPolynomial, n: int,
              q: ConformalPolynomial) -> ConformalPolynomial:
    p._check_same(q)
    out: Terms = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            _word_mult(p.sig, u, n, v, out, cu * cv)
    return ConformalPolynomial(p.sig, out, _frozen=True)


def apply_D(p: ConformalPolynomial, j: int = 1) -> ConformalPolynomial:
    """Normalized j-fold derivative of a polynomial."""
    if j < 0:
        raise ArithmeticError_("negative D power")
    terms = p.terms
    for _ in range(j):
        out: Terms = {}
        for w, c in terms.items():
            _word_D(p.sig, w, out, c)
        terms = out
    if terms is p.terms:
        return p
    return ConformalPolynomial(p.sig, terms, _frozen=True)


def locality_bound(sig: AlgebraSignature, u: NormalWord, v: NormalWord) -> int:
    """The M with  mult(u, n, v) == 0  exactly for n >= M.

    Closed form: dpow(u) + N + dpow(v) + sum over v's junctions of
    (N-1 - nj).  Each D on u shifts the index down by one, the base
    locality absorbs N, each D on v absorbs one more, and every junction
    of v can absorb up to N-1-nj raises before the inner product dies.
    For a generator ``_gen_mult``'s docstring proves the bound exact, and
    for any u the offset t = 0 of ``_word_mult``, D^i b (n) v with
    i <= n = M-1, is nonzero and shares its prefix with no other offset.
    """
    return u.dpow + _gen_bound(sig.N, v)
