"""Text syntax for words, polynomials, schemas, and presentation files.

Expression grammar (products associate to the right):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := [RATIONAL '*'] product | '0'
    product := factor ('(' INT ')' factor)*
    factor  := ('D' ['^' INT])* atom
    atom    := NAME [subscript] | '(' expr ')'
    subscript := '_' (['-'] INT | VAR | '{' indexsum '}')

Comments run from '#' to end of line.  Generator subscripts may be integer
literals, or (inside relation schemas) index variables and sums like
``L_{i+j+k}``.  A presentation file holds an ``algebra`` block, a
``relations`` block (one named polynomial or schema per line), and an
optional ``options`` block.

The parser builds the expression tree of ``algebra`` (``Gen``, ``Deriv``,
``Prod``, ``LinComb``) directly.  Every subscripted leaf keeps its
``IndexForm`` in ``Gen.sub``, constants included, so a schema's template is
the same tree.  ``RelationSchema`` normalizes it once per locality bound
with a placeholder generator per leaf, and ``instantiate(env)`` relabels
that normal form through a plan kept per bound.  A schema's side condition
is compiled once into a Python predicate (``Constraint.admits``), which
``solutions`` tests at every point it enumerates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from operator import itemgetter
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .words import (AlgebraSignature, ConformalError, GeneratorOrder,
                    GeneratorSymbol, NormalWord)
from .algebra import (ConformalPolynomial, Deriv, Expr, Gen, LinComb, Prod,
                      normalize)


class ParseError(ConformalError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}" if line else msg)
        self.line = line
        self.col = col

    @classmethod
    def at(cls, t: "Token", msg: str) -> "ParseError":
        return cls(msg, t.line, t.col)


# tokenizer -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<op><=|>=|==|!=|[-+*/^_(){}\[\]:,=|<>])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str          # "int" | "name" | "op" | "nl" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            toks.append(Token("nl", tok, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append(Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


class _Stream:
    """The tokens of an expression or entry, newlines dropped."""

    def __init__(self, toks: List[Token]):
        self.toks = [t for t in toks if t.kind != "nl"]
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        self.i += 1
        return self.toks[self.i - 1]

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.accept(kind, text)
        if t is None:
            got, want = self.peek(), text or kind
            self.error(f"expected {want!r}, found {got.text or got.kind!r}")
        return t

    def error(self, msg: str):
        raise ParseError.at(self.peek(), msg)


# index forms -------------------------------------------------------------


@dataclass(frozen=True)
class IndexForm:
    """Integer-linear combination of index variables plus a constant."""
    const: int = 0
    vars: Tuple[Tuple[str, int], ...] = ()

    def eval(self, env: Dict[str, int]) -> int:
        return self.const + sum(c * env[v] for v, c in self.vars)


# constraints -----------------------------------------------------------------

_CMP = frozenset(("<", "<=", ">", ">=", "==", "!="))


@dataclass(frozen=True)
class Constraint:
    """Boolean combination of chained integer comparisons."""
    node: tuple  # ("or", (...)) | ("and", (...)) | ("cmp", atoms, ops)

    @cached_property
    def admits(self) -> Callable[[Dict[str, int]], bool]:
        """The constraint compiled once into a predicate of an assignment.

        The node becomes one Python expression of ``env``: a chain
        ``a < b <= c`` is Python's chained comparison, which holds exactly
        when every adjacent pair does, an empty ``and`` is ``True`` and an
        empty ``or`` is ``False``.  The source holds only integer literals,
        quoted variable names, ``abs`` and the six comparison operators.
        """
        return eval(f"lambda env: {_c_src(self.node)}",
                    {"__builtins__": {}, "abs": abs})


_JUNCTIONS = {"and": " and ", "or": " or "}


def _c_src(node) -> str:
    tag = node[0]
    if tag == "cmp":
        atoms, ops = node[1], node[2]
        out = _a_src(atoms[0])
        for op, a in zip(ops, atoms[1:]):
            if op not in _CMP:
                raise ValueError(f"unknown comparison {op!r}")
            out += f" {op} {_a_src(a)}"
        return f"({out})"
    if not node[1]:
        return "True" if tag == "and" else "False"
    return "(" + _JUNCTIONS[tag].join(_c_src(n) for n in node[1]) + ")"


def _a_src(a) -> str:
    tag, v = a
    if tag == "int":
        return repr(int(v))
    return f"env[{v!r}]" if tag == "var" else f"abs(env[{v!r}])"


TRUE = Constraint(("and", ()))


# expression parsing ---------------------------------------------------------


def _signed_int(s: _Stream, what: Optional[str] = None) -> int:
    """An integer after an optional minus; missing, the error ``what``."""
    neg = s.accept("op", "-") is not None
    t = s.accept("int") if what else s.expect("int")
    if t is None:
        s.error(what)
    return -int(t.text) if neg else int(t.text)


def _index_var(s: _Stream, varnames) -> str:
    """The next token, which must name a known index variable; an unknown
    name is reported at the name."""
    t = s.peek()
    if t.kind == "name" and t.text not in varnames:
        s.error(f"unknown index variable {t.text!r}")
    return s.expect("name").text


def _index_atom(s: _Stream, varnames, what: str):
    """("var", name) of a known index variable or ("int", _signed_int)."""
    if s.peek().kind == "name":
        return "var", _index_var(s, varnames)
    return "int", _signed_int(s, what)


def _parse_subscript(s: _Stream, varnames) -> IndexForm:
    if s.accept("op", "{"):
        form = _parse_indexsum(s, varnames)
        s.expect("op", "}")
        return form
    tag, v = _index_atom(s, varnames,
                         "expected an integer or index variable after '_'")
    return IndexForm(vars=((v, 1),)) if tag == "var" else IndexForm(const=v)


def _parse_indexsum(s: _Stream, varnames) -> IndexForm:
    const = 0
    coeffs: Dict[str, int] = {}
    sign = 1
    if s.accept("op", "-"):
        sign = -1
    while True:
        t = s.peek()
        if t.kind == "int":
            s.next()
            const += sign * int(t.text)
        elif t.kind == "name":
            _index_var(s, varnames)
            coeffs[t.text] = coeffs.get(t.text, 0) + sign
        else:
            s.error("expected an integer or index variable")
        if s.accept("op", "+"):
            sign = 1
        elif s.accept("op", "-"):
            sign = -1
        else:
            break
    vars_ = tuple((v, c) for v, c in coeffs.items() if c)
    return IndexForm(const=const, vars=vars_)


def _parse_factor(s: _Stream, varnames) -> Expr:
    dpow = 0
    while True:
        t = s.peek()
        if t.kind == "name" and t.text == "D":
            s.next()
            if s.accept("op", "^"):
                dpow += int(s.expect("int").text)
            else:
                dpow += 1
        else:
            break
    t = s.peek()
    if t.kind == "name":
        s.next()
        sub = None
        if s.accept("op", "_"):
            sub = _parse_subscript(s, varnames)
        g = GeneratorSymbol(t.text, None if sub is None else sub.const)
        out: Expr = Gen(g, sub)
    elif t.kind == "op" and t.text == "(":
        s.next()
        out = _parse_expr(s, varnames)
        s.expect("op", ")")
    else:
        s.error("expected a generator or '('")
    if dpow:
        out = Deriv(out, dpow)
    return out


def _parse_product(s: _Stream, varnames) -> Expr:
    chain = [_parse_factor(s, varnames)]
    indices = []
    while True:
        save = s.i
        if s.accept("op", "("):
            t = s.peek()
            if t.kind == "int":
                n = int(s.next().text)
                if s.accept("op", ")"):
                    indices.append(n)
                    chain.append(_parse_factor(s, varnames))
                    continue
            s.i = save
        break
    out = chain[-1]
    for fac, n in zip(reversed(chain[:-1]), reversed(indices)):
        out = Prod(n, fac, out)
    return out


def _parse_rational(s: _Stream) -> Fraction:
    num = int(s.expect("int").text)
    if s.accept("op", "/"):
        den = int(s.expect("int").text)
        if den == 0:
            s.error("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _parse_term(s: _Stream, varnames) -> Tuple[Fraction, Optional[Expr]]:
    t = s.peek()
    if t.kind == "int":
        c = _parse_rational(s)
        nxt = s.peek()
        if nxt.kind == "op" and nxt.text == "*":
            s.next()
            return c, _parse_product(s, varnames)
        if c == 0:
            return Fraction(0), None
        s.error("a coefficient must be followed by '*' and a word")
    return Fraction(1), _parse_product(s, varnames)


def _parse_expr(s: _Stream, varnames) -> LinComb:
    parts = []
    sign = Fraction(1)
    if s.accept("op", "-"):
        sign = Fraction(-1)
    else:
        s.accept("op", "+")
    while True:
        c, e = _parse_term(s, varnames)
        if e is not None:
            parts.append((sign * c, e))
        if s.accept("op", "+"):
            sign = Fraction(1)
        elif s.accept("op", "-"):
            sign = Fraction(-1)
        else:
            break
    return LinComb(parts)


def _parse_constraint(s: _Stream, varnames) -> Constraint:
    return Constraint(_parse_junction(s, "or", lambda: _parse_junction(
        s, "and", lambda: _parse_chain(s, varnames))))


def _parse_junction(s, op, operand):
    """Operands joined by the keyword ``op``; one operand is returned bare."""
    parts = [operand()]
    while s.accept("name", op):
        parts.append(operand())
    return parts[0] if len(parts) == 1 else (op, tuple(parts))


def _parse_chain(s, varnames):
    atoms = [_parse_catom(s, varnames)]
    ops = []
    while s.peek().kind == "op" and s.peek().text in _CMP:
        ops.append(s.next().text)
        atoms.append(_parse_catom(s, varnames))
    if not ops:
        s.error("expected a comparison")
    return ("cmp", tuple(atoms), tuple(ops))


def _parse_catom(s, varnames):
    if s.accept("op", "|"):
        name = _index_var(s, varnames)
        s.expect("op", "|")
        return ("abs", name)
    return _index_atom(s, varnames,
                       "expected an integer, index variable, or |var|")


# public expression API -------------------------------------------------------


def parse_template(text: str, varnames: Sequence[str] = ()) -> LinComb:
    """Parse an expression that may mention the given index variables."""
    s = _Stream(tokenize(text))
    e = _parse_expr(s, frozenset(varnames))
    if s.peek().kind != "eof":
        s.error("trailing input after expression")
    return e


def parse_poly(text: str, sig: AlgebraSignature) -> ConformalPolynomial:
    """Parse and normalize a concrete polynomial."""
    return normalize(parse_template(text), sig)


def parse_word(text: str, sig: AlgebraSignature) -> NormalWord:
    """Parse a single normal word (a monic one-term polynomial)."""
    p = parse_poly(text, sig)
    if len(p.terms) != 1:
        raise ParseError(f"{text!r} does not denote a single normal word")
    w, c = next(iter(p.terms.items()))
    if c != 1:
        raise ParseError(f"{text!r} does not denote a single normal word")
    return w


# relation schemas ------------------------------------------------------------


@dataclass(frozen=True)
class RelationSchema:
    """A relation template with free integer index variables.

    Instantiating with any variable assignment that satisfies the constraint
    yields a concrete polynomial, normalized and made monic by the caller.
    The template is normalized once per locality bound N, its k-th leaf
    (left to right) relabelled as the placeholder generator ``#_k``; an
    instance substitutes each leaf's generator into that normal form and
    sums colliding words.  This is sound because normalization
    (``_gen_mult``, ``_word_D``) reads N, junctions and D powers, never the
    generators or their order: any map from placeholders to generators
    extends to a homomorphism of free conformal algebras, which sends
    normal words to normal words of the same shape, and the coefficients
    are constants.  So the compiled form is a function of N alone, and a
    template term may be any product tree.
    """

    name: str
    vars: Tuple[str, ...]
    constraint: Constraint
    template: LinComb
    _compiled: Dict[int, tuple] = field(default_factory=dict, init=False,
                                        repr=False, compare=False)
    _plans: Dict[tuple, tuple] = field(default_factory=dict, init=False,
                                       repr=False, compare=False)
    _instancers: Dict[int, tuple] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)

    def compiled(self, N: int) -> tuple:
        """The leaves, and per placeholder normal word over N (coefficient,
        leaf of each letter, junctions, D power)."""
        if N not in self._compiled:
            leaves: List[Gen] = []
            p = normalize(_relabel(self.template, leaves),
                          AlgebraSignature.indexed(["#"], N))
            self._compiled[N] = leaves, [
                (c, [g.index for g in w.letters()], w.junctions(), w.dpow)
                for w, c in p.terms.items()]
        return self._compiled[N]

    def instantiate(self, env: Dict[str, int],
                    sig: AlgebraSignature) -> ConformalPolynomial:
        leaves, ints, terms = self._instancer(sig.N)
        gens = []
        for g in leaves:
            if g.__class__ is not GeneratorSymbol:
                name, k, coeffs = g
                for v, c in coeffs:
                    k += c * env[v]
                g = GeneratorSymbol(name, k)
            sig.check_gen(g)
            gens.append(g)
        slots, out, new = gens + ints, {}, tuple.__new__
        for c, word in terms:
            w = new(NormalWord, word(slots))
            out[w] = out.get(w, 0) + c
        return ConformalPolynomial(sig, out)

    def _instancer(self, N: int) -> tuple:
        """``compiled(N)`` as a plan for ``instantiate``: per leaf its fixed
        generator, or (family, constant, coefficients) of its index form;
        the integers 0 .. the largest junction or D power; per term its
        coefficient and an ``itemgetter`` that reads the word off the slot
        list of the leaves' generators followed by those integers."""
        plan = self._instancers.get(N)
        if plan is None:
            leaves, terms = self.compiled(N)
            k = len(leaves)
            top = max((n for _, _, juncs, dpow in terms
                       for n in juncs + (dpow,)), default=0)
            plan = self._instancers[N] = [
                x.gen if x.sub is None or not x.sub.vars else
                (x.gen.name, x.sub.const, x.sub.vars) for x in leaves
            ], list(range(top + 1)), [
                (c, itemgetter(*[s for j, n in zip(ks, juncs + (dpow,))
                                 for s in (j, k + n)]))
                for c, ks, juncs, dpow in terms]
        return plan

    def solutions(self, eqs, bound: int, radius: Optional[int] = None
                  ) -> Iterator[Dict[str, int]]:
        """The admitted integer assignments that solve the linear equations
        ``eqs``, (form, target) pairs where a form of None reads as 0.

        The forms are eliminated once (``_eliminate``), and the plan is kept
        per tuple of forms; only the targets change between calls.  The
        cache is bounded because the forms are fixed per index:
        ``SchemaIndex.instances_for`` passes those of one ``by_shape``
        template, and ``instances_within`` none, so a schema keeps at most
        one plan per template of its own plus one for ``()``, which only
        ``instances_within`` uses.  A call tests the plan's
        consistency rows and computes each pivot's base from the targets,
        in integers.  The free variables range over [-bound, bound], the
        first varying fastest, and at each point a pivot variable is its
        base minus its free terms, divided by its denominator; a nonzero
        remainder rejects the point.  The assignments, their order and the
        order of their keys are those of Gauss-Jordan elimination over the
        rationals, which the tests keep as the reference.  With no equations
        every variable is free, so the solutions are the admitted points of
        the box [-bound, bound]^vars.

        With ``radius = r`` one walk serves a lookup: it yields the box
        part, the solutions with every variable in [-r, r], and the part
        beyond, those with the free variables in [-bound, bound] and some
        variable outside [-r, r], which a caller tells apart by the largest
        absolute value.  The free variables range over [-max(bound, r),
        max(bound, r)], and a point with one beyond ``bound`` is kept only
        in the box.  Each part keeps its order in ``solutions(eqs, r)`` or
        ``solutions(eqs, bound)``: the walk is lexicographic.
        """
        eqs = list(eqs)
        forms = tuple(form for form, _ in eqs)
        plan = self._plans.get(forms)
        if plan is None:
            plan = self._plans[forms] = _eliminate(self.vars, forms)
        free_names, pivots, checks = plan
        targets = [target for _, target in eqs]
        if any(sum(a * t for a, t in zip(coeffs, targets)) + const
               for coeffs, const in checks):
            return
        names = free_names + [name for name, *_ in pivots]
        solved = [(sum(a * t for a, t in zip(coeffs, targets)) + const, d,
                   terms) for _, coeffs, const, d, terms in pivots]
        admits = self.constraint.admits
        top = bound if radius is None else max(bound, radius)
        for vals in product(range(-top, top + 1), repeat=len(free_names)):
            # only the box holds a point with a free variable beyond bound
            box = top > bound and max(map(abs, vals), default=0) > bound
            point = list(vals)
            for base, d, terms in solved:
                for k, c in terms:
                    base -= c * vals[k]
                x, rem = divmod(base, d)
                if rem or box and not -radius <= x <= radius:
                    break
                point.append(x)
            else:
                env = dict(zip(names, point))
                if admits(env):
                    yield env


def _eliminate(varnames: Tuple[str, ...], forms: tuple) -> tuple:
    """The integer elimination plan of the equations ``form = target``.

    Row k reads ``A x = B t + c``: the form's coefficients on the variables
    x, the unit vector e_k on the targets t, and minus the form's constant.
    Fraction-free Gauss-Jordan elimination on the variable columns (each
    combination divided by its row's content) picks the pivot columns that
    rational elimination picks and leaves rows proportional to its rows.
    So a pivot row with pivot entry d gives the pivot variable as
    (B t + c - sum of its free terms) / d, an integer exactly when
    ``divmod`` leaves no remainder, whatever the sign of d; a row with no
    variable left is a consistency row: B t + c must vanish.

    Returns (free variable names in walk order, one (name, target
    coefficients, constant, d, [(position in the walk's point, coefficient)
    of each nonzero free term]) per pivot in column order, one (target
    coefficients, constant) per consistency row).
    """
    n, m = len(varnames), len(forms)
    pos = {v: k for k, v in enumerate(varnames)}
    rows = []
    for k, form in enumerate(forms):
        row = [0] * (n + m + 1)
        if form is not None:
            for v, c in form.vars:
                row[pos[v]] += c
            row[-1] = -form.const
        row[n + k] = 1
        rows.append(row)
    pivots, r = [], 0
    for col in range(n):
        piv = next((k for k in range(r, m) if rows[k][col]), None)
        if piv is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        prow = rows[r]
        p = prow[col]
        for k in range(m):
            f = rows[k][col]
            if k != r and f:
                row = [p * a - f * b for a, b in zip(rows[k], prow)]
                g = gcd(*row)
                rows[k] = [a // g for a in row]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    walk = {c: k for k, c in enumerate(reversed(free))}
    solved = [(varnames[col], row[n:-1], row[-1], row[col],
               [(walk[c], row[c]) for c in free if row[c]])
              for row, col in zip(rows, pivots)]
    checks = [(row[n:-1], row[-1]) for row in rows[r:]]
    return [varnames[c] for c in reversed(free)], solved, checks


def _relabel(e: Expr, leaves: List[Gen]) -> Expr:
    """The tree with leaf k (appended to ``leaves``) replaced by ``#_k``."""
    if isinstance(e, Gen):
        leaves.append(e)
        return Gen(GeneratorSymbol("#", len(leaves) - 1))
    if isinstance(e, Deriv):
        return Deriv(_relabel(e.expr, leaves), e.power)
    if isinstance(e, Prod):
        return Prod(e.n, _relabel(e.left, leaves), _relabel(e.right, leaves))
    return LinComb((c, _relabel(part, leaves)) for c, part in e.parts)


def parse_schema(line: str) -> RelationSchema:
    """Parse ``name[i, j | constraint]: expr`` (constraint optional)."""
    return _parse_schema(_Stream(tokenize(line)))


def _parse_schema(s: _Stream) -> RelationSchema:
    name = s.expect("name").text
    varnames: List[str] = []
    constraint = TRUE
    if s.accept("op", "["):
        _distinct(s, ",", _name, varnames, "index variable")
        if s.accept("op", "|"):
            constraint = _parse_constraint(s, frozenset(varnames))
        s.expect("op", "]")
    s.expect("op", ":")
    template = _parse_expr(s, frozenset(varnames))
    if s.peek().kind != "eof":
        s.error("trailing input after relation")
    return RelationSchema(name, tuple(varnames), constraint, template)


# presentation files ---------------------------------------------------------


@dataclass
class PresentationFile:
    """Parsed contents of a presentation file."""

    sig: AlgebraSignature
    relations: List[Tuple[str, ConformalPolynomial]] = field(default_factory=list)
    schemas: List[RelationSchema] = field(default_factory=list)
    options: Dict[str, int] = field(default_factory=dict)

    def concrete_relations(self) -> List[ConformalPolynomial]:
        return [p for _, p in self.relations]


_KNOWN_OPTIONS = {"window", "relation_multiplier", "max_length", "max_dpow",
                  "max_iters", "max_basis"}


def _split_lines(toks: List[Token]) -> List[List[Token]]:
    lines: List[List[Token]] = [[]]
    for t in toks:
        if t.kind == "nl":
            lines.append([])
        elif t.kind == "eof":
            break
        else:
            lines[-1].append(t)
    return [ln for ln in lines if ln]


def parse_presentation(text: str) -> PresentationFile:
    toks = tokenize(text)
    # blocks look like:  NAME { ...newline-separated entries... }
    blocks: Dict[str, List[List[Token]]] = {}
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind in ("nl", "eof"):
            i += 1
            continue
        if t.kind != "name":
            raise ParseError("expected a block name", t.line, t.col)
        head = t
        i += 1
        while i < len(toks) and toks[i].kind == "nl":
            i += 1
        if i >= len(toks) or toks[i].text != "{":
            raise ParseError.at(
                head, f"expected '{{' after block name {head.text!r}")
        i += 1
        depth = 1
        body: List[Token] = []
        while i < len(toks):
            t = toks[i]
            if t.kind == "op" and t.text == "{":
                depth += 1
            elif t.kind == "op" and t.text == "}":
                depth -= 1
                if depth == 0:
                    i += 1
                    break
            elif t.kind == "eof":
                raise ParseError.at(head, f"unterminated block {head.text!r}")
            body.append(t)
            i += 1
        if head.text in blocks:
            raise ParseError(f"duplicate block {head.text!r}", head.line, head.col)
        blocks[head.text] = _split_lines(body)
    if "algebra" not in blocks:
        raise ParseError("missing 'algebra' block")

    sig = _parse_algebra_block(blocks["algebra"])
    pf = PresentationFile(sig)
    for line in blocks.get("options", []):
        s = _line_stream(line)
        key, at = _joined_name(s), line[0]
        if key not in _KNOWN_OPTIONS or key in pf.options:
            what = "unknown" if key not in _KNOWN_OPTIONS else "duplicate"
            raise ParseError(f"{what} option {key!r}", at.line, at.col)
        s.expect("op", "=")
        pf.options[key] = _signed_int(s)
        _end_entry(s, key)
    for line in blocks.get("relations", []):
        schema = _parse_schema(_line_stream(line))
        if schema.vars:
            pf.schemas.append(schema)
        else:
            poly = normalize(schema.template, sig)
            pf.relations.append((schema.name, poly))
    return pf


def _line_stream(line: List[Token]) -> _Stream:
    """The tokens of one block line, ending just past its last token."""
    last = line[-1]
    return _Stream(line + [Token("eof", "", last.line,
                                 last.col + len(last.text))])


def _end_entry(s: _Stream, key: str) -> None:
    """Reject tokens after the value of a block entry."""
    if s.peek().kind != "eof":
        s.error(f"trailing input after {key!r} entry")


def _joined_name(s: _Stream) -> str:
    """A name possibly containing underscores (lexed as separate tokens)."""
    parts = [s.expect("name").text]
    while s.accept("op", "_"):
        parts.append(s.expect("name").text)
    return "_".join(parts)


def _distinct(s: _Stream, sep: str, item, seen: list, what: str) -> list:
    """Values of ``item(s)`` separated by ``sep``, appended to ``seen``; a
    repeated value is an error at its first token.  Returns those tokens."""
    toks = []
    while True:
        toks.append(s.peek())
        value = item(s)
        if value in seen:
            raise ParseError.at(toks[-1], f"duplicate {what} '{value}'")
        seen.append(value)
        if not s.accept("op", sep):
            return toks


def _name(s: _Stream) -> str:
    return s.expect("name").text


def _gen_name(s: _Stream) -> str:
    name = _name(s)
    if name == "D":
        s.error("'D' is reserved and cannot name a generator")
    return name


def _gen_symbol(s: _Stream) -> GeneratorSymbol:
    name = _gen_name(s)
    idx = _signed_int(s) if s.accept("op", "_") else None
    return GeneratorSymbol(name, idx)


def _parse_algebra_block(lines: List[List[Token]]) -> AlgebraSignature:
    """The declared signature.  Each entry but ``family`` appears once; a
    ranking ranks every name once, over families or ``abs_then_signed``."""
    N = None
    gens: Optional[List[GeneratorSymbol]] = None
    families: List[str] = []
    order_kind = None
    ranking: List[str] = []
    at: Dict[str, Token] = {}          # the key of each entry
    for line in lines:
        s = _line_stream(line)
        head = s.expect("name")
        key = head.text
        if key in at and key != "family":
            raise ParseError.at(head, f"duplicate algebra entry {key!r}")
        at[key] = head
        if key == "N":
            s.expect("op", "=")
            N = int(s.expect("int").text)
        elif key == "generators":
            s.expect("op", "=")
            gens = []
            _distinct(s, ",", _gen_symbol, gens, "generator")
        elif key == "family":
            _distinct(s, ",", _gen_name, families, "family")
        elif key == "order":
            s.expect("op", "=")
            order_kind = _joined_name(s)
            if order_kind not in ("listed", "abs_then_signed"):
                s.error(f"unknown order kind {order_kind!r}")
        elif key == "ranking":
            s.expect("op", "=")
            ranked_at = _distinct(s, ">", _name, ranking, "ranking entry")
        else:
            raise ParseError.at(head, f"unknown algebra entry {key!r}")
        _end_entry(s, key)
    if N is None:
        raise ParseError("algebra block must set N")
    if gens is not None and families:
        raise ParseError("use either 'generators' or 'family', not both")
    if gens is None and not families:
        raise ParseError("algebra block must declare generators or families")
    names = families or list(dict.fromkeys(g.name for g in gens))
    if gens is None and order_kind == "listed":
        raise ParseError.at(at["order"], "order 'listed' needs 'generators'")
    if ranking:
        if gens is not None and order_kind != "abs_then_signed":
            raise ParseError.at(at["ranking"],
                                "ranking needs 'order = abs_then_signed'")
        for name, t in zip(ranking, ranked_at):
            if name not in names:
                raise ParseError.at(t, f"unknown name {name!r} in ranking")
        for name in names:
            if name not in ranking:
                raise ParseError.at(at["ranking"], f"ranking misses {name!r}")
        names = ranking[::-1]
    if gens is None:
        return AlgebraSignature.indexed(families, N, ranking=names)
    if order_kind == "abs_then_signed":
        return AlgebraSignature(N, GeneratorOrder.abs_then_signed(names),
                                generators=tuple(gens))
    return AlgebraSignature.finite(gens, N)


# printing --------------------------------------------------------------------


def _signed_sum(terms) -> str:
    """Text of a sum of (coefficient, term text) pairs; "0" when empty."""
    parts = []
    for c, text in terms:
        body = text if abs(c) == 1 else f"{abs(c)} * {text}"
        sign = "- " if c < 0 else ("+ " if parts else "")
        parts.append(sign + body)
    return " ".join(parts) if parts else "0"


def poly_str(p: ConformalPolynomial) -> str:
    """Canonical text form: terms descending, reduced fractional coefficients."""
    return _signed_sum((c, str(w)) for w, c in p.items_desc())
