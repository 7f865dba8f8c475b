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
that normal form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

    def __str__(self):
        parts = []
        for v, c in self.vars:
            if c == 1:
                parts.append(("+", v))
            elif c == -1:
                parts.append(("-", v))
            else:
                parts.append(("+" if c > 0 else "-", f"{abs(c)}{v}"))
        if self.const or not parts:
            parts.append(("+" if self.const >= 0 else "-", str(abs(self.const))))
        out = ""
        for sign, txt in parts:
            out += (sign if out or sign == "-" else "") + txt
        return out


# constraints -----------------------------------------------------------------

_CMP = {"<": int.__lt__, "<=": int.__le__, ">": int.__gt__,
        ">=": int.__ge__, "==": int.__eq__, "!=": int.__ne__}


@dataclass(frozen=True)
class Constraint:
    """Boolean combination of chained integer comparisons."""
    node: tuple  # ("or", [...]) | ("and", [...]) | ("cmp", atoms, ops)

    def eval(self, env: Dict[str, int]) -> bool:
        return _c_eval(self.node, env)

    def __str__(self):
        return _c_str(self.node)


def _c_eval(node, env) -> bool:
    tag = node[0]
    if tag == "or":
        return any(_c_eval(n, env) for n in node[1])
    if tag == "and":
        return all(_c_eval(n, env) for n in node[1])
    atoms, ops = node[1], node[2]
    vals = [_atom_eval(a, env) for a in atoms]
    return all(_CMP[op](x, y) for x, op, y in zip(vals, ops, vals[1:]))


def _atom_eval(a, env) -> int:
    tag, v = a
    if tag == "int":
        return v
    if tag == "var":
        return env[v]
    return abs(env[v])


def _c_str(node) -> str:
    tag = node[0]
    if tag == "or":
        return " or ".join(_c_str(n) for n in node[1])
    if tag == "and":
        return " and ".join(_c_str(n) for n in node[1])
    atoms, ops = node[1], node[2]
    out = _a_str(atoms[0])
    for op, a in zip(ops, atoms[1:]):
        out += f" {op} {_a_str(a)}"
    return out


def _a_str(a) -> str:
    tag, v = a
    if tag == "int":
        return str(v)
    if tag == "var":
        return v
    return f"|{v}|"


TRUE = Constraint(("and", []))


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
    return parts[0] if len(parts) == 1 else (op, parts)


def _parse_chain(s, varnames):
    atoms = [_parse_catom(s, varnames)]
    ops = []
    while s.peek().kind == "op" and s.peek().text in _CMP:
        ops.append(s.next().text)
        atoms.append(_parse_catom(s, varnames))
    if not ops:
        s.error("expected a comparison")
    return ("cmp", atoms, ops)


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
        leaves, terms = self.compiled(sig.N)
        gens = [x.gen if x.sub is None or not x.sub.vars else
                GeneratorSymbol(x.gen.name, x.sub.eval(env)) for x in leaves]
        for g in gens:
            sig.check_gen(g)
        out = {}
        for c, ks, juncs, dpow in terms:
            w = NormalWord(tuple(gens[k].pair(n) for k, n in zip(ks, juncs)),
                           gens[ks[-1]], dpow)
            out[w] = out.get(w, 0) + c
        return ConformalPolynomial(sig, out)

    def solutions(self, eqs, bound: int) -> Iterator[Dict[str, int]]:
        """The admitted integer assignments that solve the linear equations
        ``eqs``, (form, target) pairs where a form of None reads as 0.

        Gauss-Jordan elimination leaves the free variables, which range over
        [-bound, bound], the first varying fastest.  With no equations every
        variable is free, so the solutions are the admitted points of the
        box [-bound, bound]^vars.
        """
        varnames, admits = self.vars, self.constraint.eval
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
                if admits(env):
                    yield env


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


def presentation_str(pf: PresentationFile) -> str:
    """Canonical text of a presentation file; parses back to equal contents."""
    sig = pf.sig
    lines = ["algebra {"]
    lines.append(f"    N = {sig.N}")
    if sig.generators is not None:
        lines.append("    generators = " + ", ".join(str(g) for g in sig.generators))
        if sig.order.kind == "abs_then_signed":
            names = list(dict.fromkeys(g.name for g in sig.generators))
            rank = sorted(names, key=lambda n: -sig.order._rank[n])
            lines.append("    order = abs_then_signed")
            lines.append("    ranking = " + " > ".join(rank))
    else:
        lines.append("    family " + ", ".join(sig.families))
        rank = sorted(sig.families, key=lambda n: -sig.order._rank[n])
        lines.append("    ranking = " + " > ".join(rank))
    lines.append("}")
    lines.append("relations {")
    for name, poly in pf.relations:
        lines.append(f"    {name}: {poly_str(poly)}")
    for sc in pf.schemas:
        head = sc.name + "[" + ", ".join(sc.vars)
        if sc.constraint.node != ("and", []):
            head += " | " + str(sc.constraint)
        head += "]"
        body = _template_str(sc.template)
        lines.append(f"    {head}: {body}")
    lines.append("}")
    if pf.options:
        lines.append("options {")
        for k in sorted(pf.options):
            lines.append(f"    {k} = {pf.options[k]}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _template_str(t: Expr, prec: int = 0) -> str:
    # prec: 1 summand, 2 right product operand, 3 left one or D's operand
    if isinstance(t, LinComb):
        out = _signed_sum((c, _template_str(e, 1)) for c, e in t.parts)
        bare = len(t.parts) == 1 and t.parts[0][0] == 1 and prec < 3
        return out if prec == 0 or bare else f"( {out} )"
    if isinstance(t, Prod):
        out = f"{_template_str(t.left, 3)} ({t.n}) {_template_str(t.right, 2)}"
        return f"( {out} )" if prec > 2 else out
    if isinstance(t, Deriv):
        d = "D" if t.power == 1 else f"D^{t.power}"
        return f"{d} {_template_str(t.expr, 3)}"
    if isinstance(t, Gen):
        name = t.gen.name
        if t.sub is None:
            return name
        sub = str(t.sub)
        if t.sub.vars and (len(t.sub.vars) > 1 or t.sub.const
                           or t.sub.vars[0][1] != 1):
            return f"{name}_{{{sub}}}"
        return f"{name}_{sub}"
    raise TypeError(type(t).__name__)
