"""Parsing, printing, round trips, and presentation files."""

import pytest
from hypothesis import given, settings, strategies as st

import random

import props
from conformal import (AlgebraSignature, ParseError, compare_words, gen,
                       parse_poly, parse_presentation, parse_schema,
                       parse_word, poly_str, presentation_str)
from conformal.dsl import parse_template
from conftest import random_poly


def test_parse_examples(sig_a2):
    p = parse_poly("a (1) a - a (0) D a", sig_a2)
    assert poly_str(p) == "a (1) a - a (0) D a"
    sig = AlgebraSignature.finite(["b"], 3)
    q = parse_poly("3/2 * D^2 b", sig)
    assert poly_str(q) == "3/2 * D^2 b"
    fam = AlgebraSignature.indexed(["L"], 2)
    w = parse_word("L_1 (0) L_-1", fam)
    assert str(w) == "L_1 (0) L_-1"


def test_parse_zero(sig_a2):
    assert parse_poly("0", sig_a2).is_zero()
    assert poly_str(parse_poly("a (0) a - a (0) a", sig_a2)) == "0"


def test_high_index_normalizes_not_rejected(sig_a2):
    # an index at or above N is accepted and normalized away
    assert parse_poly("a (2) a", sig_a2).is_zero()
    assert parse_poly("a (2) D a", sig_a2) == parse_poly("2 * a (1) a", sig_a2)


def test_coefficient_formats():
    sig = AlgebraSignature.indexed(["L"], 2)
    p = parse_poly("1/2 * L_0 (0) L_1", sig)
    assert poly_str(p) == "1/2 * L_0 (0) L_1"
    assert parse_poly("- 2 * L_0 - L_1 + L_1", sig) == parse_poly("-2 * L_0", sig)


def test_positioned_errors(sig_a2):
    with pytest.raises(ParseError) as err:
        parse_poly("a (1) &", sig_a2)
    assert "col" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("a (1)", sig_a2)
    with pytest.raises(ParseError):
        parse_word("a (1) a - a (0) a", sig_a2)   # not a single word
    with pytest.raises(ParseError):
        parse_poly("3 a", sig_a2)                 # missing '*'


def test_round_trip_random(sig_xy3):
    rng = random.Random(41)
    for _ in range(300):
        p = random_poly(rng, sig_xy3, max_terms=4)
        assert parse_poly(poly_str(p), sig_xy3) == p


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_hypothesis(seed):
    sig = AlgebraSignature.indexed(["H", "L"], 2)
    rng = random.Random(seed)
    from conformal import ConformalPolynomial, NormalWord, gen
    from fractions import Fraction
    terms = {}
    for _ in range(rng.randint(1, 4)):
        body = tuple((gen(rng.choice("HL"), rng.randint(-9, 9)),
                      rng.randrange(2)) for _ in range(rng.randint(0, 2)))
        w = NormalWord(body, gen(rng.choice("HL"), rng.randint(-9, 9)),
                       rng.randint(0, 3))
        terms[w] = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
    p = ConformalPolynomial(sig, terms)
    assert parse_poly(poly_str(p), sig) == p


def test_schema_parse_and_instantiate():
    sc = parse_schema("s0[i, j | i != 0]: L_i (0) L_j - L_0 (0) L_{i+j}")
    assert sc.vars == ("i", "j")
    assert sc.constraint.eval({"i": 1, "j": 0})
    assert not sc.constraint.eval({"i": 0, "j": 5})
    sig = AlgebraSignature.indexed(["L"], 2)
    p = sc.instantiate({"i": 2, "j": -1}, sig)
    assert p == parse_poly("L_2 (0) L_-1 - L_0 (0) L_1", sig)


def test_template_leaves_keep_index_forms():
    from conformal import Gen, GeneratorSymbol, Prod
    from conformal.dsl import IndexForm, parse_template
    (c, t), = parse_template("L_3 (0) L_{i-1}", ["i"]).parts
    assert c == 1 and isinstance(t, Prod)
    # a constant subscript keeps its form: the lazy lookup solves with it
    assert t.left.sub == IndexForm(const=3)
    assert t.left.gen is GeneratorSymbol("L", 3)
    assert t.right.sub == IndexForm(const=-1, vars=(("i", 1),))
    assert props.substitute(t.left, {"i": 7}) is t.left
    assert props.substitute(t.right, {"i": 7}).gen is GeneratorSymbol("L", 6)
    plain = Gen(GeneratorSymbol("a"))
    assert plain.sub is None and props.substitute(plain, {}) is plain


def test_presentation_file_parse(tmp_path):
    text = """
# a one-generator presentation
algebra {
    N = 2
    generators = a
}
relations {
    f: a (1) a - a (0) D a
}
options {
    max_length = 3
}
"""
    pf = parse_presentation(text)
    assert pf.sig.N == 2
    assert len(pf.relations) == 1 and not pf.schemas
    assert pf.options == {"max_length": 3}
    name, poly = pf.relations[0]
    assert name == "f" and poly_str(poly) == "a (1) a - a (0) D a"


def test_presentation_file_families_and_ranking():
    text = """
algebra {
    N = 2
    family H, L
    ranking = L > H
}
relations {
    g1[i, j]: L_i (1) H_j + H_j (1) L_i - H_{i+j}
}
"""
    pf = parse_presentation(text)
    assert pf.sig.families == ("H", "L")
    from conformal import gen
    assert pf.sig.gen_key(gen("L", 0)) > pf.sig.gen_key(gen("H", 7))
    assert len(pf.schemas) == 1


def test_presentation_round_trip():
    text = """
algebra {
    N = 2
    family H, L
    ranking = L > H
}
relations {
    r1[i, j]: H_i (1) H_j
    q1[i, j | i != 0]: H_i (1) L_j - H_0 (1) L_{i+j}
}
options {
    window = 2
    relation_multiplier = 4
}
"""
    pf = parse_presentation(text)
    printed = presentation_str(pf)
    pf2 = parse_presentation(printed)
    assert presentation_str(pf2) == printed
    assert pf2.options == pf.options
    assert [s.name for s in pf2.schemas] == [s.name for s in pf.schemas]


@pytest.mark.parametrize("schema", [
    "f[i]: 2 * (L_i (1) L_0) (0) L_0 - L_i",
    "f[i, j]: (L_i (0) L_j) (1) L_0",
])
def test_presentation_round_trip_keeps_left_nested_products(schema):
    pf = parse_presentation(
        "algebra {\n N = 2\n family L\n}\nrelations {\n" + schema + "\n}")
    printed = presentation_str(pf)
    assert "( L_i" in printed
    pf2 = parse_presentation(printed)
    for i, j in [(1, 0), (-2, 3)]:
        env = {"i": i, "j": j}
        assert pf2.schemas[0].instantiate(env, pf.sig) == \
            pf.schemas[0].instantiate(env, pf.sig)


def test_presentation_errors():
    with pytest.raises(ParseError):
        parse_presentation("relations { f: a }")        # missing algebra
    with pytest.raises(ParseError):
        parse_presentation("algebra { N = 2 }")          # no generators
    with pytest.raises(ParseError):
        parse_presentation("algebra { N = 2\n generators = D }")
    with pytest.raises(ParseError):
        parse_presentation(
            "algebra { N = 2\n generators = a }\nalgebra { N = 1\n generators = b }")


def test_relation_errors_point_into_the_file():
    text = ("algebra {\n"
            "    N = 2\n"
            "    family L\n"
            "}\n"
            "relations {\n"
            "    s1[i, j]: L_i (1) L_j + L_{i+j}\n"
            "  f[i]: L_i (0) L_0 - L_k\n"
            "}\n")
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.col) == (7, 25)
    assert str(err.value) == "line 7, col 25: unknown index variable 'k'"
    with pytest.raises(ParseError) as err:
        parse_presentation(text.replace("L_k", "L_0 L_1"))
    assert (err.value.line, err.value.col) == (7, 27)
    assert "trailing input" in str(err.value)


_FAMILY = "algebra {\n    N = 2\n    family L\n}\n"


@pytest.mark.parametrize("parse, where, msg", [
    # unknown index variables: subscript, index sum, |var| and var atoms
    (lambda: parse_template("L_k", ["i"]), (1, 3),
     "unknown index variable 'k'"),
    (lambda: parse_template("L_{i+k}", ["i"]), (1, 6),
     "unknown index variable 'k'"),
    (lambda: parse_schema("f[i | |k| < 2]: L_i"), (1, 8),
     "unknown index variable 'k'"),
    (lambda: parse_schema("f[i | k < 2]: L_i"), (1, 7),
     "unknown index variable 'k'"),
    (lambda: parse_presentation(
        _FAMILY + "relations {\n  f[i | |j| < 1]: L_i\n}\n"), (6, 10),
     "unknown index variable 'j'"),
    # optionally negated integers: subscripts, constraint atoms,
    # generators and options
    (lambda: parse_template("L_-i", ["i"]), (1, 4),
     "expected an integer or index variable after '_'"),
    (lambda: parse_template("L_(", ["i"]), (1, 3),
     "expected an integer or index variable after '_'"),
    (lambda: parse_schema("f[i | i < -i]: L_i"), (1, 12),
     "expected an integer, index variable, or |var|"),
    (lambda: parse_schema("f[i | i < -]: L_i"), (1, 12),
     "expected an integer, index variable, or |var|"),
    (lambda: parse_presentation(
        "algebra {\n    N = 2\n    generators = a_-b\n}\n"), (3, 21),
     "expected 'int', found 'b'"),
    (lambda: parse_presentation(
        "algebra {\n    N = 2\n    generators = a_, b\n}\n"), (3, 20),
     "expected 'int', found ','"),
    (lambda: parse_presentation(
        _FAMILY + "options {\n    window = -w\n}\n"), (6, 15),
     "expected 'int', found 'w'"),
    (lambda: parse_presentation(
        _FAMILY + "options {\n    windows = -3\n}\n"), (6, 5),
     "unknown option 'windows'"),
    # 'D' names no generator, listed or family
    (lambda: parse_presentation(
        "algebra {\n    N = 2\n    generators = a, D\n}\n"), (3, 22),
     "'D' is reserved and cannot name a generator"),
    (lambda: parse_presentation(
        "algebra {\n    N = 2\n    family L, D\n}\n"), (3, 16),
     "'D' is reserved and cannot name a generator"),
    # unknown or repeated keys, at the key
    (lambda: parse_presentation(
        _FAMILY + "options {\n    window = 3\n    window = 4\n}\n"), (7, 5),
     "duplicate option 'window'"),
    (lambda: parse_presentation(
        "algebra {\n    N = 2\n    foo = 3\n}\n"), (3, 5),
     "unknown algebra entry 'foo'"),
    # a stray token after an entry's value, at the token; without the
    # comma, L is not a second family
    (lambda: parse_presentation(
        "algebra {\n    N = 2 7\n    generators = a\n}\n"), (2, 11),
     "trailing input after 'N' entry"),
    (lambda: parse_presentation(
        "algebra {\n    N = 2\n    generators = a b\n}\n"), (3, 20),
     "trailing input after 'generators' entry"),
    (lambda: parse_presentation(
        _FAMILY + "options {\n    window = 3 junk\n}\n"), (6, 16),
     "trailing input after 'window' entry"),
    (lambda: parse_presentation(
        "algebra {\n    N = 2\n    family H L\n}\n"), (3, 14),
     "trailing input after 'family' entry"),
])
def test_index_atom_errors_are_pinned(parse, where, msg):
    with pytest.raises(ParseError) as err:
        parse()
    assert (err.value.line, err.value.col) == where
    assert str(err.value) == f"line {where[0]}, col {where[1]}: {msg}"


def test_negated_integers_parse():
    assert parse_template("L_-3").parts[0][1].sub.const == -3
    sc = parse_schema("f[i | i > -2 and |i| <= 3]: L_i")
    assert [v for v in range(-5, 5)
            if sc.constraint.eval({"i": v})] == [-1, 0, 1, 2, 3]
    pf = parse_presentation(
        "algebra {\n    N = 2\n    generators = a_-1, a_2\n}\n"
        "options {\n    window = -4\n}\n")
    assert [g.index for g in pf.sig.generators] == [-1, 2]
    assert pf.options == {"window": -4}


def test_finite_generators_with_abs_order():
    text = """
algebra {
    N = 2
    generators = L_1, L_-1, H_0
    order = abs_then_signed
    ranking = L > H
}
relations {
    f: L_1 (0) L_-1 - H_0 (0) H_0
}
"""
    pf = parse_presentation(text)
    from conformal import gen
    k = pf.sig.gen_key
    assert k(gen("L", 1)) > k(gen("L", -1)) > k(gen("H", 0))
    assert str(pf.relations[0][1].leading()) == "L_1 (0) L_-1"
    printed = presentation_str(pf)
    assert presentation_str(parse_presentation(printed)) == printed


def _algebra(*entries):
    return "algebra {\n" + "".join(f"    {e}\n" for e in entries) + "}\n"


@pytest.mark.parametrize("text, where, msg", [
    # an algebra entry other than 'family' is given once, at the second key
    (_algebra("N = 2", "N = 3", "generators = a"), (3, 5),
     "duplicate algebra entry 'N'"),
    (_algebra("N = 2", "generators = a", "generators = b"), (4, 5),
     "duplicate algebra entry 'generators'"),
    (_algebra("N = 2", "generators = a", "order = listed", "order = listed"),
     (5, 5), "duplicate algebra entry 'order'"),
    (_algebra("N = 2", "family L", "ranking = L", "ranking = L"), (5, 5),
     "duplicate algebra entry 'ranking'"),
    # a name is given once, at the repeated name
    (_algebra("N = 2", "generators = a, a"), (3, 21),
     "duplicate generator 'a'"),
    (_algebra("N = 2", "generators = a_1, a_2, a_1"), (3, 28),
     "duplicate generator 'a_1'"),
    (_algebra("N = 2", "family L, L"), (3, 15), "duplicate family 'L'"),
    (_algebra("N = 2", "family L", "family L"), (4, 12),
     "duplicate family 'L'"),
    (_FAMILY + "relations {\n    f[i, i]: L_i (1) L_i\n}\n", (6, 10),
     "duplicate index variable 'i'"),
    # a ranking ranks every name once, at the name or else at the key
    (_algebra("N = 2", "generators = a, b", "ranking = a > b"), (4, 5),
     "ranking needs 'order = abs_then_signed'"),
    (_algebra("N = 2", "generators = a, b", "order = listed",
              "ranking = a > b"), (5, 5),
     "ranking needs 'order = abs_then_signed'"),
    (_algebra("N = 2", "generators = a, b", "order = abs_then_signed",
              "ranking = b"), (5, 5), "ranking misses 'a'"),
    (_algebra("N = 2", "family H, L", "ranking = L"), (4, 5),
     "ranking misses 'H'"),
    (_algebra("N = 2", "generators = a, b", "order = abs_then_signed",
              "ranking = b > c > a"), (5, 19), "unknown name 'c' in ranking"),
    (_algebra("N = 2", "family H, L", "ranking = L > H > L"), (4, 23),
     "duplicate ranking entry 'L'"),
    (_algebra("N = 2", "family L", "order = listed"), (4, 5),
     "order 'listed' needs 'generators'"),
])
def test_repeated_or_unranked_names_are_pinned(text, where, msg):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.col) == where
    assert str(err.value) == f"line {where[0]}, col {where[1]}: {msg}"


def test_repeated_schema_index_variable():
    with pytest.raises(ParseError) as err:
        parse_schema("f[i, j, i | i > 0]: L_i")
    assert str(err.value) == "line 1, col 9: duplicate index variable 'i'"


def test_family_lines_add_families_and_order_follows_ranking():
    pf = parse_presentation(_algebra("N = 2", "family H", "family L",
                                     "ranking = H > L"))
    assert pf.sig.families == ("H", "L")
    assert pf.sig.gen_key(gen("H", 0)) > pf.sig.gen_key(gen("L", 5))
    text = _algebra("N = 2", "generators = a, b", "order = abs_then_signed",
                    "ranking = a > b")
    sig = parse_presentation(text).sig
    assert compare_words(sig, parse_word("a", sig), parse_word("b", sig)) == 1
