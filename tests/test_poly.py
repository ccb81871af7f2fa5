import contextlib
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mm3sym.cyclotomic import Cyclotomic, ONE, ZETA, ZETA_BAR, IMAG, ROOT12
from mm3sym.cyclotomic import _signed_sum
from mm3sym.poly import (
    Polynomial, ParamId, BrentVar, parse_polynomial, parse_cyclotomic,
    var_from_str, PolyParseError, _term_str,
)

A = ParamId(0, "a")
B = ParamId(0, "b")
X = BrentVar(0, 3, 1, 2)


def rand_cyc(rng):
    return Cyclotomic([Fraction(rng.randint(-4, 4)) for _ in range(4)])


# parameters and Brent coordinates, so that monomials sort and print
# across both kinds of variable
_POOL = [ParamId(0, "c"), ParamId(2, "a"), ParamId(13, "g"),
         BrentVar(0, 3, 1, 2), BrentVar(1, 27, 3, 3), BrentVar(2, 1, 2, 1)]


def rand_poly(rng, nterms=4):
    variables = [A, B, *rng.sample(_POOL, 2)]
    p = Polynomial()
    for _ in range(rng.randint(0, nterms)):
        # now and then a unit coefficient, which prints as no factor
        c = rng.choice((ONE, -ONE)) if rng.random() < 0.3 else rand_cyc(rng)
        t = Polynomial.constant(c)
        for v in variables:
            t = t * Polynomial.variable(v) ** rng.randint(0, 2)
        p = p + t
    return p


def test_variable_names():
    assert str(A) == "a"
    assert str(ParamId(2, "d")) == "d2"
    assert str(X) == "x3_12"
    assert var_from_str("a") == A
    assert var_from_str("d2") == ParamId(2, "d")
    assert var_from_str("x3_12") == X
    assert var_from_str("y11_23") == BrentVar(1, 11, 2, 3)
    # a whole name or nothing: padding, constants, numbers and partial
    # names are rejected, before and after the parser reads the same text
    for name in (" a", "a ", "x", "z", "zb", "x1_1", "1", "q1"):
        with pytest.raises(PolyParseError, match="bad variable name"):
            var_from_str(name)
        with contextlib.suppress(PolyParseError):
            parse_polynomial(name)
        with pytest.raises(PolyParseError, match="bad variable name"):
            var_from_str(name)


def test_ring_axioms():
    rng = random.Random(23)
    for _ in range(30):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Polynomial()
        assert p * 0 == Polynomial()
        assert p * 1 == p


def test_eq_coerces_scalars():
    assert Polynomial.constant(3) == 3
    assert Polynomial.constant(3) != 4
    assert Polynomial.constant(ZETA) == ZETA
    assert Polynomial.constant(ZETA) != IMAG
    assert Polynomial.constant(Fraction(1, 2)) == Fraction(1, 2)
    assert Polynomial.constant(Fraction(1, 2)) != Fraction(1, 3)
    assert Polynomial() == Fraction(0)
    assert Polynomial.variable(A) != Fraction(1, 2)


def test_pow(monkeypatch):
    p = Polynomial.variable(A) + 1
    assert p ** 0 == Polynomial.constant(1)
    assert p ** 3 == p * p * p
    want = Polynomial.constant(1)
    for n in range(9):
        assert p ** n == want
        want = want * p
    with pytest.raises(ValueError):
        p ** -1
    # square-and-multiply stops after the last exponent bit
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda x, y: calls.append(1) or mul(x, y))
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3)):
        calls.clear()
        p ** n
        assert len(calls) == products, n


def test_one_term_product_matches_general_route():
    # two one-term factors take a fast path; a two-term t in f7, which
    # no factor holds, sends (p + t) * q and t * q through the general one
    rng = random.Random(41)
    variables = [A, B, *_POOL]
    t = parse_polynomial("f7 + 2*f7^2")

    def one_term():
        c = Cyclotomic()
        while not c:
            c = rand_cyc(rng)
        picked = rng.sample(variables, rng.randint(0, 3))
        return Polynomial({tuple(sorted(((v, rng.randint(1, 3)) for v in picked),
                                        key=lambda item: item[0].key())): c})

    point = {v: rand_cyc(rng) for v in variables}
    for _ in range(60):
        p, q = one_term(), one_term()
        pq = p * q
        assert len(pq.terms) == 1 and all(pq.terms.values())
        assert pq.terms == ((p + t) * q - t * q).terms
        assert pq.substitute(point) == p.substitute(point) * q.substitute(point)


def test_substitute():
    p = parse_polynomial("a^2*b + 3*a - b")
    q = p.substitute({A: Cyclotomic.rational(2)})
    assert q == parse_polynomial("4*b + 6 - b")
    full = p.substitute({A: Cyclotomic.rational(2), B: ZETA})
    assert full.is_constant()
    assert full.constant_value() == ZETA * 3 + 6


def test_substitute_collisions_cancel():
    p = parse_polynomial("a*x3_12 - b*x3_12")
    q = p.substitute({A: 1, B: 1})
    assert q == Polynomial()
    assert q.terms == {}
    # partial collisions add up; cancelled monomials are dropped
    p = parse_polynomial("a*b + 2*b^2 - 3*a^2*b + a*b^2 + c")
    q = p.substitute({A: 1})
    assert q.terms == parse_polynomial("-2*b + 3*b^2 + c").terms
    assert all(q.terms.values())
    assert p.substitute({A: 2, B: 1}) == parse_polynomial("c - 6")


def test_substitute_matches_termwise_sum():
    rng = random.Random(31)
    for _ in range(40):
        p = rand_poly(rng, nterms=6)
        values = {ParamId(0, "ab"[k]): rand_cyc(rng) for k in range(2)}
        want = Polynomial()
        for m, c in p.terms.items():
            t = Polynomial.constant(c)
            for v, e in m:
                t = t * (Polynomial.constant(values[v]) if v in values
                         else Polynomial.variable(v)) ** e
            want = want + t
        got = p.substitute(values)
        assert got == want
        assert all(got.terms.values())


def test_parse_str_roundtrip():
    rng = random.Random(29)
    for _ in range(40):
        p = rand_poly(rng)
        assert parse_polynomial(str(p)) == p


def test_parse_grammar():
    assert parse_polynomial("zb") == Polynomial.constant(ZETA * ZETA)
    assert parse_polynomial("i*z") == Polynomial.constant(IMAG * ZETA)
    assert parse_polynomial("w^4 - w^2 + 1") == Polynomial()
    assert parse_polynomial("2*(a + b)^2") == parse_polynomial(
        "2*a^2 + 4*a*b + 2*b^2")
    assert parse_polynomial("-a - -b") == parse_polynomial("b - a")
    assert parse_polynomial("1/2*a") == parse_polynomial("a") * \
        Cyclotomic.rational(1, 2)
    assert parse_cyclotomic("3 + 2*i") == IMAG * 2 + 3
    # a leading sign negates its whole term; a minus after * or after
    # another sign is part of the atom, so it binds tighter than ^
    assert parse_polynomial("-a^2") == -parse_polynomial("a^2")
    assert parse_polynomial("2*-a^3") == parse_polynomial("-2*a^3")
    assert parse_polynomial("2*-a^2") == parse_polynomial("2*a^2")
    assert parse_polynomial("- -a^2") == -parse_polynomial("a^2")
    assert parse_polynomial("a^0*b*a^2*a") == parse_polynomial("b*a^3")
    assert parse_polynomial("0^0 + 0*a + (a - a)^0") == Polynomial.constant(2)
    # an exponent binds to one atom, a second exponent is left over,
    # and a minus after * negates only the factor after it
    for text in ("a^2^3", "z^2^3", "2^2^2", "(a)^2^3"):
        with pytest.raises(PolyParseError, match="trailing input"):
            parse_polynomial(text)
    for text in ("a^1/0", "a^1/2"):
        with pytest.raises(PolyParseError, match="exponent must be an integer"):
            parse_polynomial(text)
    assert parse_polynomial("a*b ^ 2") == parse_polynomial("a*b^2")
    assert parse_polynomial("2*-a^2*b") == parse_polynomial("2*a^2*b")
    assert parse_polynomial("-a^2*b") == -parse_polynomial("a^2*b")
    assert parse_polynomial("y1_11*x1_11").terms == parse_polynomial(
        "x1_11*y1_11").terms
    # an exponent after a space binds to the atom before it, also inside
    # a product and after a unary minus; any decimal digit is a digit
    for text, want in (("a ^2*b", "a^2*b"), ("2*-a ^ 3*b", "-2*a^3*b"),
                       ("zb ^ 3", "1"), ("3*-zb^3", "-3"),
                       ("x1_11 ^ 2*y1_11", "x1_11^2*y1_11"),
                       ("\u0663*a", "3*a"), ("\u0663", "3")):
        assert str(parse_polynomial(text)) == want, text


def test_parse_sum_matches_termwise_sum():
    # a long sum whose terms repeat and cancel: the parser's one-dict
    # sum must agree with folding the parsed terms by + and -
    rng = random.Random(37)
    for _ in range(20):
        pieces = []
        for _ in range(rng.randint(1, 60)):
            mono = "*".join(f"{v}^{rng.randint(1, 2)}"
                            for v in rng.sample("abc", rng.randint(0, 2)))
            coeff = str(rng.randint(1, 3))
            pieces.append((rng.choice("+-"), f"{coeff}*{mono}" if mono else coeff))
        text = " ".join(f"{op} {body}" for op, body in pieces)
        want = Polynomial()
        for op, body in pieces:
            t = parse_polynomial(body)
            want = want - t if op == "-" else want + t
        got = parse_polynomial(text)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(got.terms.values())
    assert parse_polynomial("a + b - a + 2*b - 3*b") == Polynomial()
    assert parse_polynomial("-a + a").terms == {}


def test_parse_errors():
    # bad input -> the part of its error message that names it
    named = {"x1_1": "'x1_1'", "e11": "'e11'", "@": "'@'", "1/0": "'1/0'",
             "a + 3/00": "'3/00'", "2 * y": "' y'", "a^1/0": "integer",
             "2*1/0*a": "zero denominator in '1/0'",
             "1/0^2": "zero denominator in '1/0'",
             "a^2*1/0": "zero denominator in '1/0'",
             "1/0 $": "bad token at ' $'"}
    unnamed = ("a +", "(a", "a^b", "2**a", "", "a^1/2", "a)", "1 2", "a^",
               "-")

    for bad in (*unnamed, *named):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(bad)
        assert named.get(bad, "") in str(err.value), bad
    with pytest.raises(PolyParseError):
        parse_cyclotomic("a + 1")


CORPUS_SHA256 = (
    "d9ad37e678562f3c61e42b2ccf1d147363a41712d23f5c766d818b56915a9cae")
# pieces of the golden corpus: atoms, bad and zero-denominator atoms
# among them, and operator fragments, some of them bad
_CORPUS_ATOMS = ("a", "b", "a2", "g13", "x3_12", "y1_11", "z1_21", "x1_1",
                 "z", "zb", "i", "w", "0", "1", "2", "12", "3/2", "1/0",
                 "7/00", "0/5")
_CORPUS_FRAGMENTS = ("+", "-", "*", " ", " + ", " - ", "(", ")", "^", "^2",
                     "^ 3", "^0", "^1/2", "**", "$", "e", "x")


def _corpus_outcomes(n, seed):
    """One line per corpus string: its parse, as str() and the sorted
    reprs of its terms, or its PolyParseError message."""
    rng = random.Random(seed)
    for _ in range(n):
        text = "".join(
            rng.choice(_CORPUS_ATOMS if rng.random() < 0.5
                       else _CORPUS_FRAGMENTS)
            for _ in range(rng.randint(1, 7)))
        try:
            p = parse_polynomial(text)
        except PolyParseError as exc:
            yield f"{text!r} ! {exc}"
        else:
            yield f"{text!r} = {p} {sorted(map(repr, p.terms.items()))}"


def test_parse_golden_corpus():
    # every result and error message of 20000 seeded random strings,
    # pinned by their sha256
    lines = list(_corpus_outcomes(20000, 41))
    assert sum(" = " in t for t in lines) > 1000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CORPUS_SHA256


def test_printing_deterministic():
    p = parse_polynomial("b + a + a^2 + z*a*b")
    assert str(p) == "a^2 + z*a*b + a + b"
    assert str(parse_polynomial("(1+z)*a")) == "(1 + z)*a"
    assert str(Polynomial()) == "0"


def test_print_order_matches_nested_key():
    # the print order against an independent copy of its key
    # (-degree, [(variable key, -exponent), ...]), built without the memo
    def nested(item):
        m = item[0]
        return (-sum(e for _, e in m), [(v.key(), -e) for v, e in m])

    rng = random.Random(47)
    pool = [A, B, *_POOL]
    for _ in range(400):
        variables = rng.sample(pool, 3)
        terms = {}
        for _ in range(rng.randint(0, 8)):
            chosen = sorted(rng.sample(variables, rng.randint(0, 3)),
                            key=lambda v: v.key())
            m = tuple((v, rng.randint(1, 3)) for v in chosen)
            terms[m] = rand_cyc(rng) or ONE
        p = Polynomial(terms)
        want = _signed_sum(_term_str(m, c)
                           for m, c in sorted(terms.items(), key=nested))
        assert str(p) == want


def test_variables():
    p = parse_polynomial("a^2*b + x3_12")
    assert p.variables() == [A, B, X]


# -- the parser against the same expression built with operators ------

_LEAVES = [
    ("a", Polynomial.variable(A)),
    ("b", Polynomial.variable(B)),
    ("a2", Polynomial.variable(ParamId(2, "a"))),
    ("g13", Polynomial.variable(ParamId(13, "g"))),
    ("x3_12", Polynomial.variable(X)),
    ("y27_33", Polynomial.variable(BrentVar(1, 27, 3, 3))),
    ("z1_21", Polynomial.variable(BrentVar(2, 1, 2, 1))),
    ("z", Polynomial.constant(ZETA)),
    ("zb", Polynomial.constant(ZETA_BAR)),
    ("i", Polynomial.constant(IMAG)),
    ("w", Polynomial.constant(ROOT12)),
]

# an expression is (text, precedence, polynomial); precedence 0 is a
# sum, 1 a product or a negated factor, 2 a power, 3 an atom
_numbers = st.builds(
    lambda p, q: (f"{p}/{q}", 3, Polynomial.constant(Cyclotomic.rational(p, q)))
    if q > 1 else (str(p), 3, Polynomial.constant(p)),
    st.integers(0, 12), st.integers(1, 5))
_atoms = _numbers | st.sampled_from(_LEAVES).map(lambda t: (t[0], 3, t[1]))


def _wrap(expr, prec):
    text, p, _ = expr
    return text if p >= prec else f"({text})"


def _grow(children):
    paren = children.map(lambda e: (f"({e[0]})", 3, e[2]))
    power = st.builds(
        lambda e, n: (f"{_wrap(e, 3)}^{n}", 2, e[2] ** n),
        children, st.integers(0, 3))
    neg = children.map(lambda e: (f"-{_wrap(e, 3)}", 1, -e[2]))
    product = st.lists(children, min_size=2, max_size=4).map(
        lambda es: ("*".join(_wrap(e, 1) for e in es), 1,
                    _product(e[2] for e in es)))
    total = st.lists(st.tuples(st.sampled_from("+-"), children),
                     min_size=1, max_size=4).map(_sum)
    return paren | power | neg | product | total


def _product(polys):
    out = Polynomial.constant(1)
    for p in polys:
        out = out * p
    return out


def _sum(signed):
    text, value = "", Polynomial()
    for k, (sign, e) in enumerate(signed):
        body = _wrap(e, 1)
        if sign == "-":
            text += f"- {body}" if k == 0 else f" - {body}"
            value = value - e[2]
        else:
            text += body if k == 0 else f" + {body}"
            value = value + e[2]
    return text, 0, value


expressions = st.recursive(_atoms, _grow, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(expressions)
def test_parse_matches_operator_build(expr):
    text, _, value = expr
    got = parse_polynomial(text)
    assert got == value
    assert all(got.terms.values())
    assert parse_polynomial(str(got)) == got
    # the same product spelled token by token
    spaced = text.replace("*", " * ").replace("^", " ^ ")
    assert parse_polynomial(spaced) == value
