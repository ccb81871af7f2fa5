import random
from fractions import Fraction

import pytest

from mm3sym.cyclotomic import Cyclotomic, ZETA, IMAG
from mm3sym.poly import (
    Polynomial, ParamId, BrentVar, parse_polynomial, parse_cyclotomic,
    var_from_str, PolyParseError,
)

A = ParamId(0, "a")
B = ParamId(0, "b")
X = BrentVar(0, 3, 1, 2)


def rand_cyc(rng):
    return Cyclotomic([Fraction(rng.randint(-4, 4)) for _ in range(4)])


def rand_poly(rng, nvars=3, nterms=4):
    variables = [ParamId(0, "abc"[k]) for k in range(nvars)]
    p = Polynomial()
    for _ in range(rng.randint(0, nterms)):
        t = Polynomial.constant(rand_cyc(rng))
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
    with pytest.raises(PolyParseError):
        var_from_str("q1")


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


def test_pow():
    p = Polynomial.variable(A) + 1
    assert p ** 0 == Polynomial.constant(1)
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


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


def test_map_vars():
    p = parse_polynomial("a^2*b + b")
    q = p.map_vars(lambda v: ParamId(4, v.letter))
    assert q == parse_polynomial("a4^2*b4 + b4")
    assert q.variables() == [ParamId(4, "a"), ParamId(4, "b")]


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
    assert parse_polynomial("1/2*a") == parse_polynomial("a").scale(
        Cyclotomic.rational(1, 2))
    assert parse_cyclotomic("3 + 2*i") == IMAG * 2 + 3


def test_parse_errors():
    for bad in ("a +", "(a", "a^b", "e11", "2**a", ""):
        with pytest.raises(PolyParseError):
            parse_polynomial(bad)
    with pytest.raises(PolyParseError):
        parse_cyclotomic("a + 1")


def test_printing_deterministic():
    p = parse_polynomial("b + a + a^2 + z*a*b")
    assert str(p) == "a^2 + z*a*b + a + b"
    assert str(parse_polynomial("(1+z)*a")) == "(1 + z)*a"
    assert str(Polynomial()) == "0"


def test_degree_and_variables():
    p = parse_polynomial("a^2*b + x3_12")
    assert p.total_degree() == 3
    assert p.variables() == [A, B, X]
