import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mm3sym.cyclotomic import (
    Cyclotomic, ZERO, ONE, ZETA, ZETA_BAR, IMAG, ROOT12,
)
from mm3sym.poly import parse_cyclotomic


def rand_cyc(rng):
    return Cyclotomic([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(4)])


def test_defining_identities():
    assert ROOT12 ** 12 == ONE
    assert ROOT12 ** 6 == -ONE
    assert ROOT12 ** 4 == ROOT12 ** 2 - ONE
    assert ZETA == ROOT12 ** 4
    assert ZETA ** 3 == ONE
    assert ONE + ZETA + ZETA ** 2 == ZERO
    assert IMAG == ROOT12 ** 3
    assert IMAG * IMAG == -ONE
    assert ZETA_BAR == ZETA ** 2
    assert ZETA * ZETA_BAR == ONE


def test_conjugation():
    # complex conjugation is the automorphism w -> w^11 = w^-1
    assert ZETA.galois(11) == ZETA_BAR
    assert IMAG.galois(11) == -IMAG
    rng = random.Random(7)
    for _ in range(50):
        x = rand_cyc(rng)
        assert x.galois(11).galois(11) == x
        y = rand_cyc(rng)
        assert (x * y).galois(11) == x.galois(11) * y.galois(11)


def test_ring_axioms():
    rng = random.Random(11)
    for _ in range(50):
        x, y, z = rand_cyc(rng), rand_cyc(rng), rand_cyc(rng)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x * ONE == x
        assert x + ZERO == x
        assert x - x == ZERO


def test_galois_automorphisms():
    rng = random.Random(13)
    for k in (1, 5, 7, 11):
        assert ROOT12.galois(k) == ROOT12 ** k
        for _ in range(20):
            x, y = rand_cyc(rng), rand_cyc(rng)
            assert (x + y).galois(k) == x.galois(k) + y.galois(k)
            assert (x * y).galois(k) == x.galois(k) * y.galois(k)
    with pytest.raises(ValueError):
        ONE.galois(2)


def test_inverse_and_division():
    assert (ONE + IMAG).inv() == (ONE - IMAG) * Cyclotomic.rational(1, 2)
    rng = random.Random(17)
    done = 0
    while done < 40:
        x = rand_cyc(rng)
        if not x:
            continue
        assert x * x.inv() == ONE
        assert (ONE / x) * x == ONE
        done += 1
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_rational_predicates():
    assert Cyclotomic.rational(3, 4).as_fraction() == Fraction(3, 4)
    assert Cyclotomic.rational(5).is_rational()
    assert not ZETA.is_rational()
    with pytest.raises(ValueError):
        ZETA.as_fraction()
    with pytest.raises(TypeError):
        Cyclotomic.coerce("nope")


def test_power_errors():
    with pytest.raises(ValueError):
        ZETA ** -1
    with pytest.raises(ValueError):
        ZETA ** 1.0


def test_pow_products(monkeypatch):
    x = ONE + IMAG * 2
    want = ONE
    for n in range(9):
        assert x ** n == want
        want = want * x
    # square-and-multiply stops after the last exponent bit
    calls = []
    mul = Cyclotomic.__mul__
    monkeypatch.setattr(Cyclotomic, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3)):
        calls.clear()
        x ** n
        assert len(calls) == products, n


def test_printing():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-ONE) == "-1"
    assert str(ZETA) == "z"
    assert str(IMAG) == "i"
    assert str(ZETA_BAR) == "-1 - z"
    assert str(ONE + IMAG * 2) == "1 + 2*i"
    assert str(ROOT12) == "-i*z"  # w = -i*z in the printing basis


def test_qbasis_roundtrip():
    rng = random.Random(19)
    for _ in range(50):
        x = rand_cyc(rng)
        q0, q1, q2, q3 = x.qbasis()
        back = (Cyclotomic.rational(q0) + ZETA * q1 + IMAG * q2
                + IMAG * ZETA * q3)
        assert back == x


def test_float_rejected():
    with pytest.raises(TypeError):
        Cyclotomic((0.5, 0, 0, 0))
    with pytest.raises(TypeError):
        Cyclotomic((0, 0, 1.0, 0))
    with pytest.raises(TypeError):
        Cyclotomic.rational(0.5)
    with pytest.raises(TypeError):
        Cyclotomic.coerce(0.5)


def test_integral_fractions_become_ints():
    x = Cyclotomic((Fraction(4, 2), Fraction(1, 2), True, 0))
    assert x.coords == (2, Fraction(1, 2), 1, 0)
    assert type(x.coords[0]) is int and type(x.coords[2]) is int
    assert type(Cyclotomic.rational(6, 3).coords[0]) is int


# -- property tests --------------------------------------------------

rationals = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 8)),
)
cyclotomics = st.builds(
    lambda cs: Cyclotomic(cs), st.tuples(rationals, rationals, rationals, rationals))
nonzero = cyclotomics.filter(bool)
GALOIS = (1, 5, 7, 11)


def assert_canonical(x):
    """int when integral, Fraction otherwise, never a float"""
    assert len(x.coords) == 4
    for c in x.coords:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            repr(x)


@settings(max_examples=150, deadline=None)
@given(cyclotomics, cyclotomics, cyclotomics)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x
    assert x + (-x) == ZERO and x - y == x + (-y)
    if x:
        assert (y / x) * x == y


@settings(max_examples=150, deadline=None)
@given(cyclotomics, cyclotomics, st.sampled_from(GALOIS))
def test_galois_ring_homomorphism(x, y, k):
    assert (x + y).galois(k) == x.galois(k) + y.galois(k)
    assert (x * y).galois(k) == x.galois(k) * y.galois(k)
    assert (-x).galois(k) == -x.galois(k)
    assert ONE.galois(k) == ONE


@settings(max_examples=150, deadline=None)
@given(nonzero)
def test_inverse_property(x):
    assert x * x.inv() == ONE
    assert x.inv().inv() == x


@settings(max_examples=100, deadline=None)
@given(cyclotomics, st.integers(0, 13))
def test_pow_matches_repeated_product(x, n):
    want = ONE
    for _ in range(n):
        want = want * x
    assert x ** n == want


@settings(max_examples=150, deadline=None)
@given(cyclotomics, nonzero, st.sampled_from(GALOIS), st.integers(0, 5))
def test_coordinates_stay_canonical(x, y, k, n):
    assert_canonical(x)
    for v in (x + y, x - y, -x, x * y, x ** n, x.galois(k),
              y.inv(), x / y, 1 / y, x / 3, 2 - x,
              parse_cyclotomic(str(x)), parse_cyclotomic(str(y.inv()))):
        assert_canonical(v)
    assert parse_cyclotomic(str(x)) == x


@settings(max_examples=100, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50).filter(bool))
def test_rational_is_canonical(p, q):
    x = Cyclotomic.rational(p, q)
    assert_canonical(x)
    assert x.as_fraction() == Fraction(p, q)
    assert_canonical(Cyclotomic.rational(p))
    assert_canonical(Cyclotomic.coerce(Fraction(p, q)))
