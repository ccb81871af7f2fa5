"""Sparse multivariate polynomials over Q(zeta_12).

Variables are either orbit-family parameters (a letter from the
alphabet a,b,c,d,f,g plus an orbit slot, written ``a`` or ``a2``) or
Brent-system coordinates (written ``x3_12`` for entry (1,2) of the
first factor of the 3rd rank-one term).  Terms are stored in a
dict mapping monomials to nonzero Cyclotomic coefficients, so equality
of term maps is equality of polynomials.
"""

import re
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import (
    Cyclotomic, ZERO, ONE, ZETA, ZETA_BAR, IMAG, ROOT12, _power, _signed_sum,
)

__all__ = [
    "ParamId", "BrentVar", "Polynomial",
    "parse_polynomial", "parse_cyclotomic", "var_from_str", "add_into",
]

class ParamId(NamedTuple):
    slot: int
    letter: str

    def key(self):
        return (0, self.slot, self.letter)

    def __str__(self):
        return self.letter if self.slot == 0 else f"{self.letter}{self.slot}"


class BrentVar(NamedTuple):
    factor: int  # 0, 1, 2 for the x, y, z factor
    term: int    # rank-one term index, 1-based
    row: int
    col: int

    def key(self):
        return (1, self.factor, self.term, self.row, self.col)

    def __str__(self):
        return f"{'xyz'[self.factor]}{self.term}_{self.row}{self.col}"


_UNSET = object()


class _Memo(dict):
    """fn(v) for each key v, computed on first lookup and kept."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, v):
        out = self[v] = self.fn(v)
        return out


# variable -> sort key and variable -> printed name, so that printing
# and sorting look each variable up instead of rebuilding its key tuple
# or formatting its name at every occurrence
_KEYS = _Memo(lambda v: v.key())
_NAMES = _Memo(str)


def _print_key(item):
    """Print-order key of a (monomial, coefficient) item:
    (-deg, [(key(v1), -e1), ...]), higher degree first."""
    m = item[0]
    return -sum(e for _, e in m), [(_KEYS[v], -e) for v, e in m]


def _item_key(pair):
    """Sort key of a (variable, exponent) pair within a monomial."""
    return _KEYS[pair[0]]


class Polynomial:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # monomial = tuple of (var, exp) sorted by var key, exp > 0
        self.terms = {} if terms is None else terms

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, c):
        c = Cyclotomic.coerce(c)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, v):
        return cls({((v, 1),): ONE})

    @staticmethod
    def coerce(x):
        if isinstance(x, Polynomial):
            return x
        return Polynomial.constant(x)

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = Polynomial.coerce(other)
        return Polynomial(add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Polynomial.coerce(other))

    def __rsub__(self, other):
        return Polynomial.coerce(other) + (-self)

    def __mul__(self, other):
        other = Polynomial.coerce(other)
        # Q(zeta_12) is a field and terms hold only nonzero
        # coefficients, so no product c1 * c2 is 0
        if len(self.terms) == 1 == len(other.terms):
            # one term each, as every nonzero catalog cell is
            [(m1, c1)] = self.terms.items()
            [(m2, c2)] = other.terms.items()
            return Polynomial({_mono_mul(m1, m2): c1 * c2})
        return Polynomial(add_into({}, [
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()]))

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, Polynomial.constant(1))

    # -- substitution ------------------------------------------------

    def substitute(self, assignment):
        """Replace the given variables by Cyclotomic values, leaving
        the rest symbolic.  A monomial stops at its first zero factor:
        its term drops out."""
        get = assignment.get
        items = []
        for m, c in self.terms.items():
            rest = []
            for v, e in m:
                x = get(v, _UNSET)
                if x is _UNSET:
                    rest.append((v, e))
                    continue
                x = Cyclotomic.coerce(x)
                if not x:
                    break
                c = c * x ** e
            else:
                items.append((tuple(rest), c))
        return Polynomial(add_into({}, items))

    def variables(self):
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return sorted(seen, key=_KEYS.__getitem__)

    # -- predicates --------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant_value(self):
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms[()]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = Polynomial.coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- printing ----------------------------------------------------

    def __str__(self):
        return _signed_sum(_term_str(m, c) for m, c in
                           sorted(self.terms.items(), key=_print_key))

    def __repr__(self):
        return f"<Polynomial {self}>"


def add_into(acc, items):
    """Add (key, coefficient) pairs into the dict acc in place and
    return it.  A key whose sum cancels is removed, so one dict serves a
    whole sum and ends in the order that repeated + would give."""
    for k, c in items:
        s = acc.get(k)
        if s is None:
            acc[k] = c
        else:
            s = s + c
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=_item_key))


def _mono_str(m):
    names = _NAMES
    return "*".join([names[v] if e == 1 else f"{names[v]}^{e}" for v, e in m])


def _term_str(m, c):
    """Render one term; returns (body, sign_is_negative).  The sign is
    read from the coefficient's coordinates in {1, z, i, i*z}; one with
    more than one nonzero coordinate is a sum and keeps its own signs,
    in parentheses."""
    nonzero = [x for x in c.qbasis() if x != 0]
    if len(nonzero) > 1:
        return (f"({c})*{_mono_str(m)}" if m else f"({c})"), False
    # a rational multiple of 1, z, i or i*z
    neg = bool(nonzero) and nonzero[0] < 0
    if neg:
        c = -c
    if not m:
        return str(c), neg
    if c == ONE:
        return _mono_str(m), neg
    return f"{c}*{_mono_str(m)}", neg


# -- parsing ---------------------------------------------------------

# the variable names: a Brent coordinate and an orbit-family parameter
_BRENT_NAME = r"[xyz]\d+_\d\d"
_PARAM_NAME = r"[abcdfg]\d*"
_VAR_RE = re.compile(f"{_BRENT_NAME}|{_PARAM_NAME}")

# groups: an operator, a ^ with the integer that may follow it, and an
# atom (a variable, a number or a constant); a match with none of them
# is a bad token
_TOKEN_RE = re.compile(
    r"\s*(?:([-+*()])"
    r"|(\^)(?:\s*(\d+(?:/\d+)?))?"
    rf"|({_BRENT_NAME}|\d+(?:/\d+)?|zb|[ziw]|{_PARAM_NAME})"
    r"|\S)"
)

_CONSTANTS = {"z": ZETA, "zb": ZETA_BAR, "i": IMAG, "w": ROOT12}
_END = (None, None)


class PolyParseError(ValueError):
    pass


def _tokenize(text):
    """One regex pass; the tokens end with the _END sentinel.  An
    operator's token is (op, op), an exponent's ("^", its digits) or
    ("^", None) when none follow, and an atom's ("atom", text)."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        op, caret, digits, atom = m.groups()
        if op:
            tokens.append((op, op))
        elif caret:
            tokens.append(("^", digits))
        elif atom:
            tokens.append(("atom", atom))
        else:
            raise PolyParseError(f"bad token at {text[m.start():]!r}")
    tokens.append(_END)
    return tokens


def _atom(t):
    """The polynomial of an atom's text such as a, x1_11, 3/2 or zb."""
    if t in _CONSTANTS:
        return Polynomial.constant(_CONSTANTS[t])
    if not t[0].isdecimal():
        return Polynomial.variable(var_from_str(t))
    p, _, q = t.partition("/")
    if not q:
        return Polynomial.constant(int(p))
    if not int(q):
        raise PolyParseError(f"zero denominator in {t!r}")
    return Polynomial.constant(Cyclotomic.rational(int(p), int(q)))


def var_from_str(s):
    if _VAR_RE.fullmatch(s) is None:
        raise PolyParseError(f"bad variable name {s!r}")
    if s[0] in "abcdfg":
        return ParamId(int(s[1:] or 0), s[0])
    return BrentVar("xyz".index(s[0]), int(s[1:-3]), int(s[-2]), int(s[-1]))


def _expr(tokens, pos):
    """Recursive descent over the token list from pos; returns the term
    dict of the sum there and the position after it:

        expr   := [+|-] term {(+|-) term}
        term   := factor {* factor}
        factor := {-} atom [^ integer]
        atom   := number | z | zb | i | w | variable | ( expr )

    A unary minus binds tighter than ^, so 2*-a^2 is 2*a^2.  One dict
    holds the sum, not a copy per term."""
    terms = {}
    kind = tokens[pos][0]
    while True:
        negate = kind == "-"
        if negate or kind == "+":
            pos += 1
        term = None
        while True:
            kind, t = tokens[pos]
            pos += 1
            minus = False
            while kind == "-":
                minus = not minus
                kind, t = tokens[pos]
                pos += 1
            if kind == "atom":
                x = _atom(t)
            elif kind == "(":
                inner, pos = _expr(tokens, pos)
                if tokens[pos][0] != ")":
                    raise PolyParseError("missing closing parenthesis")
                pos += 1
                x = Polynomial(inner)
            else:
                raise PolyParseError(f"unexpected token {kind!r}")
            if minus:
                x = -x
            if tokens[pos][0] == "^":
                e = tokens[pos][1]
                pos += 1
                if e is None or not e.isdecimal():
                    raise PolyParseError("exponent must be an integer")
                x = x ** int(e)
            term = x if term is None else term * x
            kind = tokens[pos][0]
            if kind != "*":
                break
            pos += 1
        add_into(terms, (-term if negate else term).terms.items())
        if kind != "+" and kind != "-":
            return terms, pos


def parse_polynomial(text):
    tokens = _tokenize(text)
    terms, pos = _expr(tokens, 0)
    if pos != len(tokens) - 1:
        raise PolyParseError(f"trailing input in {text!r}")
    return Polynomial(terms)


def parse_cyclotomic(text):
    p = parse_polynomial(text)
    if not p.is_constant():
        raise PolyParseError(f"{text!r} is not a scalar")
    return p.constant_value()
