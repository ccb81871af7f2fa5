"""Sparse multivariate polynomials over Q(zeta_12).

Variables are either orbit-family parameters (a letter from the
alphabet a,b,c,d,f,g plus an orbit slot, written ``a`` or ``a2``) or
Brent-system coordinates (written ``x3_12`` for entry (1,2) of the
first factor of the 3rd rank-one term).  Terms are stored in a
dict mapping monomials to nonzero Cyclotomic coefficients, so equality
of term maps is equality of polynomials.
"""

import re
from typing import NamedTuple

from .cyclotomic import Cyclotomic, ONE, ZETA, ZETA_BAR, IMAG, ROOT12

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


def _var_key(v):
    return v.key()


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
        return Polynomial.constant(Cyclotomic.coerce(x))

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
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                if not c:
                    continue
                m = _mono_mul(m1, m2)
                s = terms.get(m)
                if s is None:
                    terms[m] = c
                else:
                    s = s + c
                    if s:
                        terms[m] = s
                    else:
                        del terms[m]
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c):
        c = Cyclotomic.coerce(c)
        if not c:
            return Polynomial()
        return Polynomial({m: v * c for m, v in self.terms.items()})

    # -- substitution ------------------------------------------------

    def substitute(self, assignment):
        """Replace the given variables by Cyclotomic values, leaving
        the rest symbolic."""
        terms = {}
        for m, c in self.terms.items():
            coeff = c
            rest = []
            for v, e in m:
                if v in assignment:
                    coeff = coeff * Cyclotomic.coerce(assignment[v]) ** e
                else:
                    rest.append((v, e))
            if not coeff:
                continue
            rest = tuple(rest)
            s = terms.get(rest)
            if s is None:
                terms[rest] = coeff
            else:
                s = s + coeff
                if s:
                    terms[rest] = s
                else:
                    del terms[rest]
        return Polynomial(terms)

    def map_vars(self, fn):
        """Rename variables via fn (must stay injective on each monomial)."""
        terms = {}
        for m, c in self.terms.items():
            m2 = tuple(sorted(((fn(v), e) for v, e in m), key=lambda p: _var_key(p[0])))
            assert m2 not in terms, "variable renaming collision"
            terms[m2] = c
        return Polynomial(terms)

    def variables(self):
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return sorted(seen, key=_var_key)

    # -- predicates --------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant_value(self):
        if not self.terms:
            return Cyclotomic()
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms[()]

    def __eq__(self, other):
        if isinstance(other, (int, Cyclotomic)):
            other = Polynomial.coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def total_degree(self):
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    # -- printing ----------------------------------------------------

    def _sorted_terms(self):
        def key(item):
            m, _ = item
            return (-sum(e for _, e in m), tuple((_var_key(v), -e) for v, e in m))
        return sorted(self.terms.items(), key=key)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self._sorted_terms():
            body, negate = _term_str(m, c)
            if not parts:
                parts.append("-" + body if negate else body)
            else:
                parts.append(("- " if negate else "+ ") + body)
        return " ".join(parts)

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
    return tuple(sorted(exps.items(), key=lambda p: _var_key(p[0])))


def _mono_str(m):
    parts = []
    for v, e in m:
        parts.append(str(v) if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def _term_str(m, c):
    """Render one term; returns (body, sign_is_negative)."""
    q = c.qbasis()
    nonzero = [x for x in q if x != 0]
    if not m:
        s = str(c)
        if s.startswith("-") and len(nonzero) == 1:
            return s[1:], True
        if len(nonzero) > 1:
            return "(" + s + ")", False
        return s, False
    if len(nonzero) == 1:
        # simple coefficient: rational multiple of 1, z, i, or i*z
        neg = nonzero[0] < 0
        cc = -c if neg else c
        if cc == ONE:
            return _mono_str(m), neg
        return f"{cc}*{_mono_str(m)}", neg
    return f"({c})*{_mono_str(m)}", False


# -- parsing ---------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:/\d+)?)"
    r"|(?P<brent>[xyz]\d+_\d\d)"
    r"|(?P<zb>zb)"
    r"|(?P<const>[ziw])"
    r"|(?P<param>[abcdfg]\d*)"
    r"|(?P<op>[-+*^()])"
    r")"
)

_CONSTS = {"z": ZETA, "zb": ZETA_BAR, "i": IMAG, "w": ROOT12}


class PolyParseError(ValueError):
    pass


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise PolyParseError(f"bad token at {text[pos:]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


def var_from_str(s):
    if re.fullmatch(r"[xyz]\d+_\d\d", s):
        factor = "xyz".index(s[0])
        term, rc = s[1:].split("_")
        return BrentVar(factor, int(term), int(rc[0]), int(rc[1]))
    m = re.fullmatch(r"([abcdfg])(\d*)", s)
    if m is None:
        raise PolyParseError(f"bad variable name {s!r}")
    return ParamId(int(m.group(2) or 0), m.group(1))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        # one dict for the whole sum, not a copy per term
        terms = {}
        kind, val = self.peek()
        while True:
            negate = False
            if kind == "op" and val in "+-":
                self.take()
                negate = val == "-"
            items = self.term().terms.items()
            if negate:
                items = [(m, -c) for m, c in items]
            add_into(terms, items)
            kind, val = self.peek()
            if not (kind == "op" and val in "+-"):
                return Polynomial(terms)

    def term(self):
        out = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                out = out * self.factor()
            else:
                return out

    def factor(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "number" or "/" in val:
                raise PolyParseError("exponent must be an integer")
            return base ** int(val)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "number":
            if "/" in val:
                p, q = val.split("/")
                return Polynomial.constant(Cyclotomic.rational(int(p), int(q)))
            return Polynomial.constant(int(val))
        if kind in ("zb", "const"):
            return Polynomial.constant(_CONSTS[val])
        if kind in ("param", "brent"):
            return Polynomial.variable(var_from_str(val))
        if kind == "op" and val == "(":
            out = self.expr()
            kind, val = self.take()
            if (kind, val) != ("op", ")"):
                raise PolyParseError("missing closing parenthesis")
            return out
        if kind == "op" and val == "-":
            return -self.atom()
        raise PolyParseError(f"unexpected token {val!r}")


def parse_polynomial(text):
    parser = _Parser(_tokenize(text))
    out = parser.expr()
    if parser.pos != len(parser.tokens):
        raise PolyParseError(f"trailing input in {text!r}")
    return out


def parse_cyclotomic(text):
    p = parse_polynomial(text)
    if not p.is_constant():
        raise PolyParseError(f"{text!r} is not a scalar")
    return p.constant_value()
