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
        return Polynomial(add_into({}, self._substituted(assignment)))

    def _substituted(self, assignment):
        # a monomial stops at its first zero factor: its term drops out.
        # The generator and the parser give every unit coefficient as the
        # ONE object, which the first value replaces instead of scaling.
        get = assignment.get
        coerce = Cyclotomic.coerce
        for m, c in self.terms.items():
            rest = []
            for v, e in m:
                x = get(v, _UNSET)
                if x is _UNSET:
                    rest.append((v, e))
                    continue
                x = coerce(x)
                if not x:
                    break
                if e != 1:
                    x = x ** e
                c = x if c is ONE else c * x
            else:
                yield tuple(rest), c

    def map_vars(self, fn):
        """Rename variables via fn (must stay injective on each monomial)."""
        terms = {}
        for m, c in self.terms.items():
            m2 = tuple(sorted(((fn(v), e) for v, e in m), key=_item_key))
            assert m2 not in terms, "variable renaming collision"
            terms[m2] = c
        return Polynomial(terms)

    def variables(self):
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return sorted(seen, key=_KEYS.__getitem__)

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
        keys = _KEYS

        def key(item):
            m = item[0]
            return (-sum([e for _, e in m]), [(keys[v], -e) for v, e in m])
        return sorted(self.terms.items(), key=key)

    def __str__(self):
        return _signed_sum(_term_str(m, c) for m, c in self._sorted_terms())

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


def _signed_sum(terms):
    """Join (body, sign_is_negative) pairs as "a - b + c", or "0" when
    there are none."""
    parts = []
    for body, negate in terms:
        if parts:
            parts.append(("- " if negate else "+ ") + body)
        else:
            parts.append("-" + body if negate else body)
    return " ".join(parts) if parts else "0"


def _term_str(m, c):
    """Render one term; returns (body, sign_is_negative).  The sign is
    read from the coefficient's coordinates in {1, z, i, i*z}; one with
    more than one nonzero coordinate is a sum and keeps its own signs,
    in parentheses."""
    if m and c == ONE:
        return _mono_str(m), False
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

_TOKEN_RE = re.compile(
    r"\s*("
    r"\d+(?:/\d+)?"       # number
    f"|{_BRENT_NAME}"
    r"|zb|[ziw]"          # constant
    f"|{_PARAM_NAME}"
    r"|[-+*^()]"          # operator
    r"|\S"                # anything else is a bad token
    r")"
)

# token text -> (kind, value), so that each text is resolved once: the
# operators and constants are fixed, numbers and variable names are
# added as they are first seen.  The kinds are the operators, "const"
# (a Cyclotomic), "var" (a variable) and "int" (a pair of the int and
# its Cyclotomic, for a number that may also be an exponent).
_TOKENS = {op: (op, op) for op in "-+*^()"}
_TOKENS.update(
    (name, ("const", c))
    for name, c in (("z", ZETA), ("zb", ZETA_BAR), ("i", IMAG), ("w", ROOT12)))
_END = (None, None)


class PolyParseError(ValueError):
    pass


def _tokenize(text):
    """One regex pass; the tokens end with the _END sentinel."""
    get = _TOKENS.get
    tokens = [get(t) or _new_token(t, text) for t in _TOKEN_RE.findall(text)]
    tokens.append(_END)
    return tokens


def _new_token(t, text):
    """Classify a token text not in _TOKENS by its first character and
    store it there.  A bad token raises, and a number with a zero
    denominator becomes a "zero" token that the parser rejects where it
    stands; neither is stored."""
    c = t[0]
    if c.isdecimal():
        p, _, q = t.partition("/")
        if not q:
            n = int(p)
            tok = ("int", (n, Cyclotomic.coerce(n)))
        elif not int(q):
            return ("zero", t)
        else:
            tok = ("const", Cyclotomic.rational(int(p), int(q)))
    elif c in "abcdfg":
        tok = ("var", ParamId(int(t[1:] or 0), c))
    elif len(t) > 1:
        tok = ("var", BrentVar("xyz".index(c), int(t[1:-3]),
                               int(t[-2]), int(t[-1])))
    else:
        bad = next(m for m in _TOKEN_RE.finditer(text) if m[1] == t)
        raise PolyParseError(f"bad token at {text[bad.start():]!r}")
    _TOKENS[t] = tok
    return tok


def var_from_str(s):
    if _VAR_RE.fullmatch(s) is None:
        raise PolyParseError(f"bad variable name {s!r}")
    return (_TOKENS.get(s) or _new_token(s, s))[1]


class _Parser:
    """Recursive descent over the token list:

        expr   := [+|-] term {(+|-) term}
        term   := factor {* factor}
        factor := {-} atom [^ integer]
        atom   := number | z | zb | i | w | variable | ( expr )

    A unary minus binds tighter than ^, so 2*-a^2 is 2*a^2."""

    __slots__ = ("tokens", "pos")

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def expr(self):
        """The term dict of a sum: one dict, not a copy per term."""
        tokens = self.tokens
        terms = {}
        kind = tokens[self.pos][0]
        while True:
            negate = kind == "-"
            if negate or kind == "+":
                self.pos += 1
            items = self.term()
            if negate:
                items = [(m, -c) for m, c in items]
            add_into(terms, items)
            kind = tokens[self.pos][0]
            if kind != "+" and kind != "-":
                return terms

    def term(self):
        """The (monomial, coefficient) items of a product.  Numbers,
        constants and variables fold into one coefficient and one
        exponent map; only a parenthesised factor is multiplied as a
        Polynomial."""
        tokens = self.tokens
        coeff = ONE
        exps = {}
        polys = []
        while True:
            kind, val = tokens[self.pos]
            self.pos += 1
            negate = False
            while kind == "-":
                negate = not negate
                kind, val = tokens[self.pos]
                self.pos += 1
            if kind == "(":
                val = self.expr()
                if tokens[self.pos][0] != ")":
                    raise PolyParseError("missing closing parenthesis")
                self.pos += 1
            elif kind == "int":
                kind, val = "const", val[1]
            elif kind == "zero":
                raise PolyParseError(f"zero denominator in {val!r}")
            elif kind != "var" and kind != "const":
                raise PolyParseError(f"unexpected token {val!r}")
            e = 1
            if tokens[self.pos][0] == "^":
                kind_e, val_e = tokens[self.pos + 1]
                self.pos += 2
                if kind_e != "int":
                    raise PolyParseError("exponent must be an integer")
                e = val_e[0]
            if negate and e & 1:
                coeff = -coeff
            if kind == "var":
                if e:
                    exps[val] = exps.get(val, 0) + e
            elif kind == "(":
                p = Polynomial(val)
                polys.append(p if e == 1 else p ** e)
            else:
                coeff = coeff * (val if e == 1 else val ** e)
            if tokens[self.pos][0] != "*":
                break
            self.pos += 1
        if not coeff:
            return ()
        mono = tuple(sorted(exps.items(), key=_item_key)) if exps else ()
        if not polys:
            return ((mono, coeff),)
        out = Polynomial({mono: coeff})
        for p in polys:
            out = out * p
        return out.terms.items()


def parse_polynomial(text):
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    out = Polynomial(parser.expr())
    if parser.pos != len(tokens) - 1:
        raise PolyParseError(f"trailing input in {text!r}")
    return out


def parse_cyclotomic(text):
    p = parse_polynomial(text)
    if not p.is_constant():
        raise PolyParseError(f"{text!r} is not a scalar")
    return p.constant_value()
