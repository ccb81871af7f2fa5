"""Exact arithmetic in the degree-4 cyclotomic field Q(zeta_12).

Elements are stored as coordinates in the power basis {1, w, w^2, w^3},
where w is a primitive 12th root of unity, reduced by the minimal
polynomial w^4 = w^2 - 1.  The field contains both the primitive cube
root z = w^2 - 1 and i = w^3, so every scalar that appears anywhere in
the toolkit lives in a single canonical representation.
"""

from fractions import Fraction

__all__ = [
    "Cyclotomic", "ZERO", "ONE", "ZETA", "ZETA_BAR", "IMAG", "ROOT12",
]


def _canon(x):
    """A rational coordinate in canonical form: an int when it is
    integral, otherwise a Fraction.  Floats and other types are
    rejected, so inexact values never enter the field."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"coordinate must be an int or a Fraction, not {x!r}")


def _power(x, n, one):
    """x ** n by square-and-multiply, for any ring element x whose
    multiplicative identity is one; stops after the last exponent bit,
    so x ** 1 makes no product."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return one if out is None else out
        x = x * x


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


def _basis_str(qs, symbols):
    """The sum of the coordinates qs times the basis symbols, the first
    "1" and unwritten: "2 - z + 1/2*i*z", or "0"."""
    return _signed_sum(
        (str(abs(q)) if sym == "1" else sym if abs(q) == 1
         else f"{abs(q)}*{sym}", q < 0)
        for q, sym in zip(qs, symbols) if q)


def _make(c0, c1, c2, c3):
    """Wrap coordinates that are already ints or Fractions; only a
    Fraction result needs normalizing."""
    out = object.__new__(Cyclotomic)
    if type(c0) is type(c1) is type(c2) is type(c3) is int:
        out.coords = (c0, c1, c2, c3)
    else:
        out.coords = (_canon(c0), _canon(c1), _canon(c2), _canon(c3))
    return out


class Cyclotomic:
    """An element of Q(zeta_12).  Each coordinate is an int when it is
    integral and a Fraction otherwise, never a float; integer
    arithmetic is the fast path."""

    __slots__ = ("coords",)

    def __init__(self, coords=(0, 0, 0, 0)):
        c = tuple(_canon(x) for x in coords)
        if len(c) != 4:
            raise ValueError("need 4 coordinates")
        self.coords = c

    # -- constructors ------------------------------------------------

    @classmethod
    def rational(cls, p, q=None):
        return cls((p if q is None else Fraction(p, q), 0, 0, 0))

    @staticmethod
    def coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return _make(x, 0, 0, 0)
        raise TypeError(f"cannot coerce {x!r} to Cyclotomic")

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = Cyclotomic.coerce(other)
        a, b = self.coords, other.coords
        return _make(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __neg__(self):
        a = self.coords
        return _make(-a[0], -a[1], -a[2], -a[3])

    def __sub__(self, other):
        return self + (-Cyclotomic.coerce(other))

    def __rsub__(self, other):
        return Cyclotomic.coerce(other) + (-self)

    def __mul__(self, other):
        other = Cyclotomic.coerce(other)
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = other.coords
        # the product has degree <= 6; reduce by w^4 = w^2 - 1,
        # w^5 = w^3 - w, w^6 = -1
        p4 = a1 * b3 + a2 * b2 + a3 * b1
        p5 = a2 * b3 + a3 * b2
        return _make(
            a0 * b0 - p4 - a3 * b3,
            a0 * b1 + a1 * b0 - p5,
            a0 * b2 + a1 * b1 + a2 * b0 + p4,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + p5,
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, ONE)

    def galois(self, k):
        """Image under the automorphism w -> w^k, k in {1, 5, 7, 11}."""
        c0, c1, c2, c3 = self.coords
        if k == 1:
            return self
        if k == 5:
            # w -> w^3 - w, w^2 -> 1 - w^2, w^3 -> w^3
            return _make(c0 + c2, -c1, -c2, c1 + c3)
        if k == 7:
            # w -> -w
            return _make(c0, -c1, c2, -c3)
        if k == 11:
            # w -> w^-1 = w - w^3
            return _make(c0 + c2, c1, -c2, -c1 - c3)
        raise ValueError("k must be coprime to 12")

    def inv(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_12)")
        # product of the other Galois conjugates; times self it is rational
        cof = self.galois(5) * self.galois(7) * self.galois(11)
        norm = (self * cof).coords
        assert norm[1] == norm[2] == norm[3] == 0
        n = norm[0]
        return _make(*(Fraction(c, n) for c in cof.coords))

    def __truediv__(self, other):
        return self * Cyclotomic.coerce(other).inv()

    def __rtruediv__(self, other):
        return Cyclotomic.coerce(other) * self.inv()

    # -- predicates and canonical form -------------------------------

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.coerce(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def is_rational(self):
        return self.coords[1] == 0 and self.coords[2] == 0 and self.coords[3] == 0

    def as_fraction(self):
        """The rational value: an int when integral, else a Fraction."""
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    # -- printing ----------------------------------------------------

    def qbasis(self):
        """Coordinates (q0, q1, q2, q3) in the basis {1, z, i, i*z}."""
        c0, c1, c2, c3 = self.coords
        return (c0 + c2, c2, c3, -c1)

    def __str__(self):
        return _basis_str(self.qbasis(), ("1", "z", "i", "i*z"))

    def __repr__(self):
        return f"Cyclotomic({self.coords})"


ZERO = Cyclotomic()
ONE = Cyclotomic.rational(1)
ZETA = Cyclotomic((-1, 0, 1, 0))      # z = w^4 = w^2 - 1
ZETA_BAR = Cyclotomic((0, 0, -1, 0))  # conjugate of z; equals z^2 = -w^2
IMAG = Cyclotomic((0, 0, 0, 1))
ROOT12 = Cyclotomic((0, 1, 0, 0))
