"""The invariant subspace of N under the full symmetry group.

The even basis indices fall into 12 classes Q1..Q12 under the induced
S3 x S3 action; the class sums gamma_1..gamma_12 form a basis of the
invariant subspace.  The projection of a tensor onto that subspace is
the coordinate-wise average r_i(w)/|Q_i|; the orbit sum of a tensor
with orbit length l is l times the projection.
"""

from fractions import Fraction
from functools import lru_cache

from .cyclotomic import Cyclotomic, ONE, _canon, _make, _signed_sum
from .poly import Polynomial, add_into, _term_str
from .tensors import INDICES, POSITION, Tensor, index_is_even, tensor_sum
from . import group

__all__ = [
    "GammaVector", "ClassTableError", "compute_classes",
    "CLASS_SIZES", "CLASS_REPRESENTATIVES",
    "r_sum", "project", "orbit_sum", "gamma_to_tensor", "reynolds",
]

# Lengths and representatives of the classes, in table order.
CLASS_SIZES = (3, 18, 18, 36, 18, 6, 18, 18, 6, 18, 18, 6)
CLASS_REPRESENTATIVES = (
    ((1, 1), (1, 1), (1, 1)),
    ((1, 1), (1, 1), (2, 2)),
    ((1, 1), (1, 2), (2, 1)),
    ((1, 1), (1, 2), (1, 2)),
    ((1, 1), (2, 1), (1, 2)),
    ((1, 1), (2, 2), (3, 3)),
    ((1, 1), (2, 3), (2, 3)),
    ((1, 1), (2, 3), (3, 2)),
    ((1, 2), (2, 3), (3, 1)),
    ((1, 2), (2, 3), (1, 3)),
    ((1, 2), (3, 2), (1, 3)),
    ((1, 2), (3, 1), (2, 3)),
)


class ClassTableError(Exception):
    """The computed classes disagree with the expected table."""


@lru_cache(maxsize=None)
def compute_classes():
    """The orbits of G on the even indices, signs ignored (the action
    factors through S3 x S3), as frozensets: class Q_i, at place i - 1,
    is the position orbit of the i-th fixed representative.  The classes
    must have the expected sizes and partition the even indices."""
    orbit_of, orbits = group._position_orbits()
    classes = []
    covered = set()
    for cid, rep in enumerate(CLASS_REPRESENTATIVES, start=1):
        orbit = frozenset(INDICES[n] for n in orbits[orbit_of[POSITION[rep]]])
        if len(orbit) != CLASS_SIZES[cid - 1]:
            raise ClassTableError(f"class Q{cid} has {len(orbit)} indices, "
                                  f"expected {CLASS_SIZES[cid - 1]}")
        if orbit & covered:
            raise ClassTableError(f"class Q{cid} meets an earlier class")
        covered |= orbit
        classes.append(orbit)
    even = set(filter(index_is_even, INDICES))
    if covered != even:
        raise ClassTableError(f"the classes cover {len(covered)} indices, "
                              f"not the {len(even)} even indices")
    return tuple(classes)


@lru_cache(maxsize=None)
def _class_lookup():
    return {a: cid for cid, cls in enumerate(compute_classes(), start=1)
            for a in cls}


class GammaVector:
    """Coordinates of an invariant tensor in the basis gamma_1..gamma_12."""

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        if coords is None:
            coords = [Polynomial() for _ in range(12)]
        coords = tuple(Polynomial.coerce(c) for c in coords)
        assert len(coords) == 12
        self.coords = coords

    def __getitem__(self, i):
        """Coefficient at gamma_i, 1-based like the table."""
        if not 1 <= i <= 12:
            raise IndexError(i)
        return self.coords[i - 1]

    def __add__(self, other):
        return GammaVector([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return GammaVector([a - b for a, b in zip(self.coords, other.coords)])

    def scale(self, c):
        return GammaVector([p * Polynomial.coerce(c) for p in self.coords])

    def support(self):
        return frozenset(i for i in range(1, 13) if self[i])

    def __eq__(self, other):
        return isinstance(other, GammaVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __str__(self):
        return _signed_sum(_coord_str(i, p)
                           for i, p in enumerate(self.coords, start=1) if p)

    __repr__ = __str__


def _coord_str(i, p):
    """The nonzero coordinate p at gamma_i as a signed term.  A sum, or
    one term whose coefficient is a sum and which has variables, is
    printed in parentheses as a whole."""
    (m, c), *rest = p.terms.items()
    if rest or m and sum(1 for q in c.qbasis() if q) > 1:
        return f"({p})*g{i}", False
    if not m and (c == ONE or c == -ONE):
        return f"g{i}", c != ONE
    body, negate = _term_str(m, c)
    return f"{body}*g{i}", negate


def r_sum(w, i):
    """Sum of the coefficients of w over the indices of class Q_i."""
    terms = {}
    for alpha in compute_classes()[i - 1]:
        p = w.entries.get(alpha)
        if p is not None:
            add_into(terms, p.terms.items())
    return Polynomial(terms)


def project(w):
    """Projection onto the invariant subspace: coordinate i is
    r_i(w)/|Q_i|."""
    return orbit_sum(w, 1)


def orbit_sum(w, length):
    """Sum over the orbit of w, of the given length: coordinate i is
    r_i(w)*length/|Q_i|.  Entries share coefficient objects, so each
    class counts the entries that hold each object and adds its terms
    once, times count*length/|Q_i|; keying by id is safe since w holds
    every object for the whole call."""
    if not length:
        return GammaVector()
    lookup = _class_lookup()
    held = [{} for _ in range(12)]  # per class: id -> [object, count]
    for alpha, p in w.entries.items():
        cid = lookup.get(alpha)
        if cid is not None:
            held[cid - 1].setdefault(id(p), [p, 0])[1] += 1
    coords = []
    for size, objects in zip(CLASS_SIZES, held):
        terms = {}
        for p, n in objects.values():
            q = _canon(Fraction(n * length, size))
            add_into(terms, [(m, _make(*[x * q for x in c.coords]))
                             for m, c in p.terms.items()])
        coords.append(Polynomial(terms))
    return GammaVector(coords)


def gamma_to_tensor(v):
    entries = {}
    for cls, p in zip(compute_classes(), v.coords):
        if p:
            entries.update(dict.fromkeys(cls, p))
    return Tensor(entries)


def reynolds(w):
    """Group averaging (1/|G|) sum_g g w, computed directly.

    This is the independent route to the projection; project() is the
    class-sum shortcut.
    """
    elements = group.enumerate_group("G")
    total = tensor_sum(group.act_on_tensor(g, w) for g in elements)
    return total.scale(Cyclotomic.rational(1, len(elements)))
