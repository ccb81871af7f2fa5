"""The invariant subspace of N under the full symmetry group.

The even basis indices fall into 12 classes Q1..Q12 under the induced
S3 x S3 action; the class sums gamma_1..gamma_12 form a basis of the
invariant subspace.  The projection of a tensor onto that subspace is
the coordinate-wise average r_i(w)/|Q_i|; the orbit sum of a tensor
with orbit length l is l times the projection.
"""

from functools import lru_cache

from .cyclotomic import Cyclotomic
from .poly import Polynomial
from .tensors import Tensor, all_indices, index_is_even, encode_index
from . import group

__all__ = [
    "OrbitClass", "GammaVector", "ClassTableError", "compute_classes",
    "class_of_index", "CLASS_SIZES", "CLASS_REPRESENTATIVES",
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


class OrbitClass:
    __slots__ = ("id", "members", "representative")

    def __init__(self, cid, members, representative):
        self.id = cid
        self.members = frozenset(members)
        self.representative = representative

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"<Q{self.id}: {len(self.members)} indices>"


# Elements of G whose images under phi generate S3 x S3: two line
# permutations (signs chosen for determinant 1), then sigma and rho.
_CLASS_GENERATORS = (
    group.GroupElement((2, 1, 3), (-1, 1, 1)),
    group.GroupElement((2, 3, 1)),
    group.GroupElement(bword="s"),
    group.GroupElement(bword="r"),
)


@lru_cache(maxsize=None)
def compute_classes():
    """Orbits of G on even indices, signs ignored (the action factors
    through S3 x S3), numbered by the fixed representatives and
    validated against the expected sizes."""
    even = [a for a in all_indices() if index_is_even(a)]
    if len(even) != 183:
        raise ClassTableError(f"expected 183 even indices, found {len(even)}")
    seen = set()
    orbits = []
    for a in even:
        if a in seen:
            continue
        orbit = {a}
        frontier = [a]
        while frontier:
            nxt = []
            for b in frontier:
                for g in _CLASS_GENERATORS:
                    c, _ = group.act_on_index(g, b)
                    if c not in orbit:
                        orbit.add(c)
                        nxt.append(c)
            frontier = nxt
        seen |= orbit
        orbits.append(orbit)
    if len(orbits) != 12:
        raise ClassTableError(f"expected 12 classes, found {len(orbits)}")

    classes = []
    used = set()
    for cid, rep in enumerate(CLASS_REPRESENTATIVES, start=1):
        matches = [k for k, orb in enumerate(orbits) if rep in orb]
        if len(matches) != 1 or matches[0] in used:
            raise ClassTableError(f"representative {rep} not in a unique class")
        used.add(matches[0])
        orb = orbits[matches[0]]
        if len(orb) != CLASS_SIZES[cid - 1]:
            raise ClassTableError(
                f"class Q{cid} has {len(orb)} indices, expected {CLASS_SIZES[cid - 1]}"
            )
        classes.append(OrbitClass(cid, orb, rep))
    return tuple(classes)


@lru_cache(maxsize=None)
def _class_lookup():
    table = {}
    for cls in compute_classes():
        for a in cls.members:
            table[a] = cls.id
    return table


def class_of_index(alpha):
    """Class id 1..12 of an even index, or None."""
    return _class_lookup().get(alpha)


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

    def substitute(self, assignment):
        return GammaVector([p.substitute(assignment) for p in self.coords])

    def map_vars(self, fn):
        return GammaVector([p.map_vars(fn) for p in self.coords])

    def support(self):
        return frozenset(i for i in range(1, 13) if self[i])

    def __eq__(self, other):
        return isinstance(other, GammaVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __str__(self):
        parts = []
        for i in range(1, 13):
            p = self[i]
            if not p:
                continue
            s = str(p)
            if s == "1":
                body, neg = f"g{i}", False
            elif s.startswith("-") and len(p.terms) == 1 and "+" not in s and " - " not in s:
                body, neg = f"{s[1:]}*g{i}", True
            elif len(p.terms) == 1 and "+" not in s and " - " not in s:
                body, neg = f"{s}*g{i}", False
            else:
                body, neg = f"({s})*g{i}", False
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts) if parts else "0"

    __repr__ = __str__


def r_sum(w, i):
    """Sum of the coefficients of w over the indices of class Q_i."""
    cls = compute_classes()[i - 1]
    total = Polynomial()
    for alpha in cls.members:
        p = w.entries.get(alpha)
        if p is not None:
            total = total + p
    return total


def project(w):
    """Projection onto the invariant subspace: coordinate i is
    r_i(w)/|Q_i|."""
    lookup = _class_lookup()
    sums = [Polynomial() for _ in range(12)]
    for alpha, p in w.entries.items():
        cid = lookup.get(alpha)
        if cid is not None:
            sums[cid - 1] = sums[cid - 1] + p
    coords = [
        s.scale(Cyclotomic.rational(1, CLASS_SIZES[k]))
        for k, s in enumerate(sums)
    ]
    return GammaVector(coords)


class OrbitSumMismatch(Exception):
    """The formula l*p(w) disagrees with direct orbit summation,
    signalling a degenerate parameter instance."""


def orbit_sum(w, length, check=False):
    """Sum over the orbit of w, computed as length * project(w).

    With check=True the result is compared against direct summation
    over the actual orbit; a mismatch means the instance is degenerate
    (its true orbit is shorter than the declared length).
    """
    v = project(w).scale(length)
    if check:
        total = Tensor()
        for u in group.orbit_of(w):
            total = total + u
        if gamma_to_tensor(v) != total:
            raise OrbitSumMismatch(
                f"declared length {length}, actual orbit {len(group.orbit_of(w))}"
            )
    return v


def gamma_to_tensor(v):
    entries = {}
    for cls in compute_classes():
        p = v[cls.id]
        if not p:
            continue
        for alpha in cls.members:
            entries[alpha] = p
    return Tensor(entries)


def reynolds(w):
    """Group averaging (1/|G|) sum_g g w, computed directly.

    This is the independent route to the projection; project() is the
    class-sum shortcut.
    """
    elements = group.enumerate_group("G")
    total = Tensor()
    for g in elements:
        total = total + group.act_on_tensor(g, w)
    return total.scale(Cyclotomic.rational(1, len(elements)))
