"""The symmetry groups of the 3x3 matrix multiplication tensor.

A is the group of monomial 3x3 matrices with entries +-1 and
determinant 1 (isomorphic to S4); A1 drops the determinant condition.
B = <rho, sigma> is isomorphic to S3 and permutes the tensor factors,
transposing the matrices when the permutation is odd.  An element is
stored as (perm, signs, bperm): the line permutation and the diagonal
+-1 part of its matrix, and its factor permutation.  It acts on
standard basis indices cell by cell, a cell being one entry position
(i, j) of a 3x3 factor: the target index depends only on the image
(perm, bperm) in S3 x S3 and the sign only on the signs, so 36 position
tables and 8 sign vectors, built from the cell rule, serve every
element.
"""

from functools import lru_cache
from itertools import chain, product
from operator import itemgetter, mul
import re
from typing import NamedTuple

from .tensors import PAIRS, Tensor, all_indices

__all__ = [
    "GroupElement", "enumerate_group", "act_on_tensor",
    "orbit_and_stabilizer", "compose",
    "identity", "parse_element", "S3_ELEMENTS", "perm_sign",
]

# permutations of {1,2,3} as image tuples: p maps k to p[k-1]
S3_ELEMENTS = (
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
)

RHO_PERM = (2, 1, 3)     # image of rho in S3
SIGMA_PERM = (2, 3, 1)   # image of sigma in S3: 1->2->3->1 as factor shift

# the canonical word over r = rho, s = sigma of each factor permutation,
# in enumeration order; a word's permutation is the product of its
# letters' permutations, left to right
_B_WORDS = {
    (1, 2, 3): "", (2, 1, 3): "r", (1, 3, 2): "rs",
    (2, 3, 1): "s", (3, 2, 1): "sr", (3, 1, 2): "ss",
}


def perm_mul(p, q):
    """(p*q)(k) = p(q(k))."""
    return tuple(p[q[k] - 1] for k in range(3))


def perm_inverse(p):
    """The q with q(p(k)) = k."""
    return tuple(p.index(k) + 1 for k in (1, 2, 3))


def perm_sign(p):
    """The Vandermonde quotient prod_{a<b} (p(b) - p(a)) / (b - a)."""
    return (p[1] - p[0]) * (p[2] - p[0]) * (p[2] - p[1]) // 2


class GroupElement(NamedTuple):
    """Element of G1 = A1 x B: a signed permutation matrix times a
    factor permutation."""

    perm: tuple = (1, 2, 3)
    signs: tuple = (1, 1, 1)
    bperm: tuple = (1, 2, 3)

    @property
    def bword(self):
        """The factor permutation as a word in r = rho, s = sigma."""
        return _B_WORDS[self.bperm]

    def det(self):
        return perm_sign(self.perm) * self.signs[0] * self.signs[1] * self.signs[2]

    def __str__(self):
        signs = "".join("+" if s > 0 else "-" for s in self.signs)
        b = "*".join("rho" if c == "r" else "sigma" for c in self.bword) or "id"
        perm = "".join(str(k) for k in self.perm)
        return f"a=(perm=({perm}),signs={signs});b={b}"

    __repr__ = __str__


identity = GroupElement()

_ELEMENT_RE = re.compile(
    r"a=\(perm=\((\d{3})\),signs=([+-]{3})\);b=([a-z*]+)$"
)


def parse_element(text):
    m = _ELEMENT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad group element syntax: {text!r}")
    perm = tuple(int(c) for c in m.group(1))
    if sorted(perm) != [1, 2, 3]:
        raise ValueError(f"bad permutation in {text!r}")
    signs = tuple(1 if c == "+" else -1 for c in m.group(2))
    bperm = (1, 2, 3)
    bpart = m.group(3)
    if bpart != "id":
        for name in bpart.split("*"):
            if name == "rho":
                bperm = perm_mul(bperm, RHO_PERM)
            elif name == "sigma":
                bperm = perm_mul(bperm, SIGMA_PERM)
            else:
                raise ValueError(f"bad factor permutation {name!r}")
    return GroupElement(perm, signs, bperm)


@lru_cache(maxsize=None)
def enumerate_group(which="G"):
    """All elements of G (144) or G1 (288), in a fixed order."""
    if which not in ("G", "G1"):
        raise ValueError("which must be 'G' or 'G1'")
    out = []
    for perm in S3_ELEMENTS:
        for signs in product((1, -1), repeat=3):
            g0 = GroupElement(perm, signs)
            if which == "G" and g0.det() != 1:
                continue
            for bperm in _B_WORDS:
                out.append(GroupElement(perm, signs, bperm))
    return tuple(out)


@lru_cache(maxsize=None)
def _positions():
    """The 729 indices in encoded order and the position of each."""
    indices = tuple(all_indices())
    return indices, {alpha: n for n, alpha in enumerate(indices)}


@lru_cache(maxsize=None)
def _position_table(perm, bperm):
    """The target position of each position under every element with
    this image in S3 x S3.  The action is one rule per cell: perm
    relabels both components, the cell is transposed when bperm is odd,
    and the cell in place k moves to place bperm(k).  Relabelling and
    moving commute, so a mixed table is the relabelling table read at
    the moving table; a pure one is summed from its cell map."""
    if (1, 2, 3) not in (perm, bperm):
        return itemgetter(*_position_table((1, 2, 3), bperm))(
            _position_table(perm, (1, 2, 3)))
    odd = perm_sign(bperm) < 0
    to = [PAIRS.index((perm[j - 1], perm[i - 1]) if odd
                      else (perm[i - 1], perm[j - 1])) for i, j in PAIRS]
    xs, ys, zs = ([c * 9 ** (place - 1) for c in to] for place in bperm)
    return tuple(x + y + z for z in zs for y in ys for x in xs)


@lru_cache(maxsize=None)
def _sign_vector(signs):
    """The sign of the action of every element with these signs, by
    target position: the product of its cells' signs, the sign of cell
    (i, j) being signs[i] * signs[j]."""
    cell = [signs[i - 1] * signs[j - 1] for i, j in PAIRS]
    return tuple(x * y * z for z in cell for y in cell for x in cell)


@lru_cache(maxsize=None)
def _position_orbits():
    """The orbits of S3 x S3 on the 729 positions, each in increasing
    order, and the number of the orbit of each position.  An image of a
    tensor is 0 outside the orbits that meet its support.  An orbit is
    closed under the tables of rho and sigma in either factor, all
    pure, so that no mixed table is built for it."""
    tables = [_position_table(p, (1, 2, 3)) for p in (RHO_PERM, SIGMA_PERM)]
    tables += [_position_table((1, 2, 3), b) for b in (RHO_PERM, SIGMA_PERM)]
    orbit_of = [None] * 729
    orbits = []
    for n in range(729):
        if orbit_of[n] is None:
            orbit_of[n] = len(orbits)
            members = [n]
            for m in members:  # grows while it is walked
                for table in tables:
                    k = table[m]
                    if orbit_of[k] is None:
                        orbit_of[k] = len(orbits)
                        members.append(k)
            orbits.append(tuple(sorted(members)))
    return tuple(orbit_of), tuple(orbits)


def act_on_tensor(g, t):
    indices, position = _positions()
    moves = _position_table(g.perm, g.bperm)
    sign = _sign_vector(g.signs)
    entries = {}
    for alpha, c in t.entries.items():
        n = moves[position[alpha]]
        entries[indices[n]] = c if sign[n] > 0 else -c
    return Tensor(entries)


def orbit_and_stabilizer(t, elements=None):
    """The orbit {g t : g in G}, deduplicated structurally, in
    first-seen order over the fixed group enumeration, and the number
    of elements fixing t, from one pass over the elements.

    Each distinct coefficient c of t is coded once as a small int k,
    and -c as -k (0 is an absent entry), so that an entry coded k moves
    to one coded sign * k.  The sign of g at a target position is the
    sign of the twisted triple signs o perm at the source position, so
    each image is one C-level gather from one of at most 8 twisted
    copies of the coded tensor, through the table of g's inverse.  It is
    read only at the positions it can reach, the position orbits that
    meet the support, and hashed and compared as a tuple of codes
    without touching a Polynomial.  A Tensor is built only for the
    images the orbit keeps, with its entries in the order act_on_tensor
    gives.
    """
    if elements is None:
        elements = enumerate_group("G")
    indices, position = _positions()
    coeff = {}     # signed code -> coefficient
    code_of = {}   # coefficient -> signed code
    code_by_id = {}  # id of an entry's coefficient -> its code
    own = [0] * 729  # the code at each position
    sources = []     # the position of each entry, in entry order
    for alpha, c in t.entries.items():
        # cells are shared objects, so most entries are found by id and
        # only each distinct object is hashed; equal objects share a code
        k = code_by_id.get(id(c))
        if k is None:
            k = code_by_id[id(c)] = code_of.setdefault(c, len(coeff) // 2 + 1)
            if k not in coeff:
                code_of[-c] = -k
                coeff[k], coeff[-k] = c, -c
        n = position[alpha]
        own[n] = k
        sources.append(n)
    # the positions an image can reach: a position orbit has at least 3
    # members, so read gives a tuple.  A tensor that reaches all 729
    # positions, or none, is read whole by tuple(), which returns a table
    # itself, so that its gathers share the cached tables
    orbit_of, orbits = _position_orbits()
    reach = tuple(chain.from_iterable(
        orbits[i] for i in sorted({orbit_of[n] for n in sources})))
    read = itemgetter(*reach) if 0 < len(reach) < 729 else tuple
    own_image = read(own)

    gathers = {}   # (perm, bperm) -> its gather of an image at reach
    twisted = {}   # sign triple -> coded tensor times its sign vector
    seen = set()
    orbit = []
    order = 0
    for perm, signs, bperm in elements:
        gather = gathers.get((perm, bperm))
        if gather is None:
            gather = gathers[perm, bperm] = itemgetter(
                *read(_position_table(perm_inverse(perm),
                                      perm_inverse(bperm))))
        twist = signs[perm[0] - 1], signs[perm[1] - 1], signs[perm[2] - 1]
        source = twisted.get(twist)
        if source is None:
            source = twisted[twist] = tuple(map(mul, own, _sign_vector(twist)))
        image = gather(source)
        if image == own_image:
            order += 1
        size = len(seen)
        seen.add(image)  # one hash of the image, where `in` would add one
        if len(seen) > size:
            moves = _position_table(perm, bperm)
            orbit.append(Tensor({indices[moves[n]]: coeff[source[n]]
                                 for n in sources}))
    return orbit, order


def compose(g, h):
    """Product g*h in G1 (apply h first)."""
    # monomial parts: (c_g pi_g)(c_h pi_h) has permutation pi_g pi_h and
    # sign at row m equal to sign_g[m] * sign_h[pi_g^-1 m]
    perm = perm_mul(g.perm, h.perm)
    inv_g = perm_inverse(g.perm)
    signs = tuple(g.signs[m] * h.signs[inv_g[m] - 1] for m in range(3))
    return GroupElement(perm, signs, perm_mul(g.bperm, h.bperm))
