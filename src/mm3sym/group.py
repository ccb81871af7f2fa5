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
element.  A sign vector is constant on each of 4 sign blocks of
positions, so orbits are compared block by block, up to sign.
"""

from functools import lru_cache
from itertools import accumulate, chain, pairwise, product
from operator import itemgetter, mul, neg
import re
from typing import NamedTuple

from .tensors import INDICES, PAIRS, POSITION, Tensor

__all__ = [
    "GroupElement", "enumerate_group", "act_on_tensor",
    "orbit_transversal", "orbit_and_stabilizer", "compose",
    "parse_element", "S3_ELEMENTS", "perm_sign",
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


# the inverse of each permutation of {1,2,3}
_S3_INVERSE = {p: perm_inverse(p) for p in S3_ELEMENTS}


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
def _sign_blocks():
    """The sign blocks: the positions grouped by the symbols that occur
    an odd number of times in their index, read off the sign vectors of
    the three one-sign flips.  An element's sign at a position is the
    product of its signs over those symbols, so it is constant on each
    block, and a position table, relabelling the symbols by perm,
    carries each block onto one block.  An index has six components, so
    an even number of odd symbols: the blocks are the even positions
    and the three with two odd symbols.  Returns the block of each
    position, the blocks numbered in order of their first positions,
    and the first position of each block."""
    flips = (-1, 1, 1), (1, -1, 1), (1, 1, -1)
    labels = list(zip(*map(_sign_vector, flips)))
    first = {}
    for n, label in enumerate(labels):
        first.setdefault(label, n)
    number = {label: b for b, label in enumerate(first)}
    return tuple(number[label] for label in labels), tuple(first.values())


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
    moves = _position_table(g.perm, g.bperm)
    sign = _sign_vector(g.signs)
    entries = {}
    for alpha, c in t.entries.items():
        n = moves[POSITION[alpha]]
        entries[INDICES[n]] = c if sign[n] > 0 else -c
    return Tensor(entries)


def orbit_transversal(t, elements=None):
    """The first element reaching each distinct image g t, in order over
    elements (the group G by default), and the number of elements
    fixing t: the orbit's length and the stabilizer's order, with no
    image built.

    Each distinct coefficient c of t is coded once as a small int k,
    and -c as -k (0 is an absent entry).  An image of t is 0 outside
    the position orbits that meet the support, its reach, and on each
    sign block it is g's sign there times the coded tensor gathered
    through the table of g's inverse image in S3 x S3.  So each of the
    at most 36 images (perm, bperm) is one C-level gather of the coded
    tensor at the reach, cut into its blocks, and each block tuple is
    interned together with its negation as a signed int.  The key of g
    is its image's block codes, each times g's sign on the block: two
    images are equal exactly when their keys are.
    """
    if elements is None:
        elements = enumerate_group("G")
    code_of = {}     # coefficient -> signed code
    code_by_id = {}  # id of an entry's coefficient -> its code
    own = [0] * 729  # the code at each position
    for alpha, c in t.entries.items():
        # cells are shared objects, so most entries are found by id and
        # only each distinct object is hashed; equal objects share a code
        k = code_by_id.get(id(c))
        if k is None:
            k = code_of.get(c)
            if k is None:
                k = code_of[c] = len(code_of) + 1
                code_of.setdefault(-c, -k)
            code_by_id[id(c)] = k
        own[POSITION[alpha]] = k
    # the reach, block by block; the zero tensor is read on orbit 0.  A
    # position orbit has at least 3 members, so read gives a tuple
    orbit_of, orbits = _position_orbits()
    block_of, firsts = _sign_blocks()
    reach = [[] for _ in firsts]
    met = {orbit_of[n] for n, k in enumerate(own) if k} or {0}
    for n in chain.from_iterable(orbits[i] for i in met):
        reach[block_of[n]].append(n)
    read = itemgetter(*chain.from_iterable(reach))
    cuts = list(accumulate(map(len, reach), initial=0))
    blocks = [slice(a, b) for a, b in pairwise(cuts)]

    interned = {}  # block tuple -> signed code; 0 for a tuple of zeros

    def codes(image):
        out = []
        for block in blocks:
            part = image[block]
            k = interned.get(part)
            if k is None:
                flip = tuple(map(neg, part))
                k = interned[part] = len(interned) + 1 if flip != part else 0
                interned[flip] = -k
            out.append(k)
        return out

    unmoved = (1, 2, 3), (1, 2, 3)
    by_pair = {unmoved: codes(read(own))}
    # t's own key: the identity's sign is +1 on every block
    own_key = tuple(by_pair[unmoved])
    on_blocks = {}  # sign triple -> its sign on each block
    seen = set()
    transversal = []
    order = 0
    for g in elements:
        perm, signs, bperm = g
        pair = by_pair.get((perm, bperm))
        if pair is None:
            inverse = _position_table(_S3_INVERSE[perm], _S3_INVERSE[bperm])
            pair = by_pair[perm, bperm] = codes(
                itemgetter(*read(inverse))(own))
        sign = on_blocks.get(signs)
        if sign is None:
            sign = on_blocks[signs] = itemgetter(*firsts)(_sign_vector(signs))
        key = tuple(map(mul, pair, sign))
        if key == own_key:
            order += 1
        size = len(seen)
        seen.add(key)  # one hash of the key, where `in` would add one
        if len(seen) > size:
            transversal.append(g)
    return transversal, order


def orbit_and_stabilizer(t, elements=None):
    """The orbit {g t : g in G}, deduplicated structurally, in
    first-seen order over the fixed group enumeration (or over
    elements), and the number of elements fixing t.  The orbit is read
    from orbit_transversal, and each image is built by act_on_tensor,
    so its entries are in t's entry order."""
    transversal, order = orbit_transversal(t, elements)
    return [act_on_tensor(g, t) for g in transversal], order


def compose(g, h):
    """Product g*h in G1 (apply h first)."""
    # monomial parts: (c_g pi_g)(c_h pi_h) has permutation pi_g pi_h and
    # sign at row m equal to sign_g[m] * sign_h[pi_g^-1 m]
    perm = perm_mul(g.perm, h.perm)
    inv_g = perm_inverse(g.perm)
    signs = tuple(g.signs[m] * h.signs[inv_g[m] - 1] for m in range(3))
    return GroupElement(perm, signs, perm_mul(g.bperm, h.bperm))
