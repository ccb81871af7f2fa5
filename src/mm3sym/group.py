"""The symmetry groups of the 3x3 matrix multiplication tensor.

A is the group of monomial 3x3 matrices with entries +-1 and
determinant 1 (isomorphic to S4); A1 drops the determinant condition.
B = <rho, sigma> is isomorphic to S3 and permutes the tensor factors,
transposing the matrices when the permutation is odd.  An element is
stored as (perm, signs, bperm): the line permutation and the diagonal
+-1 part of its matrix, and its factor permutation.  It acts on
standard basis indices by one closed formula: the target index depends
only on the image (perm, bperm) in S3 x S3 and the sign only on the
signs, so 36 position tables and 8 sign vectors serve every element.
"""

from functools import lru_cache
import re
from typing import NamedTuple

from .tensors import Tensor, all_indices

__all__ = [
    "GroupElement", "enumerate_group", "act_on_index",
    "act_on_tensor", "orbit_and_stabilizer", "compose",
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
    sign_triples = [
        (s1, s2, s3)
        for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
    ]
    out = []
    for perm in S3_ELEMENTS:
        for signs in sign_triples:
            g0 = GroupElement(perm, signs)
            if which == "G" and g0.det() != 1:
                continue
            for bperm in _B_WORDS:
                out.append(GroupElement(perm, signs, bperm))
    return tuple(out)


def act_on_index(g, alpha):
    """Image of the basis index and the sign: g e_alpha = sign * e_beta.

    Pair k of alpha moves to place bperm(k) and is transposed when bperm
    is odd, perm relabels both components of each pair, and the sign is
    the product of the signs over the six components of beta.
    """
    p, signs, bperm = g
    odd = perm_sign(bperm) < 0
    beta = [None, None, None]
    for (i, j), place in zip(alpha, bperm):
        if odd:
            i, j = j, i
        beta[place - 1] = (p[i - 1], p[j - 1])
    sign = 1
    for i, j in beta:
        sign *= signs[i - 1] * signs[j - 1]
    return tuple(beta), sign


@lru_cache(maxsize=None)
def _positions():
    """The 729 indices in encoded order and the position of each."""
    indices = tuple(all_indices())
    return indices, {alpha: n for n, alpha in enumerate(indices)}


@lru_cache(maxsize=None)
def _position_table(perm, bperm):
    """The target position of each position under every element with
    this image in S3 x S3."""
    indices, position = _positions()
    g = GroupElement(perm, (1, 1, 1), bperm)
    return tuple(position[act_on_index(g, alpha)[0]] for alpha in indices)


@lru_cache(maxsize=None)
def _sign_vector(signs):
    """The sign of the action of every element with these signs, by
    target position."""
    g = GroupElement((1, 2, 3), signs)
    return tuple(act_on_index(g, beta)[1] for beta in _positions()[0])


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
    to one coded sign * k, and an image is a tuple of 729 codes by
    position, hashed and compared without touching a Polynomial.  A
    Tensor is built only for the images the orbit keeps, with its
    entries in the order act_on_tensor gives.
    """
    if elements is None:
        elements = enumerate_group("G")
    indices, position = _positions()
    coeff = {}     # signed code -> coefficient
    code_of = {}   # coefficient -> signed code
    coded = []
    for alpha, c in t.entries.items():
        k = code_of.get(c)
        if k is None:
            k = len(coeff) // 2 + 1
            code_of[c], code_of[-c] = k, -k
            coeff[k], coeff[-k] = c, -c
        coded.append((position[alpha], k))
    own = [0] * 729
    for n, k in coded:
        own[n] = k
    own = tuple(own)

    seen = set()
    orbit = []
    order = 0
    for g in elements:
        moves = _position_table(g.perm, g.bperm)
        sign = _sign_vector(g.signs)
        image = [0] * 729
        for p, k in coded:
            n = moves[p]
            image[n] = sign[n] * k
        image = tuple(image)
        if image == own:
            order += 1
        if image not in seen:
            seen.add(image)
            entries = {}
            for p, _ in coded:
                n = moves[p]
                entries[indices[n]] = coeff[image[n]]
            orbit.append(Tensor(entries))
    return orbit, order


def compose(g, h):
    """Product g*h in G1 (apply h first)."""
    # monomial parts: (c_g pi_g)(c_h pi_h) has permutation pi_g pi_h and
    # sign at row m equal to sign_g[m] * sign_h[pi_g^-1 m]
    perm = perm_mul(g.perm, h.perm)
    inv_g = tuple(g.perm.index(k + 1) + 1 for k in range(3))
    signs = tuple(g.signs[m] * h.signs[inv_g[m] - 1] for m in range(3))
    return GroupElement(perm, signs, perm_mul(g.bperm, h.bperm))
