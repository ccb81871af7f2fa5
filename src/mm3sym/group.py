"""The symmetry groups of the 3x3 matrix multiplication tensor.

A is the group of monomial 3x3 matrices with entries +-1 and
determinant 1 (isomorphic to S4); A1 drops the determinant condition.
B = <rho, sigma> is isomorphic to S3 and permutes the tensor factors,
transposing the matrices when the permutation is odd.  Elements act on
standard basis tensors by permuting indices up to sign: the permutation
part factors through the quotient map onto S3 x S3 and the sign comes
only from the diagonal +-1 part.
"""

from functools import lru_cache
import re

from .tensors import Tensor, all_indices

__all__ = [
    "GroupElement", "enumerate_group", "phi", "act_on_index",
    "act_on_tensor", "orbit_and_stabilizer", "compose",
    "identity", "parse_element", "S3_ELEMENTS", "perm_sign",
]

# permutations of {1,2,3} as image tuples: p maps k to p[k-1]
S3_ELEMENTS = (
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
)

RHO_PERM = (2, 1, 3)     # image of rho in S3
SIGMA_PERM = (2, 3, 1)   # image of sigma in S3: 1->2->3->1 as factor shift


def perm_mul(p, q):
    """(p*q)(k) = p(q(k))."""
    return tuple(p[q[k] - 1] for k in range(3))


def perm_sign(p):
    sign = 1
    for a in range(3):
        for b in range(a + 1, 3):
            if p[a] > p[b]:
                sign = -sign
    return sign


def _b_words():
    """Canonical words over generators r=rho, s=sigma, one per S3 element."""
    words = {(1, 2, 3): ""}
    frontier = [(1, 2, 3)]
    gens = (("r", RHO_PERM), ("s", SIGMA_PERM))
    while frontier:
        nxt = []
        for p in frontier:
            for letter, g in gens:
                q = perm_mul(p, g)
                if q not in words:
                    words[q] = words[p] + letter
                    nxt.append(q)
        frontier = nxt
    return words


_B_WORD_OF_PERM = _b_words()
_B_PERM_OF_WORD = {w: p for p, w in _B_WORD_OF_PERM.items()}


def b_perm(word):
    """S3 image of a word in {r, s}."""
    p = (1, 2, 3)
    for letter in word:
        p = perm_mul(p, RHO_PERM if letter == "r" else SIGMA_PERM)
    return p


class GroupElement:
    """Element of G1 = A1 x B: a signed permutation matrix times a
    factor permutation, in canonical form."""

    __slots__ = ("perm", "signs", "bword")

    def __init__(self, perm=(1, 2, 3), signs=(1, 1, 1), bword=""):
        assert bword in _B_PERM_OF_WORD, bword
        self.perm = tuple(perm)
        self.signs = tuple(signs)
        self.bword = bword

    def det(self):
        return perm_sign(self.perm) * self.signs[0] * self.signs[1] * self.signs[2]

    def in_G(self):
        return self.det() == 1

    def key(self):
        return (self.perm, self.signs, self.bword)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

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
    bpart = m.group(3)
    if bpart == "id":
        word = ""
    else:
        word = ""
        for name in bpart.split("*"):
            if name == "rho":
                word += "r"
            elif name == "sigma":
                word += "s"
            else:
                raise ValueError(f"bad factor permutation {name!r}")
        word = _B_WORD_OF_PERM[b_perm(word)]
    return GroupElement(perm, signs, word)


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
            for word in sorted(_B_PERM_OF_WORD):
                out.append(GroupElement(perm, signs, word))
    return tuple(out)


def phi(g):
    """Quotient map onto S3 x S3: the line permutation of the matrix
    part and the factor permutation of the B part."""
    return (g.perm, b_perm(g.bword))


def _sigma_idx(alpha):
    p1, p2, p3 = alpha
    return (p3, p1, p2)


def _rho_idx(alpha):
    (i1, j1), (i2, j2), (i3, j3) = alpha
    return ((j2, i2), (j1, i1), (j3, i3))


def act_on_index(g, alpha):
    """Image of the basis index and the sign: g e_alpha = sign * e_beta.

    The B part is applied generator by generator, then the permutation
    matrix relabels both components of each pair, and the diagonal
    sign part contributes the product of its signs over the six
    components of the final index.
    """
    for letter in reversed(g.bword):
        alpha = _rho_idx(alpha) if letter == "r" else _sigma_idx(alpha)
    p = g.perm
    alpha = tuple((p[i - 1], p[j - 1]) for i, j in alpha)
    sign = 1
    for i, j in alpha:
        sign *= g.signs[i - 1] * g.signs[j - 1]
    return alpha, sign


@lru_cache(maxsize=None)
def _positions():
    """The 729 indices in encoded order, the position of each, and one
    shared (position, sign) pair for each position and sign, looked up
    by any equal pair."""
    indices = tuple(all_indices())
    position = {alpha: n for n, alpha in enumerate(indices)}
    pairs = {(n, sign): (n, sign) for n in range(729) for sign in (1, -1)}
    return indices, position, pairs


@lru_cache(maxsize=None)
def _index_table(g):
    """act_on_index(g, alpha) for every alpha, by position, as
    (position, sign); the entries are the shared pairs of _positions,
    so a table costs one tuple."""
    indices, position, pairs = _positions()
    table = []
    for alpha in indices:
        beta, sign = act_on_index(g, alpha)
        table.append(pairs[position[beta], sign])
    return tuple(table)


def act_on_tensor(g, t):
    indices, position, _ = _positions()
    table = _index_table(g)
    entries = {}
    for alpha, c in t.entries.items():
        n, sign = table[position[alpha]]
        entries[indices[n]] = c if sign > 0 else -c
    return Tensor(entries)


def orbit_and_stabilizer(t, elements=None):
    """The orbit {g t : g in G}, deduplicated structurally, in
    first-seen order over the fixed group enumeration, and the number
    of elements fixing t, from one pass over the elements.

    Each distinct coefficient of t, and its negation, is interned once
    as a small int code (0 is an absent entry), so that an image is a
    tuple of 729 codes by position, hashed and compared without
    touching a Polynomial.  A Tensor is built only for the images the
    orbit keeps, with its entries in the order act_on_tensor gives.
    """
    if elements is None:
        elements = enumerate_group("G")
    indices, position, _ = _positions()
    coeffs = [None]   # code -> coefficient
    code_of = {}      # coefficient -> code
    negation = [0]    # code -> code of the negated coefficient

    def intern(c):
        k = code_of.get(c)
        if k is None:
            k = code_of[c] = len(coeffs)
            coeffs.append(c)
            negation.append(None)
        return k

    coded = []
    for alpha, c in t.entries.items():
        k = intern(c)
        if negation[k] is None:
            m = intern(-c)
            negation[k], negation[m] = m, k
        coded.append((position[alpha], k))
    own = [0] * 729
    for n, k in coded:
        own[n] = k
    own = tuple(own)

    seen = set()
    orbit = []
    order = 0
    for g in elements:
        table = _index_table(g)
        image = [0] * 729
        for p, k in coded:
            n, sign = table[p]
            image[n] = k if sign > 0 else negation[k]
        image = tuple(image)
        if image == own:
            order += 1
        if image not in seen:
            seen.add(image)
            entries = {}
            for p, _ in coded:
                n = table[p][0]
                entries[indices[n]] = coeffs[image[n]]
            orbit.append(Tensor(entries))
    return orbit, order


def compose(g, h):
    """Product g*h in G1 (apply h first)."""
    # monomial parts: (c_g pi_g)(c_h pi_h) has permutation pi_g pi_h and
    # sign at row m equal to sign_g[m] * sign_h[pi_g^-1 m]
    perm = perm_mul(g.perm, h.perm)
    inv_g = tuple(g.perm.index(k + 1) + 1 for k in range(3))
    signs = tuple(g.signs[m] * h.signs[inv_g[m] - 1] for m in range(3))
    word = _B_WORD_OF_PERM[perm_mul(b_perm(g.bword), b_perm(h.bword))]
    return GroupElement(perm, signs, word)
