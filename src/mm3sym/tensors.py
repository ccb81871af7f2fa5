"""The space N = M (x) M (x) M over its 729-element standard basis.

A basis index is a triple of ordered pairs ((i1,j1),(i2,j2),(i3,j3))
with entries in {1,2,3}.  Tensors are sparse maps from indices to
Polynomial coefficients; factor matrices are 3x3 arrays of Polynomials
used to expand decomposable tensors.
"""

import json
from itertools import chain, product

from .poly import Polynomial, add_into, parse_polynomial

__all__ = [
    "PAIRS", "INDICES", "POSITION", "index_is_even",
    "Tensor", "tensor_sum", "tensor_from_factors", "pi12",
]

# The cell order: the 9 positions (i, j) of a 3x3 matrix, row by row.
# The index at position n has pairs PAIRS[n % 9], PAIRS[n // 9 % 9],
# PAIRS[n // 81]: INDICES lists the 729 indices by position, and
# POSITION maps each index to its position.
PAIRS = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
INDICES = tuple((a, b, c) for c in PAIRS for b in PAIRS for a in PAIRS)
POSITION = {alpha: n for n, alpha in enumerate(INDICES)}


def _ints_only(x):
    """Whether x is made of ints only: no bool or float that equals one."""
    return type(x) is int or type(x) is list and all(map(_ints_only, x))


def index_is_even(alpha):
    """Each symbol occurs an even number of times: its bits cancel."""
    (a, b), (c, d), (e, f) = alpha
    return not (1 << a) ^ (1 << b) ^ (1 << c) ^ (1 << d) ^ (1 << e) ^ (1 << f)


class Tensor:
    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {} if entries is None else entries

    def __add__(self, other):
        return Tensor(add_into(dict(self.entries), other.entries.items()))

    def __neg__(self):
        return Tensor({a: -p for a, p in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Polynomial.coerce(c)
        entries = {}
        for a, p in self.entries.items():
            q = p * c
            if q:
                entries[a] = q
        return Tensor(entries)

    def coeff(self, alpha):
        return self.entries.get(alpha, Polynomial())

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __len__(self):
        return len(self.entries)

    def items(self):
        return sorted(self.entries.items(), key=lambda kv: POSITION[kv[0]])

    def __str__(self):
        parts = [f"e[{_idx_str(a)}]*({p})" for a, p in self.items()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__

    # -- JSON schema -------------------------------------------------

    def to_json(self):
        return {
            "entries": [
                {"idx": [list(pair) for pair in a], "coeff": str(p)}
                for a, p in self.items()
            ]
        }

    @classmethod
    def from_json(cls, obj):
        """The tensor of a JSON record; ValueError for a wrong shape, an
        index that is not three pairs of ints over {1, 2, 3}, or an
        index given twice."""
        recs = obj.get("entries") if isinstance(obj, dict) else None
        if not isinstance(recs, list):
            raise ValueError("tensor JSON must be an object with an entries list")
        entries = {}
        seen = set()
        for rec in recs:
            if not (isinstance(rec, dict) and isinstance(rec.get("coeff"), str)):
                raise ValueError(f"bad tensor entry {rec!r}")
            try:
                # three pairs of ints over {1, 2, 3}, read as the index
                # they name (true and 1.0 equal 1, so they would name one)
                if not _ints_only(rec.get("idx")):
                    raise ValueError
                alpha = INDICES[POSITION[tuple(map(tuple, rec["idx"]))]]
            except (TypeError, ValueError, KeyError):
                raise ValueError(f"bad tensor index in {rec!r}") from None
            if alpha in seen:
                raise ValueError(f"repeated tensor index in {rec!r}")
            seen.add(alpha)
            p = parse_polynomial(rec["coeff"])
            if p:
                entries[alpha] = p
        return cls(entries)

    def dumps(self):
        return json.dumps(self.to_json(), indent=1)

    @classmethod
    def loads(cls, text):
        return cls.from_json(json.loads(text))


def tensor_sum(tensors):
    """The sum of the tensors, added into one dict rather than copied
    per term."""
    entries = {}
    for t in tensors:
        add_into(entries, t.entries.items())
    return Tensor(entries)


def _idx_str(alpha):
    return ",".join(f"{i}{j}" for i, j in alpha)


def tensor_from_factors(x, y, z):
    """Expand x (x) y (x) z into basis entries: one entry per triple of
    nonzero cells, in cell order.  Each product of cells is made once
    per multiset of cell objects, so entries whose cells are the same
    objects in some order share one Polynomial; sharing is safe since no
    Polynomial is changed after it is built, and keying by id is safe
    since x, y and z hold every cell for the whole call."""
    supports = [[(pair, p) for pair, p in zip(PAIRS, chain(*m)) if p]
                for m in (x, y, z)]
    entries = {}
    products = {}
    for (a, px), (b, py), (c, pz) in product(*supports):
        key = tuple(sorted((id(px), id(py), id(pz))))
        p = products.get(key)
        if p is None:
            p = products[key] = px * py * pz
        entries[a, b, c] = p
    return Tensor(entries)


def pi12(t):
    """Swap the first two tensor factors (no matrix transposition)."""
    entries = {}
    for (p1, p2, p3), c in t.entries.items():
        entries[(p2, p1, p3)] = c
    return Tensor(entries)
