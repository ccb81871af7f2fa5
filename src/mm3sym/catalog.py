"""The special tensors and the 44 parameterized orbit families.

Each family is stored as structured factor templates (3x3 polynomial
matrices in its parameter letters), together with its power structure:
a perfect cube w^(x)3, a square u^(x)2 (x) v, or three distinct
factors.  A few families carry an overall scalar parameter instead of
a parameter inside a factor.  The packaged data/catalog.json is the one
source of the families: edit the catalog there.
"""

import json
from functools import lru_cache
from importlib import resources
from itertools import product
from typing import NamedTuple

from . import group
from .cyclotomic import Cyclotomic
from .poly import Polynomial, ParamId, _Memo, parse_polynomial
from .tensors import Tensor, pi12, tensor_from_factors

__all__ = [
    "OrbitFamily", "CatalogError", "get_family", "all_families",
    "matmul_tensor",
    "LINEAR_SCALING_FAMILIES", "verify_catalog",
]

# Families whose tensor is linear in the parameter array (z' = z in the
# scaling law); all the others are homogeneous of degree 3.
LINEAR_SCALING_FAMILIES = frozenset({6, 7, 17, 18, 19, 20, 39, 41})

# cell text -> Polynomial, so that each distinct text is parsed once and
# equal cells are one object, which tensor_from_factors multiplies once
_CELLS = _Memo(parse_polynomial)

# power structure -> the factor each of the tensor's three slots reads
_SLOTS = {"cube": (0, 0, 0), "square": (0, 0, 1), "triple": (0, 1, 2)}


class CatalogError(Exception):
    """A family failed an integrity check."""


class OrbitFamily(NamedTuple):
    id: int
    length: int
    params: str               # parameter letters in order
    power: str                # "cube" | "square" | "triple"
    scale: Polynomial         # or None
    factors: tuple            # parsed factor matrices

    def param_ids(self, slot=0):
        return [ParamId(slot, letter) for letter in self.params]

    def tensor(self, params=None):
        """Expand into a Tensor.  With params=None the family keeps its
        fresh symbolic parameters; otherwise params is a sequence of
        scalar values, one per letter, substituted into each entry of
        the symbolic tensor, whose order the entries keep."""
        if params is not None and len(params) != len(self.params):
            raise CatalogError(
                f"family {self.id} takes {len(self.params)} parameters, "
                f"got {len(params)}"
            )
        t = tensor_from_factors(*(self.factors[k] for k in _SLOTS[self.power]))
        if self.scale is not None:
            t = t.scale(self.scale)
        if params is None:
            return t
        assignment = dict(zip(self.param_ids(), map(Cyclotomic.coerce, params)))
        values = ((a, p.substitute(assignment)) for a, p in t.entries.items())
        return Tensor({a: q for a, q in values if q})

    @classmethod
    def from_json(cls, rec):
        slots = _SLOTS.get(rec["power"])
        if slots is None or len(rec["factors"]) != max(slots) + 1:
            raise CatalogError(
                f"family {rec['id']}: power {rec['power']!r} does not fit "
                f"its {len(rec['factors'])} factors"
            )
        factors = tuple(
            tuple(tuple(_CELLS[s] for s in row) for row in m)
            for m in rec["factors"]
        )
        scale = _CELLS[rec["scale"]] if "scale" in rec else None
        return cls(rec["id"], rec["length"], "".join(rec["params"]),
                   rec["power"], scale, factors)

    def __repr__(self):
        return f"<family {self.id}: length {self.length}, params {self.params}>"


@lru_cache(maxsize=None)
def all_families():
    """The catalog as shipped in data/catalog.json, loaded once."""
    text = resources.files("mm3sym").joinpath("data/catalog.json").read_text()
    recs = json.loads(text)["families"]
    return {rec["id"]: OrbitFamily.from_json(rec) for rec in recs}


def get_family(fid):
    fam = all_families().get(fid)
    if fam is None:
        raise CatalogError(f"no orbit family with id {fid}")
    return fam


def matmul_tensor():
    """The 3x3 matrix multiplication tensor: 27 entries, all 1."""
    one = Polynomial.constant(1)
    return Tensor({((i, j), (j, k), (k, i)): one
                   for i, j, k in product((1, 2, 3), repeat=3)})


def verify_catalog():
    """Recompute orbit lengths, stabilizer orders, factor-shape
    symmetry and the scaling law for every family; returns a report
    dict per family and raises CatalogError on any mismatch."""
    families = all_families()
    report = {}
    for fid in sorted(families):
        fam = families[fid]
        w = fam.tensor()
        transversal, stabilizer = group.orbit_transversal(w)
        length = len(transversal)
        if length != fam.length:
            raise CatalogError(
                f"family {fid}: orbit length {length}, expected {fam.length}"
            )
        if length * stabilizer != 144:
            raise CatalogError(
                f"family {fid}: orbit {length} x stabilizer {stabilizer} != 144"
            )
        symmetric = fam.power in ("cube", "square")
        if symmetric and pi12(w) != w:
            raise CatalogError(f"family {fid}: expected pi12-symmetry")
        # scaling law z w(params) = w(z' params): a monomial of degree k
        # scales by z' ** k and no coefficient is 0, so every k = log_z' z.
        # Entries share their cell products, so each distinct coefficient
        # object is checked once
        if fid in LINEAR_SCALING_FAMILIES:
            z, zp, degree = 5, 5, 1
        else:
            z, zp, degree = 8, 2, 3
        fresh = set(fam.param_ids())
        if any(sum(e for v, e in m if v in fresh) != degree
               for p in {id(p): p for p in w.entries.values()}.values()
               for m in p.terms):
            raise CatalogError(f"family {fid}: scaling law z'={zp} at z={z} fails")
        report[fid] = {
            "length": length,
            "stabilizer": stabilizer,
            "pi12_symmetric": symmetric,
            "scaling": f"z={z} -> z'={zp}",
        }
    return report
