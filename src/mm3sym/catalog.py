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

from .cyclotomic import Cyclotomic
from .poly import Polynomial, ParamId, parse_polynomial
from .tensors import Tensor, matrix, tensor_from_factors

__all__ = [
    "OrbitFamily", "CatalogError", "get_family", "all_families",
    "family_tensor", "matmul_tensor", "special_matrix",
    "LINEAR_SCALING_FAMILIES", "verify_catalog", "families_from_json",
]

# Families whose tensor is linear in the parameter array (z' = z in the
# scaling law); all the others are homogeneous of degree 3.
LINEAR_SCALING_FAMILIES = frozenset({6, 7, 17, 18, 19, 20, 39, 41})

_DELTA = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))
_KAPPA = (("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0"))
_ETA = (("1", "0", "0"), ("0", "z", "0"), ("0", "0", "zb"))
_ETA_BAR = (("1", "0", "0"), ("0", "zb", "0"), ("0", "0", "z"))
_TAU = (("0", "1", "-1"), ("-1", "0", "1"), ("1", "-1", "0"))


class CatalogError(Exception):
    """A family failed an integrity check."""


class OrbitFamily:
    __slots__ = ("id", "length", "params", "power", "scale", "factors")

    def __init__(self, fid, length, params, power, scale, factors):
        self.id = fid
        self.length = length
        self.params = params  # parameter letters in order
        self.power = power    # "cube" | "square" | "triple"
        self.scale = scale    # Polynomial or None
        self.factors = factors  # parsed factor matrices

    @property
    def param_count(self):
        return len(self.params)

    def param_ids(self, slot=0):
        return [ParamId(slot, letter) for letter in self.params]

    def tensor(self, params=None, slot=0):
        """Expand into a Tensor.  With params=None the family keeps
        fresh symbolic parameters in the given orbit slot; otherwise
        params is a sequence of scalar values, one per letter."""
        factors = self.factors
        scale = self.scale
        if params is not None:
            if len(params) != self.param_count:
                raise CatalogError(
                    f"family {self.id} takes {self.param_count} parameters, "
                    f"got {len(params)}"
                )
            assignment = {
                ParamId(0, letter): Cyclotomic.coerce(v)
                for letter, v in zip(self.params, params)
            }
            factors = [
                tuple(tuple(p.substitute(assignment) for p in row) for row in m)
                for m in factors
            ]
            if scale is not None:
                scale = scale.substitute(assignment)
        elif slot != 0:
            rename = lambda v: ParamId(slot, v.letter)
            factors = [
                tuple(tuple(p.map_vars(rename) for p in row) for row in m)
                for m in factors
            ]
            if scale is not None:
                scale = scale.map_vars(rename)
        if self.power == "cube":
            t = tensor_from_factors(factors[0], factors[0], factors[0])
        elif self.power == "square":
            t = tensor_from_factors(factors[0], factors[0], factors[1])
        else:
            t = tensor_from_factors(factors[0], factors[1], factors[2])
        if scale is not None:
            t = t.scale(scale)
        return t

    @classmethod
    def from_json(cls, rec):
        factors = [
            tuple(tuple(parse_polynomial(s) for s in row) for row in m)
            for m in rec["factors"]
        ]
        scale = parse_polynomial(rec["scale"]) if "scale" in rec else None
        return cls(rec["id"], rec["length"], "".join(rec["params"]),
                   rec["power"], scale, factors)

    def __repr__(self):
        return f"<family {self.id}: length {self.length}, params {self.params}>"


@lru_cache(maxsize=None)
def all_families():
    """The packaged catalog, loaded once; see families_from_json."""
    return families_from_json()


def get_family(fid):
    fam = all_families().get(fid)
    if fam is None:
        raise CatalogError(f"no orbit family with id {fid}")
    return fam


def family_tensor(fid, params=None, slot=0):
    return get_family(fid).tensor(params, slot)


def special_matrix(name):
    raw = {"delta": _DELTA, "kappa": _KAPPA, "eta": _ETA,
           "eta_bar": _ETA_BAR, "tau": _TAU}
    if name not in raw:
        raise CatalogError(f"no special matrix named {name!r}")
    return matrix([[parse_polynomial(s) for s in row] for row in raw[name]])


def matmul_tensor():
    """The 3x3 matrix multiplication tensor: 27 entries, all 1."""
    entries = {}
    one = Polynomial.constant(1)
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                entries[((i, j), (j, k), (k, i))] = one
    return Tensor(entries)


def families_from_json():
    """The catalog as shipped in data/catalog.json."""
    text = resources.files("mm3sym").joinpath("data/catalog.json").read_text()
    recs = json.loads(text)["families"]
    return {rec["id"]: OrbitFamily.from_json(rec) for rec in recs}


def verify_catalog(families=None):
    """Recompute orbit lengths, stabilizer orders, factor-shape
    symmetry and the scaling law for every family; returns a report
    dict per family and raises CatalogError on any mismatch."""
    from . import group
    from .tensors import pi12

    if families is None:
        families = all_families()
    report = {}
    for fid in sorted(families):
        fam = families[fid]
        w = fam.tensor()
        orbit = group.orbit_of(w)
        if len(orbit) != fam.length:
            raise CatalogError(
                f"family {fid}: orbit length {len(orbit)}, expected {fam.length}"
            )
        stabilizer = group.stabilizer_order(w)
        if len(orbit) * stabilizer != 144:
            raise CatalogError(
                f"family {fid}: orbit {len(orbit)} x stabilizer {stabilizer} != 144"
            )
        symmetric = fam.power in ("cube", "square")
        if symmetric and pi12(w) != w:
            raise CatalogError(f"family {fid}: expected pi12-symmetry")
        # scaling law: z w(params) = w(z' params)
        if fid in LINEAR_SCALING_FAMILIES:
            z, zp = 5, 5
        else:
            z, zp = 8, 2
        fresh = fam.param_ids()
        scaled = {
            v: Polynomial.variable(v).scale(zp) for v in fresh
        }
        lhs = w.scale(Cyclotomic.rational(z))
        rhs = Tensor({
            a: _subst_poly_vars(p, scaled) for a, p in w.entries.items()
        })
        if lhs != rhs:
            raise CatalogError(f"family {fid}: scaling law z'={zp} at z={z} fails")
        report[fid] = {
            "length": len(orbit),
            "stabilizer": stabilizer,
            "pi12_symmetric": symmetric,
            "scaling": f"z={z} -> z'={zp}",
        }
    return report


def _subst_poly_vars(p, table):
    """Substitute polynomials (not just scalars) for variables."""
    out = Polynomial()
    for m, c in p.terms.items():
        term = Polynomial.constant(c)
        for v, e in m:
            term = term * table.get(v, Polynomial.variable(v)) ** e
        out = out + term
    return out
