"""Polynomial equation systems whose solutions are decompositions of
the 3x3 matrix multiplication tensor.

The generic system of rank r states that r rank-one tensors sum to the
target: 729 equations, one per basis index, in the 27r factor
coordinates.  The invariant system of a type multiset states that the
orbit sums of its families, with one fresh parameter slot per entry,
add up to the target's invariant coordinates: 12 equations, one per
gamma coordinate.
"""

import json
from itertools import product
from math import lcm
from operator import mul
from typing import NamedTuple

from .cyclotomic import Cyclotomic, ZERO, ONE, _basis_str
from .poly import (
    Polynomial, BrentVar, ParamId, var_from_str, add_into, _KEYS, _NAMES,
    _Memo, _mono_str,
)
from .prover import gamma_row, t_gamma
from .catalog import CatalogError, get_family, matmul_tensor
from .tensors import PAIRS, _ints_only, _unique_keys

__all__ = [
    "BrentSystem", "BrentError", "generic_system", "invariant_system",
    "equations", "check_solution", "trivial_solution", "export",
    "parse_system",
]


class BrentError(Exception):
    pass


class Equation(NamedTuple):
    """lhs = rhs with a stable label (a basis index or a gamma id)."""

    label: object
    lhs: Polynomial
    rhs: Cyclotomic

    def __repr__(self):
        return f"{self.lhs} = {self.rhs}"


class BrentSystem(NamedTuple):
    mode: str                 # "generic" | "invariant"
    variables: tuple
    equations: tuple = None   # invariant systems; see equations(system)
    rank: int = None          # generic systems
    multiset: tuple = None    # invariant systems

    def __repr__(self):
        tag = self.rank if self.mode == "generic" else list(self.multiset)
        count = 729 if self.mode == "generic" else len(self.equations)
        return (f"<BrentSystem {self.mode} {tag}: {count} equations, "
                f"{len(self.variables)} variables>")


def generic_system(rank):
    """729 equations stating that rank many rank-one tensors sum to
    the matrix multiplication tensor.  They follow from the rank, so
    the system holds none: equations(system) builds them, and export,
    parse_system and check_solution read the coordinate columns."""
    if rank < 1:
        raise BrentError("rank must be >= 1")
    # the 27*rank coordinates in export order: term by term, and within
    # a term factor by factor, cell by cell
    variables = tuple(BrentVar(f, t, i, k) for t in range(1, rank + 1)
                      for f in range(3) for i, k in PAIRS)
    return BrentSystem("generic", variables, rank=rank)


def equations(system):
    """The system's equations: an invariant system's own, or the 729 of
    a generic system, built anew from its columns on each call."""
    if system.mode != "generic":
        return system.equations
    # one (variable, 1) factor per coordinate, shared by its monomials,
    # each already sorted as x < y < z in variable order
    return tuple(
        Equation(label, Polynomial(dict.fromkeys(zip(xs, ys, zs), ONE)), rhs)
        for label, xs, ys, zs, rhs in _generic_columns(
            [(v, 1) for v in system.variables]))


def _generic_columns(coords):
    """(label, xs, ys, zs, rhs) per generic equation, in equation order:
    the terms' coords at the label's cells of factors x, y and z, where
    coords stands for the 27*rank coordinates in variable order, and
    the target's coefficient at the label, 1 on its support and 0 off
    it."""
    support = matmul_tensor().entries
    # column 9*f + c lists the terms' cell c of factor f
    cols = [coords[c::27] for c in range(27)]
    blocks = [zip(PAIRS, cols[9 * f:9 * f + 9]) for f in range(3)]
    for (a, xs), (b, ys), (c, zs) in product(*blocks):
        label = a, b, c
        yield label, xs, ys, zs, ONE if label in support else ZERO


def invariant_system(multiset):
    """12 equations stating that the orbit sums of the multiset, with
    fresh parameters per slot, add up to the target's invariant
    coordinates t_gamma() (1 at gamma_1, gamma_3, gamma_9; 0
    elsewhere).  Each entry's orbit sum is its family's gamma-table row
    with the parameters renamed into the entry's slot.  The variables
    are each entry's family parameters in the entry's slot."""
    multiset = tuple(multiset)
    if not multiset:
        raise BrentError("multiset must be nonempty")
    variables = tuple(v for slot, fid in enumerate(multiset, start=1)
                      for v in get_family(fid).param_ids(slot))
    sums = [{} for _ in range(12)]
    for slot, fid in enumerate(multiset, start=1):
        rename = lambda v: ParamId(slot, v.letter)
        for acc, p in zip(sums, gamma_row(fid).coords):
            add_into(acc, p.map_vars(rename).terms.items())
    equations = tuple(
        Equation(m, Polynomial(sums[m - 1]), t_gamma()[m].constant_value())
        for m in range(1, 13)
    )
    return BrentSystem("invariant", variables, equations, multiset=multiset)


def check_solution(system, assignment):
    """Test every equation of the system exactly at a total assignment.

    Returns (ok, failing labels).  The assignment maps variable names
    (or variable objects) to scalars; every system variable must be
    assigned, and none twice (as "x1_11" and "x01_11").  A generic
    system is checked from its coordinate columns, an invariant one by
    substituting the values into each left side, which must then be the
    constant on the right."""
    # the system's own names are looked up; only other names are parsed
    named = dict(zip(_names(system), system.variables))
    values, spelled = {}, {}
    for k, v in assignment.items():
        var = named.get(k) or var_from_str(k) if isinstance(k, str) else k
        if spelled.setdefault(var, k) is not k:
            raise BrentError(f"variable {var} is assigned twice, "
                             f"as {spelled[var]!r} and as {k!r}")
        values[var] = Cyclotomic.coerce(v)
    missing = [v for v in system.variables if v not in values]
    if missing:
        raise BrentError(
            f"assignment misses {len(missing)} variables, first {missing[0]}")
    if system.mode == "generic":
        failing = _failing_columns(system.variables, values)
        return not failing, failing
    failing = []
    for eq in system.equations:
        lhs = eq.lhs.substitute(values)
        if not lhs.is_constant():
            raise BrentError(f"equation {eq.label} reads unassigned "
                             f"variable {lhs.variables()[0]}")
        if lhs.constant_value() != eq.rhs:
            failing.append(eq.label)
    return not failing, failing


def _failing_columns(variables, values):
    """The failing labels of a generic system, on packed ints.  With D
    the lcm of the values' coordinate denominators and M the largest
    |D*c| (or 1), each distinct value is packed once as the int
    sum_k (D*c_k) * 2^(s*k).  A sum over the rank terms of products of
    three packs is the polynomial in w of degree <= 9 they make; at most
    12 triples (i, j, k) in {0..3}^3 share a degree, so each coefficient
    is at most 12*rank*M^3 in size, and 2^(s-1) > 12*rank*M^3 keeps each
    one in its balanced base-2^s digit.  The heads x_t[a]*y_t[b] of a
    cell pair (a, b) are made once; each equation (a, b, c) is one
    C-level sum of them times its z column, whose 10 digits, reduced by
    w^k = w^(k-2) - w^(k-4), must be (D^3*rhs, 0, 0, 0)."""
    cols = [values[v].coords for v in variables]
    den = lcm(*(c.denominator for cs in cols for c in cs))
    scaled = {cs: [den // c.denominator * c.numerator for c in cs]
              for cs in set(cols)}
    m = max(1, *(abs(c) for cs in scaled.values() for c in cs))
    s = (12 * (len(variables) // 27) * m ** 3).bit_length() + 1
    packed = {cs: sum(c << s * k for k, c in enumerate(dcs))
              for cs, dcs in scaled.items()}
    # each digit is read with half added, as a plain bit field, so the
    # reduced coordinates carry -half, -half, half and half
    mask, half = (1 << s) - 1, 1 << (s - 1)
    offset = sum(half << s * k for k in range(10))
    shifts = range(0, 10 * s, s)
    want = {ONE: den ** 3 - half, ZERO: -half}
    failing, ab = [], None
    for label, xs, ys, zs, rhs in _generic_columns(
            [packed[cs] for cs in cols]):
        if label[:2] != ab:
            ab = label[:2]
            heads = list(map(mul, xs, ys))
        n = sum(map(mul, heads, zs), offset)
        d0, d1, d2, d3, d4, d5, d6, d7, d8, d9 = [n >> k & mask
                                                  for k in shifts]
        # w^4, ..., w^9 = w^2 - 1, w^3 - w, -1, -w, -w^2, -w^3
        if (d0 - d4 - d6, d1 - d5 - d7, d2 + d4 - d8,
                d3 + d5 - d9) != (want[rhs], -half, half, half):
            failing.append(label)
    return failing


def trivial_solution():
    """The rank-27 decomposition reading off the definition of matrix
    multiplication: term (i,j,k) is e(ij) x e(jk) x e(ki)."""
    return {BrentVar(f, term, r, c): int((r, c) == pair)
            for term, (i, j, k) in enumerate(product((1, 2, 3), repeat=3),
                                             start=1)
            for f, pair in enumerate(((i, j), (j, k), (k, i)))
            for r, c in PAIRS}


# -- serialization ---------------------------------------------------

def _names(system):
    """The variables' names, one shared string per variable."""
    return list(map(_NAMES.__getitem__, system.variables))


def _rows(system):
    """(label, printed lhs, printed rhs) per equation.  A generic system's
    equations are not built for it: each lhs, a sum of x*y*z terms in
    print order, is joined from the coordinate names."""
    rhs_text = _Memo(str)
    if system.mode != "generic":
        return [(eq.label, str(eq.lhs), rhs_text[eq.rhs])
                for eq in system.equations]
    return [(label, " + ".join(map("*".join, zip(xs, ys, zs))), rhs_text[rhs])
            for label, xs, ys, zs, rhs in _generic_columns(_names(system))]


def _head(system):
    if system.mode == "generic":
        return {"mode": system.mode, "rank": system.rank}
    return {"mode": system.mode, "multiset": list(system.multiset)}


def to_json(system):
    return {**_head(system), "variables": _names(system), "equations": [
        {"label": label if isinstance(label, int) else list(map(list, label)),
         "lhs": lhs, "rhs": rhs}
        for label, lhs, rhs in _rows(system)]}


def _json_list(items, indent):
    """Encoded items as json.dumps(..., indent=1) writes a list whose
    items sit at this indent."""
    pad = "\n" + " " * indent
    return f"[{pad}{(',' + pad).join(items)}{pad[:-1]}]" if items else "[]"


def _json_text(system):
    """json.dumps(to_json(system), indent=1) + "\n", byte for byte.  With
    indent set, the stdlib encodes in pure Python, so only the scalar
    head goes through it; the names and equations are written from
    their C-encoded strings, and each label from its pairs' texts."""
    enc = json.dumps
    pairs = _Memo(lambda p: _json_list(list(map(str, p)), 5))
    equations = [
        '{\n   "label": ' + (str(label) if isinstance(label, int) else
                           _json_list([pairs[p] for p in label], 4))
        + f',\n   "lhs": {enc(lhs)},\n   "rhs": {enc(rhs)}\n  }}'
        for label, lhs, rhs in _rows(system)]
    return (json.dumps(_head(system), indent=1)[:-2]
            + ',\n "variables": ' + _json_list([*map(enc, _names(system))], 2)
            + ',\n "equations": ' + _json_list(equations, 2) + "\n}\n")


def parse_system(rec):
    """The system a record's header names: the generic system of its
    rank or the invariant system of its multiset.  The record must be
    that system's export: its variables and equations are those of
    to_json(system), with every label made of ints, and a JSON text
    may repeat no key."""
    if isinstance(rec, (str, bytes)):
        rec = json.loads(rec, object_pairs_hook=_unique_keys)
    try:
        mode = rec["mode"]
        if mode == "generic":
            rank = rec["rank"]
            if type(rank) is not int or rank < 1:
                raise BrentError(
                    f"bad system record: rank {rank!r} is not a positive int")
            name = f"rank {rank}"
            # before the system is built, so that a large rank fails fast
            if len(rec["variables"]) != 27 * rank:
                raise BrentError(
                    f"bad system record: variables are not those of {name}")
            system = generic_system(rank)
        elif mode == "invariant":
            multiset = rec["multiset"]
            if not (isinstance(multiset, list) and multiset
                    and all(type(fid) is int for fid in multiset)):
                raise BrentError(f"bad system record: multiset {multiset!r} "
                                 "is not a nonempty list of family ids")
            name = f"multiset {multiset}"
            system = invariant_system(multiset)
        else:
            raise BrentError(f"bad system mode: {mode!r}")
        want = to_json(system)
        for part in ("variables", "equations"):
            if rec[part] != want[part]:
                raise BrentError(
                    f"bad system record: {part} are not those of {name}")
        if not all(_ints_only(eq["label"]) for eq in rec["equations"]):
            raise BrentError(
                f"bad system record: equations are not those of {name}")
        return system
    except (KeyError, TypeError, ValueError, CatalogError) as exc:
        raise BrentError(f"bad system record: {exc}") from exc


# a scalar's m2 text, in powers of the generator ww alone, by its
# coordinate tuple: that hash is C-level, a Cyclotomic's is Python
_M2_SCALARS = _Memo(
    lambda qs: _basis_str(qs, ("1", "ww", "ww^2", "ww^3")).replace(" ", ""))


def _m2_poly(p):
    """p in the m2 grammar, its terms in ascending variable order."""
    keys, scalars = _KEYS, _M2_SCALARS
    parts = []
    for mono, c in sorted(p.terms.items(),
                          key=lambda t: [(keys[v], e) for v, e in t[0]]):
        cs = scalars[c.coords]
        if "+" in cs[1:] or "-" in cs[1:]:
            cs = f"({cs})"
        if mono:
            m = _mono_str(mono).replace("_", "")
            cs = m if cs == "1" else f"{cs}*{m}"
        parts.append(cs)
    return "+".join(parts).replace("+-", "-") or "0"


def export(system, fmt):
    """Deterministic serialization: json (round-trips through
    parse_system), text (one equation per line in the polynomial
    grammar), or m2 (a polynomial-ring script for external
    computer-algebra solvers)."""
    if fmt == "json":
        return _json_text(system)
    if fmt == "text":
        lines = [f"{lhs} = {rhs}" for _, lhs, rhs in _rows(system)]
        return "\n".join(lines) + "\n"
    if fmt == "m2":
        names = ", ".join(_names(system)).replace("_", "")
        body = ",\n".join(
            f"  ({_m2_poly(eq.lhs)}) - ({_M2_SCALARS[eq.rhs.coords]})"
            for eq in equations(system))
        return ("-- generated equation system; "
                "ww is a primitive 12th root of unity\n"
                f"K = toField(QQ[ww]/(ww^4-ww^2+1));\nR = K[{names}];\n"
                f"I = ideal(\n{body}\n);\n")
    raise BrentError(f"unknown export format: {fmt!r}")
