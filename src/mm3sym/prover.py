"""Machine-checked proof that no invariant decomposition of the 3x3
matrix multiplication tensor has length <= 23.

Every type multiset of total orbit length <= 23 receives exactly one
elimination certificate.  The combinatorial glue (minimal counterexample
and replacement arguments) is explicit rule logic; all its mathematical
inputs -- gamma-coordinate supports, the sign tables for the four hard
length-18 families, the diagonal-part identities -- are re-derived
symbolically at run time before any certificate is issued.
"""

from functools import lru_cache
from typing import NamedTuple

from .cyclotomic import Cyclotomic
from .poly import Polynomial, ParamId, parse_polynomial
from .tensors import Tensor, pi12
from .invariants import GammaVector, project, orbit_sum, gamma_to_tensor
from .catalog import all_families, get_family, matmul_tensor
from .group import S3_ELEMENTS, perm_sign

__all__ = [
    "ProofError", "EliminationCertificate",
    "REDUCIBLE", "GAMMA_9_12", "DIAGONAL_OR_GAMMA_TABLE", "E_11_12_21",
    "GAMMA_3_EQ_5", "RULES",
    "MAX_LENGTH", "gamma_table", "gamma_row", "walk_multisets",
    "enumerate_multisets",
    "check_replacement", "check_gamma9_12", "check_sign_table", "check_e_class",
    "check_final", "verify_theorem", "TheoremReport",
]


class ProofError(Exception):
    """A symbolic identity required by a proof step failed."""


# certificate rules, in the order the proof applies them
REDUCIBLE = "REDUCIBLE_TYPES"
GAMMA_9_12 = "GAMMA_9_12"
DIAGONAL_OR_GAMMA_TABLE = "DIAGONAL_OR_GAMMA_TABLE"
E_11_12_21 = "E_11_12_21"
GAMMA_3_EQ_5 = "GAMMA_3_EQ_5"
RULES = (REDUCIBLE, GAMMA_9_12, DIAGONAL_OR_GAMMA_TABLE, E_11_12_21, GAMMA_3_EQ_5)

MAX_LENGTH = 23  # the length the five rules are proved for

# type sets the rules act on
REPLACEABLE_LARGE = frozenset({16, 18, 21, 25, 33, 42})  # replaced by < l tensors
REPLACEABLE_EQUAL = frozenset({4, 39, 43})               # replaced by <= 6 tensors
GAMMA_9_12_TYPES = frozenset({17, 22, 23, 26, 27, 28, 30, 31, 36, 37})
GAMMA_TABLE_TYPES = frozenset({24, 29, 32, 38})
E_CLASS_TYPES = frozenset({35})
FINAL_TYPES = frozenset({1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                         19, 20, 34, 40, 41, 44})  # all the others
REPLACEABLE = REPLACEABLE_LARGE | REPLACEABLE_EQUAL

# the per-family fact names that certificates cite, built once
_SUPPORT_FACTS = {fid: f"replacement.support.{fid}" for fid in REPLACEABLE}
_FINAL_FACTS = {fid: f"final.g3g5.{fid}" for fid in FINAL_TYPES}


class EliminationCertificate(NamedTuple):
    multiset: tuple           # sorted family ids, with multiplicity
    rule: str
    identities: tuple         # names of the verified facts the rule cites


class TheoremReport(NamedTuple):
    max_length: int
    certificates: list
    survivors: list
    facts: dict               # fact name -> human-readable statement
    rule_counts: dict

    @property
    def verified(self):
        return not self.survivors

    def summary(self):
        word = "VERIFIED" if self.verified else "FAILED"
        return (f"{word}: {len(self.survivors)} survivors of "
                f"{len(self.certificates) + len(self.survivors)} multisets "
                f"at max length {self.max_length}")


# -- symbolic orbit-sum table ----------------------------------------

@lru_cache(maxsize=None)
def gamma_table():
    """Orbit-sum gamma coordinates for every family, as polynomials in
    its fresh slot-0 parameters."""
    return {fid: gamma_row(fid) for fid in all_families()}


@lru_cache(maxsize=None)
def gamma_row(fid):
    """One family's row of gamma_table(), built on its own, so that a
    caller needing a few families does not project all 44."""
    return orbit_sum(_family_tensor(fid), get_family(fid).length)


@lru_cache(maxsize=None)
def _family_tensor(fid):
    """A family's tensor in its fresh slot-0 parameters, expanded once
    for the gamma table and every proof step that reads it."""
    return get_family(fid).tensor()


@lru_cache(maxsize=None)
def t_gamma():
    return project(matmul_tensor())


# -- multiset enumeration --------------------------------------------

def walk_multisets(max_length):
    """Yield every nonempty multiset of family ids with total orbit
    length <= max_length, as a sorted tuple in lexicographic order,
    together with its type set as an int: bit fid is set for each
    family fid in the multiset.  The walk keeps only the open
    prefixes, so it holds no list of the multisets."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    # chains[budget][k]: None, or (one, bit, children, rest) for the
    # first family from the k-th id on that fits in the budget: one is
    # (fid,), bit is 1 << fid, children the chain of the budget left
    # after it from the same id on, and rest the chain after it
    fams = [((fid,), 1 << fid, fam.length)
            for fid, fam in sorted(all_families().items())]
    chains = []
    for budget in range(max_length + 1):
        row = [None]
        for k in range(len(fams) - 1, -1, -1):
            one, bit, length = fams[k]
            row.append((one, bit, chains[budget - length][k], row[-1])
                       if length <= budget else row[-1])
        row.reverse()
        chains.append(row)
    # each pop yields one multiset, and pushes its rest and its children
    root = chains[max_length][0]
    stack = [((), 0, root)] if root else []
    pop, push = stack.pop, stack.append
    while stack:
        prefix, types, (one, bit, children, rest) = pop()
        if rest:
            push((prefix, types, rest))
        multiset, types = prefix + one, types | bit
        yield multiset, types
        if children:
            push((multiset, types, children))


def enumerate_multisets(max_length):
    """All nonempty multisets of family ids with total orbit length
    <= max_length, as sorted tuples in lexicographic order."""
    return [multiset for multiset, _ in walk_multisets(max_length)]


def count_multisets(max_length):
    """Independent count of the enumeration, by dynamic programming
    over (family prefix, remaining budget)."""
    lengths = [fam.length for _, fam in sorted(all_families().items())]

    @lru_cache(maxsize=None)
    def ways(k, budget):
        # number of multisets (including the empty one) using families k..
        if k == len(lengths):
            return 1
        total = ways(k + 1, budget)
        used = lengths[k]
        while used <= budget:
            total += ways(k + 1, budget - used)
            used += lengths[k]
        return total

    return ways(0, max_length) - 1  # drop the empty multiset


# -- proof steps -----------------------------------------------------

def _require(cond, name, detail=""):
    if not cond:
        raise ProofError(f"proof step {name} failed {detail}".strip())


def check_replacement():
    """Replacement argument for the nine reducible types: their orbit
    sums live in the span of gamma_1, gamma_2, gamma_6, which is also
    spanned by the three explicit short orbits of total length 6."""
    facts = {}
    table = gamma_table()
    for fid in sorted(REPLACEABLE):
        support = table[fid].support()
        _require(support <= {1, 2, 6}, "replacement.support",
                 f"family {fid} gamma support {sorted(support)}")
        facts[_SUPPORT_FACTS[fid]] = (
            f"orbit sum of family {fid} involves only g1, g2, g6"
        )
    # the three replacement orbits and their sums
    sigma1 = orbit_sum(get_family(7).tensor([1]), 1)
    sigma2 = orbit_sum(get_family(6).tensor([1]), 2)
    sigma3 = orbit_sum(get_family(5).tensor([0, 1]), 3)
    expect = {
        "sigma'": (sigma1, GammaVector([1, 1, 0, 0, 0, 1] + [0] * 6)),
        "sigma''": (sigma2, GammaVector([2, -1, 0, 0, 0, 2] + [0] * 6)),
        "sigma'''": (sigma3, GammaVector([1] + [0] * 11)),
    }
    for name, (got, want) in expect.items():
        _require(got == want, "replacement.vector", f"{name} = {got}")
        facts[f"replacement.vector.{name}"] = f"{name} = {want}"
    # the three vectors span <g1, g2, g6>: 3x3 Leibniz determinant over Q
    m = [[v[i].constant_value().as_fraction() for i in (1, 2, 6)]
         for v, _ in expect.values()]
    det = sum(perm_sign(p) * m[0][p[0] - 1] * m[1][p[1] - 1] * m[2][p[2] - 1]
              for p in S3_ELEMENTS)
    _require(det != 0, "replacement.det", f"det = {det}")
    facts["replacement.det"] = f"span determinant of (sigma', sigma'', sigma''') = {det}"
    # replacement budget: the three orbits have 1 + 2 + 3 = 6 tensors
    budget = 1 + 2 + 3
    for fid in sorted(REPLACEABLE_LARGE):
        _require(get_family(fid).length > budget, "replacement.budget",
                 f"family {fid}")
    for fid in sorted(REPLACEABLE_EQUAL):
        _require(get_family(fid).length <= budget, "replacement.budget",
                 f"family {fid}")
    facts["replacement.budget"] = (
        "replacement uses <= 6 tensors: shorter than types "
        f"{sorted(REPLACEABLE_LARGE)}, no longer than types "
        f"{sorted(REPLACEABLE_EQUAL)}"
    )
    return facts


def check_gamma9_12():
    """The ten remaining-support length-18 types force companions whose
    orbit sums all have equal gamma_9..gamma_12 coordinates, which the
    target tensor violates."""
    facts = {}
    table = gamma_table()
    companions = sorted(fid for fid, fam in all_families().items()
                        if fam.length <= MAX_LENGTH - 18)
    _require(companions == [5, 6, 7, 9], "gamma9_12.companions", str(companions))
    facts["gamma9_12.companions"] = (
        f"residual budget {MAX_LENGTH} - 18 = {MAX_LENGTH - 18} "
        "admits only types 5, 6, 7, 9"
    )
    for fid in sorted(GAMMA_9_12_TYPES | {5, 6, 7}):
        for m in (9, 10, 11, 12):
            _require(not table[fid][m], "gamma9_12.zero",
                     f"family {fid} gamma_{m}")
        facts[f"gamma9_12.zero.{fid}"] = (
            f"orbit sum of family {fid} has zero g9..g12 coordinates"
        )
    # family 9: all four coordinates equal 4 b^3
    want = parse_polynomial("4*b^3")
    for m in (9, 10, 11, 12):
        _require(table[9][m] == want, "gamma9_12.family9", f"gamma_{m}")
    facts["gamma9_12.family9"] = "orbit sum of family 9 has g9..g12 all equal to 4*b^3"
    tg = t_gamma()
    _require(tg[9] == Polynomial.constant(1), "gamma9_12.target.g9", str(tg[9]))
    for m in (10, 11, 12):
        _require(not tg[m], "gamma9_12.target", f"gamma_{m}")
    facts["gamma9_12.target"] = "target tensor has (g9, g10, g11, g12) = (1, 0, 0, 0)"
    return facts


def _diagonal_part(t):
    return Tensor({
        a: c for a, c in t.entries.items()
        if all(i == j for i, j in a)
    })


def check_sign_table():
    """The four sign-table types: case (a) kills companions containing
    type 9 through diagonal entries, case (b) kills the rest through
    the g9..g12 sign table."""
    facts = {}
    table = gamma_table()
    # case (a): the four families have no diagonal-triple entries, so
    # the diagonal part of the sum comes from types 9 and 7 alone and
    # is a multiple of the all-ones diagonal pattern
    for fid in sorted(GAMMA_TABLE_TYPES):
        _require(not _diagonal_part(_family_tensor(fid)),
                 "sign_table.diag", f"family {fid}")
        facts[f"sign_table.diag.{fid}"] = (
            f"family {fid} has no e(ii,jj,kk) entries"
        )
    # the 27 indices e(ii,jj,kk) make up Q1, Q2 and Q6
    diag9 = _diagonal_part(gamma_to_tensor(table[9]))
    a_cubed = parse_polynomial("4*a^3")
    _require(len(diag9) == 27, "sign_table.diag9.size", str(len(diag9)))
    _require(all(p == a_cubed for _, p in diag9.items()), "sign_table.diag9")
    facts["sign_table.diag9"] = (
        "diagonal part of the family-9 orbit sum is 4*a^3 at all 27 "
        "e(ii,jj,kk) indices"
    )
    T = matmul_tensor()
    one = Polynomial.constant(1)
    _require(T.coeff(((1, 1), (1, 1), (1, 1))) == one, "sign_table.target.diag")
    _require(not T.coeff(((1, 1), (1, 1), (2, 2))), "sign_table.target.diag")
    facts["sign_table.target.diag"] = (
        "target tensor has coefficient 1 at e(11,11,11) and 0 at e(11,11,22)"
    )
    # case (b): the g9..g12 sign table, re-derived symbolically from
    # the orbit sums rather than asserted
    sign_table = {
        24: ("6*a^2*d", "2*a^2*d+4*a*b*d", "2*b^2*d+4*a*b*d", "6*b^2*d"),
        29: ("6*i*a^2*d", "2*i*a^2*d+4*i*a*b*d", "2*i*b^2*d+4*i*a*b*d",
             "6*i*b^2*d"),
        32: ("6*a^2*d", "-2*a^2*d+4*a*b*d", "2*b^2*d-4*a*b*d", "-6*b^2*d"),
        38: ("6*i*a^2*d", "-2*i*a^2*d+4*i*a*b*d", "2*i*b^2*d-4*i*a*b*d",
             "-6*i*b^2*d"),
    }
    b0 = {ParamId(0, "b"): 0}
    third = Cyclotomic.rational(1, 3)
    for fid, cells in sign_table.items():
        for m, cell in zip((9, 10, 11, 12), cells):
            _require(table[fid][m] == parse_polynomial(cell),
                     "sign_table.table", f"family {fid} gamma_{m}: {table[fid][m]}")
        facts[f"sign_table.table.{fid}"] = (
            f"family {fid} g9..g12 coordinates are "
            + ", ".join(cells)
        )
        # the implication chain: g12 = 0 forces b^2 d = 0; g9 != 0
        # forces a^2 d != 0, hence b = 0; then g10 is +-1/3 of g9,
        # still nonzero, contradicting the target's g10 = 0
        g9_0 = table[fid][9].substitute(b0)
        g10_0 = table[fid][10].substitute(b0)
        plus = g10_0 == g9_0.scale(third)
        minus = g10_0 == g9_0.scale(-third)
        _require(plus or minus, "sign_table.chain", f"family {fid}")
        _require(bool(g10_0), "sign_table.chain.nonzero", f"family {fid}")
        sign = "+" if plus else "-"
        facts[f"sign_table.chain.{fid}"] = (
            f"family {fid} at b=0: g10 coordinate = {sign}1/3 of the g9 "
            "coordinate, so g9 != 0 forces g10 != 0"
        )
    return facts


def check_e_class():
    """Type 35: case (a) is the diagonal argument again; case (b) uses
    the e(11,12,21) class, which the target involves but neither the
    type-35 orbit sum nor any short companion does."""
    facts = {}
    table = gamma_table()
    for fid in sorted(E_CLASS_TYPES):
        _require(not _diagonal_part(_family_tensor(fid)),
                 "e_class.diag", f"family {fid}")
        facts[f"e_class.diag.{fid}"] = f"family {fid} has no e(ii,jj,kk) entries"
    for fid in sorted(E_CLASS_TYPES | {5, 6, 7}):
        _require(not table[fid][3], "e_class.g3", f"family {fid}")
        facts[f"e_class.g3.{fid}"] = (
            f"orbit sum of family {fid} has zero g3 coordinate"
        )
    _require(t_gamma()[3] == Polynomial.constant(1), "e_class.target.g3")
    facts["e_class.target.g3"] = "target tensor has g3 coordinate 1"
    return facts


def check_final():
    """The surviving types all have pi12-symmetric representatives, so
    their orbit sums carry g3 and g5 with equal coefficients (or, for
    type 44, neither); the target has (g3, g5) = (1, 0)."""
    facts = {}
    table = gamma_table()
    rest = frozenset(all_families()) - (
        REPLACEABLE | GAMMA_9_12_TYPES | GAMMA_TABLE_TYPES | E_CLASS_TYPES)
    _require(rest == FINAL_TYPES, "final.types", str(sorted(rest)))
    facts["final.types"] = (
        "types not eliminated by the earlier steps: " + str(sorted(rest))
    )
    for fid in sorted(rest):
        if fid == 44:
            _require(not table[fid][3] and not table[fid][5],
                     "final.g3g5", "family 44")
            facts[_FINAL_FACTS[44]] = (
                "orbit sum of family 44 involves neither g3 nor g5"
            )
            continue
        w = _family_tensor(fid)
        _require(pi12(w) == w, "final.pi12", f"family {fid}")
        _require(table[fid][3] == table[fid][5], "final.g3g5",
                 f"family {fid}")
        facts[_FINAL_FACTS[fid]] = (
            f"family {fid} is pi12-symmetric and its orbit sum has equal "
            "g3 and g5 coordinates"
        )
    tg = t_gamma()
    _require(tg[3] == Polynomial.constant(1) and not tg[5],
             "final.target")
    facts["final.target"] = "target tensor has (g3, g5) = (1, 0)"
    return facts


# -- certificate assembly --------------------------------------------

def _certificate_for(multiset):
    """First applicable rule, in the proof's order."""
    types = set(multiset)
    hit = sorted(types & REPLACEABLE)
    if hit:
        ids = tuple([_SUPPORT_FACTS[fid] for fid in hit]) + (
            "replacement.vector.sigma'", "replacement.vector.sigma''",
            "replacement.vector.sigma'''", "replacement.det", "replacement.budget",
        )
        return EliminationCertificate(multiset, REDUCIBLE, ids)
    hit = sorted(types & GAMMA_9_12_TYPES)
    if hit:
        # every member's orbit sum has equal g9..g12 coordinates
        ids = []
        for fid in sorted(types):
            if fid in GAMMA_9_12_TYPES or fid in (5, 6, 7):
                ids.append(f"gamma9_12.zero.{fid}")
            elif fid == 9:
                ids.append("gamma9_12.family9")
            else:
                raise ProofError(
                    f"multiset {multiset}: family {fid} escapes gamma9_12"
                )
        ids += ["gamma9_12.companions", "gamma9_12.target"]
        return EliminationCertificate(multiset, GAMMA_9_12, tuple(ids))
    hit = sorted(types & GAMMA_TABLE_TYPES)
    if hit:
        ids = [f"sign_table.diag.{fid}" for fid in hit]
        if 9 in types:
            ids += ["sign_table.diag9", "sign_table.target.diag"]
        else:
            ids += [f"sign_table.table.{fid}" for fid in hit]
            ids += [f"sign_table.chain.{fid}" for fid in hit]
            ids += [f"gamma9_12.zero.{fid}" for fid in sorted(types - set(hit))]
            ids += ["gamma9_12.target"]
        return EliminationCertificate(
            multiset, DIAGONAL_OR_GAMMA_TABLE, tuple(ids))
    if 35 in types:
        ids = ["e_class.diag.35"]
        if 9 in types:
            ids += ["sign_table.diag9", "sign_table.target.diag"]
        else:
            ids += [f"e_class.g3.{fid}" for fid in sorted(types)]
            ids += ["e_class.target.g3"]
        return EliminationCertificate(multiset, E_11_12_21, tuple(ids))
    if types <= FINAL_TYPES:
        ids = [_FINAL_FACTS[fid] for fid in sorted(types)]
        ids += ["final.target"]
        return EliminationCertificate(multiset, GAMMA_3_EQ_5, tuple(ids))
    return None


def verify_theorem(max_length=MAX_LENGTH):
    """Run every proof step, then certify every admissible multiset;
    raises ValueError above MAX_LENGTH."""
    if max_length > MAX_LENGTH:
        raise ValueError(f"max_length must be <= {MAX_LENGTH}")
    facts = {**check_replacement(), **check_gamma9_12(), **check_sign_table(),
             **check_e_class(), **check_final()}
    certificates = []
    survivors = []
    rule_counts = {rule: 0 for rule in RULES}
    # a certificate's rule and identities depend only on the type set,
    # so each type set is certified once, on its first multiset
    by_types = {}
    make = EliminationCertificate._make
    for multiset, types in walk_multisets(max_length):
        if types not in by_types:
            by_types[types] = _certificate_for(multiset)
        first = by_types[types]
        if first is None:
            survivors.append(multiset)
        else:
            certificates.append(make((multiset, first.rule, first.identities)))
            rule_counts[first.rule] += 1
    # every multiset cites the facts of its type set's certificate
    used = set()
    for cert in filter(None, by_types.values()):
        used.update(cert.identities)
    missing = used - set(facts)
    if missing:
        raise ProofError(f"certificates cite unverified facts: {sorted(missing)}")
    return TheoremReport(max_length, certificates, survivors, facts, rule_counts)
