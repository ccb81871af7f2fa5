import heapq
import io
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from mm3sym.cyclotomic import Cyclotomic, IMAG
from mm3sym.group import enumerate_group, orbit_and_stabilizer
from mm3sym.invariants import (
    CLASS_REPRESENTATIVES, orbit_sum, GammaVector, gamma_to_tensor,
)
from mm3sym.poly import Polynomial
from mm3sym.tensors import tensor_sum
from mm3sym.catalog import OrbitFamily, all_families, get_family
from mm3sym import prover
from mm3sym.cli import run

from factors import act_on_factors

# frozen count of nonempty type multisets of total length <= 23
GOLDEN_MULTISET_COUNT = 14623
# and of total length <= 24, 25, 26, 27
GOLDEN_COUNTS_ABOVE = {24: 19923, 25: 26356, 26: 35100, 27: 46511}


def test_rule_sets_partition_the_catalog():
    sets = (
        prover.REPLACEABLE_LARGE | prover.REPLACEABLE_EQUAL,
        prover.GAMMA_9_12_TYPES,
        prover.GAMMA_TABLE_TYPES,
        prover.E_CLASS_TYPES,
        prover.FINAL_TYPES,
    )
    assert [len(s) for s in sets] == [9, 10, 4, 1, 20]
    union = set()
    for s in sets:
        assert not (union & s)
        union |= s
    assert union == set(all_families())


def test_enumeration_against_counting_oracle():
    for budget in range(1, 28):
        assert len(prover.enumerate_multisets(budget)) == \
            prover.count_multisets(budget)
    assert len(prover.enumerate_multisets(23)) == GOLDEN_MULTISET_COUNT
    for budget, count in GOLDEN_COUNTS_ABOVE.items():
        assert prover.count_multisets(budget) == count


def test_enumeration_structure():
    ms = prover.enumerate_multisets(23)
    assert len(set(ms)) == len(ms)
    assert ms == sorted(ms)  # the report bytes follow this order
    for m in ms:
        assert m == tuple(sorted(m))
        assert 1 <= sum(get_family(fid).length for fid in m) <= 23
    # monotone in the budget
    assert set(prover.enumerate_multisets(10)) <= set(ms)
    with pytest.raises(ValueError):
        prover.enumerate_multisets(0)


def test_proof_steps_pass():
    for step in (prover.check_replacement, prover.check_gamma9_12,
                 prover.check_sign_table, prover.check_e_class,
                 prover.check_final):
        facts = step()
        assert facts


def test_sign_table_family32_gamma10_recomputed():
    # the g10 coordinate of family 32's orbit sum: the sign of the
    # a^2*d term follows from the hand enumeration of the 16 indices of
    # the representative tensor that land in classes Q9..Q12, and is
    # opposite to the sign in the family-24 column
    from mm3sym.poly import parse_polynomial
    table = prover.gamma_table()
    assert table[32][10] == parse_polynomial("-2*a^2*d + 4*a*b*d")
    assert table[32][10] != parse_polynomial("2*a^2*d + 4*a*b*d")
    assert table[24][10] == parse_polynomial("2*a^2*d + 4*a*b*d")


def test_gamma_table_matches_direct_orbit_sums():
    # the proof reads every orbit sum from the gamma table, l*p(w);
    # here each row is summed again over the family's actual orbit
    table = prover.gamma_table()
    for fid, fam in sorted(all_families().items()):
        orbit = orbit_and_stabilizer(fam.tensor())[0]
        assert gamma_to_tensor(table[fid]) == tensor_sum(orbit), fid


# -- the gamma table through matrices, apart from the index action ----

_FACTOR_SLOTS = {"cube": (0, 0, 0), "square": (0, 0, 1), "triple": (0, 1, 2)}


def _gamma_by_matrices(fam, assignment):
    """l*p(w) in gamma coordinates at a parameter point, through matrices
    alone: every g in G acts on the factor triple of w, and coordinate i
    is l/144 times the sum over g of g w at the i-th class
    representative.  This holds at a degenerate point too, where the
    orbit is shorter than l."""
    def value(p):
        return p.substitute(assignment).constant_value()

    x, y, z = ([[value(p) for p in row] for row in fam.factors[k]]
               for k in _FACTOR_SLOTS[fam.power])
    sums = [0] * 12
    for g in enumerate_group("G"):
        gx, gy, gz = act_on_factors(g, x, y, z)
        for k, ((a, b), (c, d), (e, f)) in enumerate(CLASS_REPRESENTATIVES):
            sums[k] += gx[a - 1][b - 1] * gy[c - 1][d - 1] * gz[e - 1][f - 1]
    scale = Cyclotomic.rational(fam.length, 144)
    if fam.scale is not None:
        scale = scale * value(fam.scale)
    return [scale * s for s in sums]


def _row_mismatches(fid, row, rng):
    """The gamma coordinates at which row, evaluated at a random
    Gaussian-integer point, differs from the matrix route there."""
    fam = get_family(fid)
    assignment = {v: Cyclotomic.coerce(rng.choice((1, -1, 2, -2, 3)))
                  + rng.randint(-3, 3) * IMAG for v in fam.param_ids()}
    want = _gamma_by_matrices(fam, assignment)
    return [i for i in range(1, 13)
            if row[i].substitute(assignment) != want[i - 1]]


def test_gamma_rows_match_matrix_route():
    rng = random.Random(89)
    for fid in sorted(all_families()):
        assert _row_mismatches(fid, prover.gamma_row(fid), rng) == [], fid


@pytest.mark.parametrize("fid", [24, 38])
def test_matrix_route_catches_a_planted_coefficient(fid):
    # one coefficient of one monomial of the row is doubled
    row = prover.gamma_row(fid)
    i = min(row.support())
    (m, c), *_ = row[i].terms.items()
    coords = list(row.coords)
    coords[i - 1] = coords[i - 1] + Polynomial({m: c})
    assert _row_mismatches(fid, GammaVector(coords), random.Random(97)) == [i]


def test_verify_theorem():
    report = prover.verify_theorem(23)
    assert report.verified
    assert not report.survivors
    assert len(report.certificates) == GOLDEN_MULTISET_COUNT
    assert sum(report.rule_counts.values()) == GOLDEN_MULTISET_COUNT
    assert report.summary() == (
        "VERIFIED: 0 survivors of 14623 multisets at max length 23")
    # every cited identity is a verified fact
    for cert in report.certificates:
        assert cert.multiset == tuple(sorted(cert.multiset))
        for name in cert.identities:
            assert name in report.facts
    # the rules are proved for length 23 only
    with pytest.raises(ValueError):
        prover.verify_theorem(24)


def test_certificates_use_first_applicable_rule():
    report = prover.verify_theorem(23)
    by_multiset = {c.multiset: c.rule for c in report.certificates}
    assert by_multiset[(16,)] == prover.REDUCIBLE
    assert by_multiset[(4, 9)] == prover.REDUCIBLE
    assert by_multiset[(5, 6, 17)] == prover.GAMMA_9_12
    assert by_multiset[(9, 24)] == prover.DIAGONAL_OR_GAMMA_TABLE
    assert by_multiset[(24,)] == prover.DIAGONAL_OR_GAMMA_TABLE
    assert by_multiset[(5, 35)] == prover.E_11_12_21
    assert by_multiset[(1, 5)] == prover.GAMMA_3_EQ_5
    assert by_multiset[(44,)] == prover.GAMMA_3_EQ_5


def _random_params(rng, fam):
    return [Cyclotomic.rational(rng.randint(1, 7), rng.randint(1, 3))
            for _ in fam.params]


def _numeric_sum(rng, multiset):
    total = GammaVector()
    for fid in multiset:
        fam = get_family(fid)
        w = fam.tensor(_random_params(rng, fam))
        total = total + orbit_sum(w, fam.length)
    return total


def test_certificate_obstructions_numerically():
    # for random multisets, instantiate every family at random
    # parameters and confirm the obstruction the certificate cites
    rng = random.Random(97)
    report = prover.verify_theorem(23)
    by_rule = {}
    for cert in report.certificates:
        by_rule.setdefault(cert.rule, []).append(cert.multiset)
    for multiset in rng.sample(by_rule[prover.GAMMA_3_EQ_5], 5):
        v = _numeric_sum(rng, multiset)
        assert v[3] == v[5]  # the target needs (g3, g5) = (1, 0)
    for multiset in rng.sample(by_rule[prover.GAMMA_9_12], 5):
        v = _numeric_sum(rng, multiset)
        assert v[9] == v[10] == v[11] == v[12]  # target needs (1, 0, 0, 0)


def test_replacement_budget_data():
    # only types 5, 6, 7 and 9 fit beside a length-18 type at length 23
    assert prover.check_gamma9_12()["gamma9_12.companions"] == (
        "residual budget 23 - 18 = 5 admits only types 5, 6, 7, 9")
    for fid in prover.REPLACEABLE_LARGE:
        assert get_family(fid).length > 6
    for fid in prover.REPLACEABLE_EQUAL:
        assert get_family(fid).length <= 6


def test_proof_error_on_corrupted_table():
    # the proof steps really check: a wrong expectation must raise
    prover.check_replacement()
    with pytest.raises(prover.ProofError):
        prover._require(False, "demo")


@pytest.mark.parametrize("fid, m, step", [
    (24, 10, "sign_table.table"),
    (38, 12, "sign_table.table"),
    (17, 9, "gamma9_12.zero"),
    (35, 3, "e_class.g3"),
    (16, 4, "replacement.support"),
    (1, 3, "final.g3g5"),
])
def test_proof_error_on_planted_coordinate(monkeypatch, fid, m, step):
    # one wrong coordinate in the gamma table fails the step that reads it
    planted = dict(prover.gamma_table())
    coords = list(planted[fid].coords)
    coords[m - 1] = coords[m - 1] + 1
    planted[fid] = GammaVector(coords)
    monkeypatch.setattr(prover, "gamma_table", lambda: planted)
    with pytest.raises(prover.ProofError, match=f"proof step {step} failed"):
        prover.verify_theorem(23)


def test_certificate_json():
    out = io.StringIO()
    assert run(["verify", "--max-length", "5", "--report", "json"], out=out) == 0
    rec = json.loads(out.getvalue())["certificates"][0]
    assert set(rec) == {"multiset", "rule", "identities"}
    assert rec["rule"] in prover.RULES


@pytest.mark.parametrize("max_length", [1, 6, 12, 23])
def test_certification_per_type_set_matches_direct_route(max_length):
    # verify_theorem certifies each type set once, in one walk; the
    # rule logic on every multiset on its own must give the same
    # certificates, and both lists keep the walk's order
    report = prover.verify_theorem(max_length)
    multisets = prover.enumerate_multisets(max_length)
    assert list(heapq.merge([c.multiset for c in report.certificates],
                            report.survivors)) == multisets
    assert len(multisets) == prover.count_multisets(max_length)
    got = {c.multiset: c for c in report.certificates}
    got.update((m, None) for m in report.survivors)
    for m in multisets:
        assert got[m] == prover._certificate_for(m)


def test_walk_yields_each_type_set_as_its_bits():
    walk = list(prover.walk_multisets(23))
    assert [m for m, _ in walk] == prover.enumerate_multisets(23)
    for m, types in walk:
        assert types == sum(1 << fid for fid in set(m))
    with pytest.raises(ValueError):
        next(prover.walk_multisets(0))


def test_walk_table_shares_its_tails():
    # the table holds one chain link per (budget, family) and copies no
    # list, so at 1000 it stays near 3.6 MB before the first multiset
    prover.enumerate_multisets(1)  # load the catalog before tracing
    tracemalloc.start()
    try:
        first = next(prover.walk_multisets(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == ((1,), 1 << 1)
    assert peak < 5_000_000


def test_walk_with_no_fitting_family_yields_nothing(monkeypatch):
    # family 6 has orbit length 2, so nothing fits a budget of 1
    six = get_family(6)
    monkeypatch.setattr(prover, "all_families", lambda: {6: six})
    assert list(prover.walk_multisets(1)) == []
    assert list(prover.walk_multisets(2)) == [((6,), 1 << 6)]


def test_unverified_fact_of_a_late_type_set_is_caught(monkeypatch):
    # the type set {5, 35} is first reached at multiset 8865 of 14623
    certify = prover._certificate_for

    def planted(multiset):
        cert = certify(multiset)
        if set(multiset) == {5, 35}:
            cert = cert._replace(identities=(*cert.identities, "no.such.fact"))
        return cert

    monkeypatch.setattr(prover, "_certificate_for", planted)
    with pytest.raises(prover.ProofError, match=r"certificates cite "
                       r"unverified facts: \['no\.such\.fact'\]"):
        prover.verify_theorem(23)


def test_verify_work_counts(monkeypatch):
    # from cold caches: one certification per type set, and each family
    # tensor expanded once (44 fresh ones, 3 at the replacement points)
    for cached in (prover.gamma_table, prover.gamma_row,
                   prover._family_tensor):
        cached.cache_clear()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(prover, "_certificate_for",
                        counted("certify", prover._certificate_for))
    monkeypatch.setattr(OrbitFamily, "tensor",
                        counted("tensor", OrbitFamily.tensor))
    report = prover.verify_theorem(23)
    type_sets = {frozenset(c.multiset) for c in report.certificates}
    assert calls["certify"] == len(type_sets) == 2620
    assert calls["tensor"] <= 47
