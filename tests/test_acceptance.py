"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they are produced.  Every check is exact (structural equality); each
also enforces its time budget.
"""

import functools
import random
import time

from mm3sym import group
from mm3sym.cyclotomic import Cyclotomic
from mm3sym.poly import Polynomial, parse_polynomial
from mm3sym.tensors import INDICES, Tensor, index_is_even, tensor_sum
from mm3sym.invariants import (
    compute_classes, CLASS_SIZES, CLASS_REPRESENTATIVES,
    GammaVector, project, orbit_sum, gamma_to_tensor, reynolds,
)
from mm3sym.catalog import (
    all_families, get_family, matmul_tensor, verify_catalog,
)
from mm3sym import prover, brent
from mm3sym.cli import run as cli_run


def criterion(number, title, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < budget, (
                f"criterion {number} took {elapsed:.1f}s, budget {budget}s")
            print(f"PASS criterion {number}: {title} ({elapsed:.1f}s)")
        return wrapper
    return deco


@criterion(1, "class table sizes and representatives", 1)
def test_criterion_1_class_table():
    classes = compute_classes()
    assert tuple(len(c) for c in classes) == (3, 18, 18, 36, 18, 6,
                                              18, 18, 6, 18, 18, 6)
    for cid, rep in enumerate(CLASS_REPRESENTATIVES, start=1):
        assert rep in classes[cid - 1]
    assert sum(1 for a in INDICES if index_is_even(a)) == 183


@criterion(2, "target tensor projects to g1 + g3 + g9", 1)
def test_criterion_2_target_projection():
    assert project(matmul_tensor()) == GammaVector(
        [1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0])


@criterion(3, "worked orbit-sum example at parameters (1,2,3,4,5)", 1)
def test_criterion_3_worked_example():
    fam = get_family(27)
    w = fam.tensor([1, 2, 3, 4, 5])
    v = orbit_sum(w, fam.length)
    assert gamma_to_tensor(v) == tensor_sum(group.orbit_and_stabilizer(w)[0])
    assert v == GammaVector([318, 214, 32, -32, 32, 174, -40, 40, 0, 0, 0, 0])
    assert str(v) == ("318*g1 + 214*g2 + 32*g3 - 32*g4 + 32*g5 + 174*g6 "
                      "- 40*g7 + 40*g8")


@criterion(4, "g9..g12 table for the four length-18 sign-table families", 10)
def test_criterion_4_sign_table():
    # the (32, g10) a^2*d sign is the independently re-derived one; see
    # the dedicated re-derivation test in test_prover.py
    table = prover.gamma_table()
    expect = {
        24: ("6*a^2*d", "2*a^2*d+4*a*b*d", "2*b^2*d+4*a*b*d", "6*b^2*d"),
        29: ("6*i*a^2*d", "2*i*a^2*d+4*i*a*b*d", "2*i*b^2*d+4*i*a*b*d",
             "6*i*b^2*d"),
        32: ("6*a^2*d", "-2*a^2*d+4*a*b*d", "2*b^2*d-4*a*b*d", "-6*b^2*d"),
        38: ("6*i*a^2*d", "-2*i*a^2*d+4*i*a*b*d", "2*i*b^2*d-4*i*a*b*d",
             "-6*i*b^2*d"),
    }
    for fid, cells in expect.items():
        for m, cell in zip((9, 10, 11, 12), cells):
            assert table[fid][m] == parse_polynomial(cell), (fid, m)


@criterion(5, "replacement orbit sums sigma', sigma'', sigma'''", 1)
def test_criterion_5_replacement_vectors():
    s1 = orbit_sum(get_family(7).tensor([1]), 1)
    s2 = orbit_sum(get_family(6).tensor([1]), 2)
    s3 = orbit_sum(get_family(5).tensor([0, 1]), 3)
    assert s1 == GammaVector([1, 1, 0, 0, 0, 1] + [0] * 6)
    assert s2 == GammaVector([2, -1, 0, 0, 0, 2] + [0] * 6)
    assert s3 == GammaVector([1] + [0] * 11)


@criterion(6, "family 9 orbit sum has g9..g12 all equal to 4*b^3", 1)
def test_criterion_6_family9():
    v = prover.gamma_table()[9]
    want = parse_polynomial("4*b^3")
    for m in (9, 10, 11, 12):
        assert v[m] == want


@criterion(7, "catalog orbit lengths and stabilizers for all 44 families", 120)
def test_criterion_7_catalog():
    verify_catalog()
    for fid, fam in all_families().items():
        t = fam.tensor()
        orbit, stabilizer = group.orbit_and_stabilizer(t)
        assert len(orbit) == fam.length
        assert fam.length * stabilizer == 144


@criterion(8, "invariance suite: fixed target, Reynolds = projection", 60)
def test_criterion_8_invariance():
    T = matmul_tensor()
    G = group.enumerate_group("G")
    for g in G:
        assert group.act_on_tensor(g, T) == T
    rng = random.Random(109)
    for _ in range(20):
        entries = {}
        for _ in range(6):
            entries[INDICES[rng.randrange(729)]] = \
                Polynomial.coerce(rng.randint(-3, 3))
        w = Tensor({a: c for a, c in entries.items() if c})
        v = project(w)
        assert project(gamma_to_tensor(v)) == v                # idempotent
        assert reynolds(w) == gamma_to_tensor(v)               # averaging
        g = rng.choice(G)
        assert project(group.act_on_tensor(g, w)) == v         # invariance
    zero = Tensor()
    for alpha in INDICES:
        if index_is_even(alpha):
            continue
        total = Tensor()
        for g in G:
            total = total + group.act_on_tensor(
                g, Tensor({alpha: Polynomial.constant(1)}))
        assert total == zero


@criterion(9, "no invariant decomposition of length <= 23 exists", 300)
def test_criterion_9_theorem():
    report = prover.verify_theorem(23)
    assert len(report.certificates) == 14623  # golden enumeration count
    assert prover.count_multisets(23) == 14623
    assert report.survivors == []
    assert report.verified
    assert cli_run(["verify", "--max-length", "23"],
                   out=open("/dev/null", "w")) == 0


@criterion(10, "Brent systems: counts, trivial solution, round-trip", 10)
def test_criterion_10_brent():
    s23 = brent.generic_system(23)
    assert len(s23.equations) == 729
    assert len(s23.variables) == 621
    s27 = brent.generic_system(27)
    ok, failing = brent.check_solution(s27, brent.trivial_solution())
    assert ok and not failing
    blob = brent.export(s23, "json")
    assert brent.parse_system(blob) == s23
