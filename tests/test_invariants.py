import random

import pytest

from mm3sym import group, invariants
from mm3sym.cyclotomic import Cyclotomic
from mm3sym.poly import Polynomial, parse_polynomial
from mm3sym.tensors import INDICES, POSITION, Tensor, pi12, tensor_sum
from mm3sym.invariants import (
    compute_classes, CLASS_SIZES, CLASS_REPRESENTATIVES, ClassTableError,
    GammaVector, r_sum, project, orbit_sum,
    gamma_to_tensor, reynolds,
)
from mm3sym.catalog import all_families, matmul_tensor, get_family


def rand_tensor(rng, size=5):
    entries = {}
    for _ in range(size):
        entries[INDICES[rng.randrange(729)]] = \
            Polynomial.coerce(rng.randint(-3, 3))
    return Tensor({a: c for a, c in entries.items() if c})


def test_class_table():
    classes = compute_classes()
    assert tuple(len(c) for c in classes) == CLASS_SIZES
    assert sum(CLASS_SIZES) == 183
    for cls, rep in zip(classes, CLASS_REPRESENTATIVES):
        assert rep in cls
    # the classes partition the even indices
    union = set()
    for cls in classes:
        assert not (union & cls)
        union |= cls
    assert len(union) == 183


def test_classes_are_group_stable():
    # every group element maps each class into itself; on even indices
    # the sign is always +1
    for g in group.enumerate_group("G"):
        for cls in compute_classes():
            images = set()
            for alpha in cls:
                unit = Tensor({alpha: Polynomial.constant(1)})
                (beta, c), = group.act_on_tensor(g, unit).entries.items()
                assert c == Polynomial.constant(1)
                images.add(beta)
            assert images == cls


@pytest.mark.parametrize("which", ["G", "G1"])
def test_invariant_space_has_dimension_12(which):
    # Burnside: dim V^H is the mean over h in H of the trace of h, and h
    # acts on each basis tensor by a signed permutation, so its trace is
    # the sum of its signs at the positions it fixes.  With the 12
    # disjoint, invariant class sums this makes gamma_1..gamma_12 a
    # basis of the whole invariant space, for G and G1 alike.
    elements = group.enumerate_group(which)
    trace = 0
    for h in elements:
        moves = group._position_table(h.perm, h.bperm)
        signs = group._sign_vector(h.signs)
        trace += sum(signs[n] for n in range(729) if moves[n] == n)
    assert trace == 12 * len(elements)


@pytest.mark.parametrize("name, table, message", [
    ("CLASS_SIZES", CLASS_SIZES[:3] + (35,) + CLASS_SIZES[4:],
     "class Q4 has 36 indices, expected 35"),
    # Q12 gets the representative of Q9, whose class has the same size
    ("CLASS_REPRESENTATIVES",
     CLASS_REPRESENTATIVES[:11] + CLASS_REPRESENTATIVES[8:9],
     "class Q12 meets an earlier class"),
    ("CLASS_REPRESENTATIVES", CLASS_REPRESENTATIVES[:11],
     "the classes cover 177 indices, not the 183 even indices"),
], ids=["wrong_size", "duplicate_representative", "dropped_representative"])
def test_class_table_errors(monkeypatch, name, table, message):
    compute_classes.cache_clear()
    monkeypatch.setattr(invariants, name, table)
    try:
        with pytest.raises(ClassTableError, match=message):
            compute_classes()
    finally:
        monkeypatch.undo()
        compute_classes.cache_clear()


def test_gamma_vector_basics():
    v = GammaVector([1] + [0] * 11)
    w = GammaVector([0, 2] + [0] * 10)
    assert (v + w)[1] == Polynomial.constant(1)
    assert (v + w)[2] == Polynomial.constant(2)
    assert (v - v).support() == frozenset()
    assert v.scale(3)[1] == Polynomial.constant(3)
    assert str(v + w) == "g1 + 2*g2"
    assert str(GammaVector()) == "0"
    assert str(v - w.scale(2)) == "g1 - 4*g2"
    with pytest.raises(IndexError):
        v[0]
    with pytest.raises(IndexError):
        v[13]


def test_projection_idempotent():
    rng = random.Random(67)
    for _ in range(10):
        t = rand_tensor(rng)
        v = project(t)
        assert project(gamma_to_tensor(v)) == v


def test_projection_equals_reynolds():
    rng = random.Random(71)
    for _ in range(20):
        t = rand_tensor(rng)
        assert gamma_to_tensor(project(t)) == reynolds(t)


def test_projection_is_invariant():
    rng = random.Random(73)
    G = group.enumerate_group("G")
    for _ in range(10):
        t = rand_tensor(rng)
        g = rng.choice(G)
        assert project(group.act_on_tensor(g, t)) == project(t)


def test_r_sum_consistency():
    rng = random.Random(79)
    t = rand_tensor(rng, size=20)
    v = project(t)
    for i in range(1, 13):
        assert v[i] * Cyclotomic.rational(CLASS_SIZES[i - 1]) == r_sum(t, i)


def test_target_projection():
    assert project(matmul_tensor()) == GammaVector(
        [1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0])


def test_orbit_sum_formula():
    fam = get_family(9)
    w = fam.tensor([1, 2])
    v = orbit_sum(w, fam.length)
    orbit = group.orbit_and_stabilizer(w)[0]
    assert gamma_to_tensor(v) == tensor_sum(orbit)
    total = Tensor()
    for u in orbit:
        total = total + u
    assert gamma_to_tensor(v) == total


def test_orbit_sum_matches_class_sums():
    # orbit_sum adds each coefficient object once per class, times the
    # number of entries that hold it; the route here is r_i(w) * l/|Q_i|,
    # added entry by entry.  The family tensors share their objects, at
    # lengths 1 and l; the other cases hold equal coefficients that are
    # distinct objects, and c beside -c
    cases = []
    for fam in all_families().values():
        w = fam.tensor()
        cases += [(w, 1), (w, fam.length)]
    for fid in (9, 23, 41):
        items = list(get_family(fid).tensor().entries.items())
        copies = {a: (Polynomial(dict(c.terms)), -(-c), c)[n % 3]
                  for n, (a, c) in enumerate(items)}
        signs = {a: c if n % 2 else -c for n, (a, c) in enumerate(items)}
        cases += [(Tensor(copies), 18), (Tensor(signs), 18)]
    # one object c and one object -c, on half of Q2 each: they cancel
    c = parse_polynomial("a - z*b")
    minus_c = -c
    q2 = sorted(compute_classes()[1], key=POSITION.__getitem__)
    cases.append((Tensor({a: (c, minus_c)[n % 2]
                          for n, a in enumerate(q2)}), 6))
    for w, length in cases:
        v = orbit_sum(w, length)
        assert v == GammaVector([
            r_sum(w, i) * Cyclotomic.rational(length, CLASS_SIZES[i - 1])
            for i in range(1, 13)])
        assert all(x for p in v.coords for x in p.terms.values())
        # length 0 gives the zero vector, with no zero coefficient stored
        assert all(not p.terms for p in orbit_sum(w, 0).coords)
    assert not orbit_sum(cases[-1][0], 6)[2].terms


def test_orbit_sum_detects_degenerate_instances():
    fam = get_family(9)
    # b = 0 collapses the orbit to the single tensor (aE)^(x)3
    w = fam.tensor([1, 0])
    orbit = group.orbit_and_stabilizer(w)[0]
    assert len(orbit) == 1
    assert gamma_to_tensor(orbit_sum(w, fam.length)) != tensor_sum(orbit)


def test_pi12_class_permutation():
    # swapping the first two tensor factors exchanges the class pairs
    # (3,5), (9,12) and (10,11) and fixes the other classes
    swap = {3: 5, 5: 3, 9: 12, 12: 9, 10: 11, 11: 10}
    rng = random.Random(83)
    for _ in range(10):
        t = rand_tensor(rng, size=12)
        v = project(t)
        w = project(pi12(t))
        for i in range(1, 13):
            assert w[i] == v[swap.get(i, i)]
