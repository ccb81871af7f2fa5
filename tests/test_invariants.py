import random

import pytest

from mm3sym import group
from mm3sym.cyclotomic import Cyclotomic
from mm3sym.poly import Polynomial, parse_polynomial
from mm3sym.tensors import Tensor, decode_index, pi12
from mm3sym.invariants import (
    compute_classes, class_of_index, CLASS_SIZES, CLASS_REPRESENTATIVES,
    GammaVector, r_sum, project, orbit_sum, OrbitSumMismatch,
    gamma_to_tensor, reynolds,
)
from mm3sym.catalog import matmul_tensor, get_family


def rand_tensor(rng, size=5):
    entries = {}
    for _ in range(size):
        entries[decode_index(rng.randrange(729))] = \
            Polynomial.coerce(rng.randint(-3, 3))
    return Tensor({a: c for a, c in entries.items() if c})


def test_class_table():
    classes = compute_classes()
    assert tuple(len(c) for c in classes) == CLASS_SIZES
    assert sum(CLASS_SIZES) == 183
    for cls, rep in zip(classes, CLASS_REPRESENTATIVES):
        assert rep in cls.members
        assert class_of_index(rep) == cls.id
    # the classes partition the even indices
    union = set()
    for cls in classes:
        assert not (union & cls.members)
        union |= cls.members
    assert len(union) == 183


def test_classes_are_group_stable():
    # every group element maps each class into itself; on even indices
    # the sign is always +1
    for g in group.enumerate_group("G"):
        for cls in compute_classes():
            images = set()
            for alpha in cls.members:
                beta, sign = group.act_on_index(g, alpha)
                assert sign == 1
                images.add(beta)
            assert images == cls.members


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
        assert v[i].scale(Cyclotomic.rational(CLASS_SIZES[i - 1])) == r_sum(t, i)


def test_target_projection():
    assert project(matmul_tensor()) == GammaVector(
        [1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0])


def test_orbit_sum_formula():
    fam = get_family(9)
    w = fam.tensor([1, 2])
    v = orbit_sum(w, fam.length, check=True)
    total = Tensor()
    for u in group.orbit_of(w):
        total = total + u
    assert gamma_to_tensor(v) == total


def test_orbit_sum_detects_degenerate_instances():
    fam = get_family(9)
    # b = 0 collapses the orbit to the single tensor (aE)^(x)3
    w = fam.tensor([1, 0])
    with pytest.raises(OrbitSumMismatch):
        orbit_sum(w, fam.length, check=True)


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
