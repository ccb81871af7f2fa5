import random

import pytest

from mm3sym import group
from mm3sym.group import (
    GroupElement, enumerate_group, parse_element, identity, compose,
    act_on_index, act_on_tensor, orbit_of, stabilizer_order, phi, perm_sign,
    S3_ELEMENTS,
)
from mm3sym.tensors import Tensor, decode_index, matrix, tensor_from_factors
from mm3sym.catalog import matmul_tensor


def rand_tensor(rng, size=5):
    entries = {}
    for _ in range(size):
        entries[decode_index(rng.randrange(729))] = rng.randint(1, 4)
    from mm3sym.poly import Polynomial
    return Tensor({a: Polynomial.coerce(c) for a, c in entries.items()})


def test_group_orders():
    G = enumerate_group("G")
    G1 = enumerate_group("G1")
    assert len(G) == 144
    assert len(G1) == 288
    assert all(g.in_G() for g in G)
    assert sum(1 for g in G1 if g.det() == 1) == 144
    assert len(set(G1)) == 288
    with pytest.raises(ValueError):
        enumerate_group("H")


def test_group_closure_and_inverses():
    G = set(enumerate_group("G"))
    rng = random.Random(43)
    sample = rng.sample(sorted(G, key=lambda g: g.key()), 12)
    for g in sample:
        for h in sample:
            assert compose(g, h) in G
    # each sampled element has an inverse in G
    for g in sample:
        assert any(compose(g, h) == identity for h in G)


def test_composition_is_action():
    rng = random.Random(47)
    G = enumerate_group("G")
    for _ in range(20):
        g, h = rng.choice(G), rng.choice(G)
        t = rand_tensor(rng)
        assert act_on_tensor(g, act_on_tensor(h, t)) == \
            act_on_tensor(compose(g, h), t)
    t = rand_tensor(rng)
    assert act_on_tensor(identity, t) == t


def test_signs_multiply_over_components():
    g = GroupElement((1, 2, 3), (-1, 1, 1))
    alpha = ((1, 1), (2, 2), (3, 3))
    beta, sign = act_on_index(g, alpha)
    assert beta == alpha and sign == 1  # the 1s appear twice
    alpha = ((1, 2), (2, 2), (3, 3))
    beta, sign = act_on_index(g, alpha)
    assert beta == alpha and sign == -1  # a single 1-component


def test_minus_identity_matrix_acts_trivially():
    g = GroupElement((1, 2, 3), (-1, -1, -1))
    assert g.det() == -1 and not g.in_G()
    rng = random.Random(53)
    for _ in range(10):
        t = rand_tensor(rng)
        assert act_on_tensor(g, t) == t


def test_quotient_map():
    images = {phi(g) for g in enumerate_group("G")}
    assert len(images) == 36  # onto S3 x S3
    assert all(p in S3_ELEMENTS and q in S3_ELEMENTS for p, q in images)


def test_target_tensor_invariant():
    T = matmul_tensor()
    for g in enumerate_group("G"):
        assert act_on_tensor(g, T) == T


def test_orbit_and_stabilizer():
    t = Tensor.basis(((1, 1), (1, 1), (1, 1)))
    orbit = orbit_of(t)
    assert len(orbit) * stabilizer_order(t) % 144 == 0
    rng = random.Random(59)
    for _ in range(5):
        u = rand_tensor(rng, size=2)
        assert len(orbit_of(u)) * stabilizer_order(u) == 144


def test_element_syntax_roundtrip():
    for g in enumerate_group("G1"):
        assert parse_element(str(g)) == g
    g = parse_element("a=(perm=(231),signs=+--);b=rho*sigma")
    assert g.perm == (2, 3, 1) and g.signs == (1, -1, -1)
    assert parse_element("a=(perm=(123),signs=+++);b=id") == identity
    # products of generators are canonicalized
    assert parse_element("a=(perm=(123),signs=+++);b=rho*rho") == identity
    for bad in ("", "a=(perm=(124),signs=+++);b=id",
                "a=(perm=(123),signs=++);b=id",
                "a=(perm=(123),signs=+++);b=tau"):
        with pytest.raises(ValueError):
            parse_element(bad)


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1


def test_sign_sum_kills_non_even_indices():
    # summing g e_alpha over the sign subgroup annihilates any index in
    # which some symbol occurs an odd number of times
    from mm3sym.tensors import index_is_even
    G = enumerate_group("G")
    alpha = ((1, 1), (1, 1), (1, 2))
    assert not index_is_even(alpha)
    total = Tensor()
    for g in G:
        total = total + act_on_tensor(g, Tensor.basis(alpha))
    assert total == Tensor()


# -- the action through matrices, apart from act_on_index ------------

def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _transpose(a):
    return [list(row) for row in zip(*a)]


def _act_on_factors(g, x, y, z):
    """g (x (x) y (x) z) as a factor triple: the B word rightmost letter
    first, rho: x,y,z -> y^T,x^T,z^T and sigma: x,y,z -> z,x,y; then each
    factor conjugated by M = D P with P e_j = e_p(j), D = diag(signs)."""
    for letter in reversed(g.bword):
        if letter == "r":
            x, y, z = _transpose(y), _transpose(x), _transpose(z)
        else:
            x, y, z = z, x, y
    m = [[g.signs[i] if g.perm[j] == i + 1 else 0 for j in range(3)]
         for i in range(3)]
    m_inv = _transpose(m)  # M is orthogonal
    return [_mat_mul(_mat_mul(m, f), m_inv) for f in (x, y, z)]


def test_action_matches_matrix_route():
    rng = random.Random(67)

    def rand_factor():
        return [[rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(3)]
                for _ in range(3)]

    for g in enumerate_group("G1"):
        for _ in range(2):
            x, y, z = rand_factor(), rand_factor(), rand_factor()
            t = tensor_from_factors(matrix(x), matrix(y), matrix(z))
            gx, gy, gz = _act_on_factors(g, x, y, z)
            assert act_on_tensor(g, t) == tensor_from_factors(
                matrix(gx), matrix(gy), matrix(gz)), str(g)
