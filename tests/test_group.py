import ast
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from mm3sym import group
from mm3sym.group import (
    GroupElement, enumerate_group, parse_element, compose,
    act_on_tensor, orbit_and_stabilizer, perm_sign, perm_inverse,
    S3_ELEMENTS,
)
from mm3sym.poly import Polynomial
from mm3sym.tensors import INDICES, Tensor, tensor_from_factors
from mm3sym.catalog import all_families, get_family, matmul_tensor

from factors import act_on_factors, matrix


def rand_tensor(rng, size=5):
    entries = {}
    for _ in range(size):
        entries[INDICES[rng.randrange(729)]] = rng.randint(1, 4)
    return Tensor({a: Polynomial.coerce(c) for a, c in entries.items()})


def test_group_orders():
    G = enumerate_group("G")
    G1 = enumerate_group("G1")
    assert len(G) == 144
    assert len(G1) == 288
    assert all(g.det() == 1 for g in G)
    assert sum(1 for g in G1 if g.det() == 1) == 144
    assert len(set(G1)) == 288
    with pytest.raises(ValueError):
        enumerate_group("H")


def test_group_closure_and_inverses():
    G = set(enumerate_group("G"))
    rng = random.Random(43)
    sample = rng.sample(sorted(G), 12)
    for g in sample:
        for h in sample:
            assert compose(g, h) in G
    # each sampled element has an inverse in G
    for g in sample:
        assert any(compose(g, h) == GroupElement() for h in G)


def test_composition_is_action():
    rng = random.Random(47)
    G = enumerate_group("G")
    for _ in range(20):
        g, h = rng.choice(G), rng.choice(G)
        t = rand_tensor(rng)
        assert act_on_tensor(g, act_on_tensor(h, t)) == \
            act_on_tensor(compose(g, h), t)
    t = rand_tensor(rng)
    assert act_on_tensor(GroupElement(), t) == t


def _unit(alpha):
    return Tensor({alpha: Polynomial.constant(1)})


def test_signs_multiply_over_components():
    g = GroupElement((1, 2, 3), (-1, 1, 1))
    # the 1s appear twice
    alpha = ((1, 1), (2, 2), (3, 3))
    assert act_on_tensor(g, _unit(alpha)) == _unit(alpha)
    # a single 1-component
    alpha = ((1, 2), (2, 2), (3, 3))
    assert act_on_tensor(g, _unit(alpha)) == -_unit(alpha)


def test_minus_identity_matrix_acts_trivially():
    g = GroupElement((1, 2, 3), (-1, -1, -1))
    assert g.det() == -1
    rng = random.Random(53)
    for _ in range(10):
        t = rand_tensor(rng)
        assert act_on_tensor(g, t) == t


def test_quotient_map():
    images = {(g.perm, g.bperm) for g in enumerate_group("G")}
    assert len(images) == 36  # onto S3 x S3
    assert all(p in S3_ELEMENTS and q in S3_ELEMENTS for p, q in images)


def test_target_tensor_invariant():
    T = matmul_tensor()
    for g in enumerate_group("G"):
        assert act_on_tensor(g, T) == T


def test_orbit_and_stabilizer():
    t = Tensor({((1, 1), (1, 1), (1, 1)): Polynomial.constant(1)})
    orbit, stabilizer = orbit_and_stabilizer(t)
    assert len(orbit) * stabilizer % 144 == 0
    rng = random.Random(59)
    for _ in range(5):
        u = rand_tensor(rng, size=2)
        orbit, stabilizer = orbit_and_stabilizer(u)
        assert len(orbit) * stabilizer == 144


def _action_route(t, elements):
    """The orbit as the first-seen distinct images act_on_tensor(g, t),
    and the number of g with act_on_tensor(g, t) == t."""
    orbit, fixed = [], 0
    for g in elements:
        u = act_on_tensor(g, t)
        fixed += u == t
        if u not in orbit:
            orbit.append(u)
    return orbit, fixed


def _assert_matches_action_route(t, elements):
    # equal orbits and stabilizers, with the entries in the same order
    got = orbit_and_stabilizer(t, elements)
    expected = _action_route(t, elements)
    assert got == expected
    assert [list(u.entries) for u in got[0]] == \
        [list(u.entries) for u in expected[0]]


def test_coded_orbit_matches_action_route():
    cases = [(fam.tensor(), which)
             for fam in all_families().values() for which in ("G", "G1")]
    # numeric instances with both c and -c among the coefficients, and
    # the degenerate instance whose orbit is shorter than its family's
    for fid, params in ((41, [1, 2]), (17, [3]), (20, [1, -1]),
                        (23, [1, 2, 3, 4, 5]), (5, [0, 1]), (9, [1, 0])):
        cases.append((get_family(fid).tensor(params), "G"))
    for t, which in cases:
        _assert_matches_action_route(t, enumerate_group(which))


def test_orbit_matches_action_route_over_other_sequences():
    """Any sequence of elements, in any order: the orbit is first-seen
    over it, and the stabilizer is counted against t itself even when
    the sequence lacks the identity or starts with an element that
    moves t."""
    G, G1 = enumerate_group("G"), enumerate_group("G1")
    assert GroupElement() not in G[6:] and GroupElement() not in G1[1::5]
    sequences = (tuple(reversed(G1)), list(G), G[6:], G1[1::5])
    rng = random.Random(73)
    tensors = [get_family(fid).tensor() for fid in (9, 17, 23, 41)]
    tensors += [get_family(9).tensor([1, 0]), get_family(20).tensor([1, -1]),
                rand_tensor(rng), rand_tensor(rng, size=12), Tensor()]
    for t in tensors:
        for elements in sequences:
            _assert_matches_action_route(t, elements)


def test_orbit_codes_equal_coefficients_that_are_other_objects():
    """Coefficients are coded by object first, then by value: equal
    coefficients that are different objects, and c beside -c as objects
    of their own, must still code alike."""
    rng = random.Random(71)
    cases = [Tensor({INDICES[rng.randrange(729)]:
                     Polynomial.coerce(rng.choice((1, -1, 2, -2)))
                     for _ in range(size)}) for size in (1, 3, 12, 40)]
    for fid in (9, 23, 41):
        w = get_family(fid).tensor()
        entries = {}
        for n, (alpha, c) in enumerate(w.entries.items()):
            # a copy, a double negation and the entry itself, in turn
            entries[alpha] = (Polynomial(dict(c.terms)), -(-c), c)[n % 3]
        cases.append(Tensor(entries))
        # the same support with c and -c as separate objects
        cases.append(Tensor({alpha: c if n % 2 else -c for n, (alpha, c)
                             in enumerate(w.entries.items())}))
    for t in cases:
        for which in ("G", "G1"):
            _assert_matches_action_route(t, enumerate_group(which))
    assert orbit_and_stabilizer(Tensor()) == ([Tensor()], 144)


def test_source_twist_gives_the_target_sign():
    """The sign of g at target position moves[q] is the sign of the
    triple signs o perm at the source position q."""
    for g in enumerate_group("G1"):
        moves = group._position_table(g.perm, g.bperm)
        target = group._sign_vector(g.signs)
        twist = tuple(g.signs[k - 1] for k in g.perm)
        source = group._sign_vector(twist)
        assert all(source[q] == target[moves[q]] for q in range(729))
        inverse = group._position_table(perm_inverse(g.perm),
                                        perm_inverse(g.bperm))
        assert all(inverse[moves[q]] == q for q in range(729))


def _odd_symbols(alpha):
    return frozenset(s for s in (1, 2, 3)
                     if sum(pair.count(s) for pair in alpha) % 2)


def test_sign_blocks_are_the_odd_symbol_sets():
    """The 4 blocks are the positions grouped by the symbols that occur
    an odd number of times, the even positions first; every sign vector
    is constant on each block, so its value at the block's first
    position is its value on the block."""
    block_of, firsts = group._sign_blocks()
    odd = [_odd_symbols(alpha) for alpha in INDICES]
    sets = list(dict.fromkeys(odd))  # in order of first position
    assert sets == [set(), {1, 2}, {1, 3}, {2, 3}]
    assert list(block_of) == [sets.index(s) for s in odd]
    assert firsts == tuple(map(odd.index, sets))
    for signs in product((1, -1), repeat=3):
        vector = group._sign_vector(signs)
        assert all(vector[n] == vector[firsts[block_of[n]]]
                   for n in range(729)), signs


def test_tables_carry_each_block_onto_one_block():
    block_of, firsts = group._sign_blocks()
    for perm in S3_ELEMENTS:
        for bperm in S3_ELEMENTS:
            moves = group._position_table(perm, bperm)
            images = [{block_of[moves[n]] for n in range(729)
                       if block_of[n] == b} for b in range(len(firsts))]
            assert all(len(image) == 1 for image in images), (perm, bperm)
            assert sorted(image.pop() for image in images) == [0, 1, 2, 3]


def test_position_orbits_partition_and_are_closed():
    orbit_of, orbits = group._position_orbits()
    assert sorted(n for members in orbits for n in members) == list(range(729))
    assert all(orbit_of[n] == i for i, members in enumerate(orbits)
               for n in members)
    tables = [group._position_table(perm, bperm)
              for perm in S3_ELEMENTS for bperm in S3_ELEMENTS]
    for moves in tables:
        for members in orbits:
            assert {moves[n] for n in members} == set(members)
    # the generator closure is the orbit of every position under all 36
    # tables
    for n in range(729):
        assert orbits[orbit_of[n]] == tuple(sorted({t[n] for t in tables}))


def test_classes_build_no_mixed_table():
    # a fresh interpreter, so that no earlier test has built a table
    code = """if True:
        from mm3sym import group, invariants
        table = group._position_table
        built = set()
        def spy(perm, bperm):
            built.add((perm, bperm))
            return table(perm, bperm)
        group._position_table = spy
        invariants.compute_classes()
        print(repr((sorted(built), table.cache_info().currsize)))
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env).stdout
    built, cached = ast.literal_eval(out)
    assert built and cached == len(built)
    assert all((1, 2, 3) in key for key in built), built


def _act_on_index(g, alpha):
    """The reference action on one index: g e_alpha = sign * e_beta.

    Pair k of alpha moves to place bperm(k) and is transposed when bperm
    is odd, perm relabels both components of each pair, and the sign is
    the product of the signs over the six components of beta.
    """
    p, signs, bperm = g
    odd = perm_sign(bperm) < 0
    beta = [None, None, None]
    for (i, j), place in zip(alpha, bperm):
        if odd:
            i, j = j, i
        beta[place - 1] = (p[i - 1], p[j - 1])
    sign = 1
    for i, j in beta:
        sign *= signs[i - 1] * signs[j - 1]
    return tuple(beta), sign


def test_tables_factor_the_action():
    """The target position of g e_alpha depends only on (perm, bperm)
    and its sign only on signs, read at the target position: one
    position table per image in S3 x S3, one sign vector per sign
    triple, each as the reference action on single indices gives."""
    for g in enumerate_group("G1"):
        moves = group._position_table(g.perm, g.bperm)
        signs = group._sign_vector(g.signs)
        for n, alpha in enumerate(INDICES):
            m = moves[n]
            assert (INDICES[m], signs[m]) == _act_on_index(g, alpha)
    assert group._position_table.cache_info().currsize == 36
    assert group._sign_vector.cache_info().currsize == 8


def test_element_syntax_roundtrip():
    # elements are equal and hash alike exactly when their fields are
    for g in enumerate_group("G1"):
        h = parse_element(str(g))
        assert h == g and hash(h) == hash(g)
    assert GroupElement() == GroupElement((1, 2, 3), (1, 1, 1), (1, 2, 3))
    g = parse_element("a=(perm=(231),signs=+--);b=rho*sigma")
    assert g.perm == (2, 3, 1) and g.signs == (1, -1, -1)
    assert parse_element("a=(perm=(123),signs=+++);b=id") == GroupElement()
    # products of generators are canonicalized
    assert parse_element(
        "a=(perm=(123),signs=+++);b=rho*rho") == GroupElement()
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
        total = total + act_on_tensor(
            g, Tensor({alpha: Polynomial.constant(1)}))
    assert total == Tensor()


# -- the action through matrices, apart from the position tables ----

def test_action_matches_matrix_route():
    rng = random.Random(67)

    def rand_factor():
        return [[rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(3)]
                for _ in range(3)]

    for g in enumerate_group("G1"):
        for _ in range(2):
            x, y, z = rand_factor(), rand_factor(), rand_factor()
            t = tensor_from_factors(matrix(x), matrix(y), matrix(z))
            gx, gy, gz = act_on_factors(g, x, y, z)
            assert act_on_tensor(g, t) == tensor_from_factors(
                matrix(gx), matrix(gy), matrix(gz)), str(g)
