"""Tests of the benchmark's own oracles.

    python3 -m pytest bench
"""

import itertools
import random
from pathlib import Path

import oracles

CATALOG = oracles.load_catalog(
    Path(__file__).resolve().parent.parent / "src" / "mm3sym" / "data"
    / "catalog.json")
LENGTHS = {fid: rec["length"] for fid, rec in CATALOG.items()}


def as_pairs(assignment):
    return {k: (v, 0) for k, v in assignment.items()}


def test_trivial_solution_has_no_residual():
    assert oracles.brent_residual_labels(
        as_pairs(oracles.trivial_assignment()), 27) == []


def test_one_changed_entry_flags_exactly_one_index():
    rng = random.Random(7)
    trivial = oracles.trivial_assignment()
    for name in rng.sample(sorted(trivial), 40):
        values = as_pairs(trivial)
        values[name] = (trivial[name] + rng.choice((-2, -1, 1, 2)),
                        rng.randint(-2, 2))
        assert len(oracles.brent_residual_labels(values, 27)) == 1, name


def brute_force_count(max_length):
    ids = sorted(f for f, length in LENGTHS.items() if length <= max_length)
    return sum(
        1 for k in range(1, max_length + 1)
        for m in itertools.combinations_with_replacement(ids, k)
        if sum(LENGTHS[f] for f in m) <= max_length)


def test_dp_count_matches_brute_force():
    for max_length in range(1, 9):
        want = brute_force_count(max_length)
        assert oracles.count_multisets(LENGTHS, max_length) == want
        assert len(set(oracles.enumerate_multisets(LENGTHS, max_length))) == want


def test_enumeration_is_sorted_and_within_budget():
    ms = oracles.enumerate_multisets(LENGTHS, 23)
    assert len(ms) == oracles.count_multisets(LENGTHS, 23)
    assert ms == sorted(ms)
    assert all(list(m) == sorted(m) and sum(LENGTHS[f] for f in m) <= 23
               for m in ms)


def test_field_arithmetic():
    assert oracles.q_pow(oracles.W, 12) == oracles.ONE
    assert oracles.q_pow(oracles.I, 2) == oracles.q(-1)
    assert oracles.q_pow(oracles.Z, 3) == oracles.ONE != oracles.Z
    assert oracles.evaluate("(-1 - z)", {"z": oracles.Z}) == oracles.ZB
    assert oracles.evaluate("-2*ww^3+3/2", {"ww": oracles.W}) == (
        oracles.q_add(oracles.q_mul(oracles.q(-2), oracles.I),
                      oracles.q(oracles.Fraction(3, 2))))


def test_group_fixes_the_target_and_has_order_144():
    maps = oracles.group_index_maps()
    assert len({tuple(sorted(m.items())) for m in maps}) == 144
    target = {alpha: oracles.ONE for alpha in oracles.matmul_support()}
    assert oracles.orbit(target) == [target]


def test_orbit_lengths_match_the_catalog_at_random_points():
    rng = random.Random(3)
    for fid in (1, 7, 9, 18, 35, 44):
        rec = CATALOG[fid]
        values = {c: oracles.q(rng.choice([-3, -2, 2, 3, 5]))
                  for c in rec["params"]}
        images = oracles.orbit(oracles.family_tensor(rec, values))
        assert len(images) == rec["length"], fid


def test_dense_solution_is_exact_and_dense():
    for seed in range(3):
        values = oracles.dense_solution(random.Random(seed))
        assert sorted(values) == sorted(oracles.brent_variables(27))
        assert oracles.brent_residual_labels(values, 27) == []
        assert (0, 0) not in values.values()
