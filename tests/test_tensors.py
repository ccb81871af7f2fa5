import json
import random
from importlib import resources
from itertools import chain, product

import pytest

from mm3sym.catalog import _SLOTS, all_families, get_family
from mm3sym.cyclotomic import Cyclotomic, IMAG, ZETA
from mm3sym.poly import ParamId, Polynomial, parse_polynomial
from mm3sym.tensors import (
    PAIRS, INDICES, POSITION, index_is_even,
    Tensor, tensor_from_factors, pi12,
)

from factors import matrix


def rand_tensor(rng, size=6):
    entries = {}
    for _ in range(size):
        alpha = INDICES[rng.randrange(729)]
        entries[alpha] = Polynomial.constant(rng.randint(1, 5))
    return Tensor(entries)


def test_index_codec():
    seen = set()
    for n in range(729):
        alpha = INDICES[n]
        assert POSITION[alpha] == n
        seen.add(alpha)
    assert len(seen) == 729 and len(POSITION) == 729
    assert INDICES[0] == ((1, 1), (1, 1), (1, 1))
    # pair k of index n is digit k of n in base 9, cells row by row
    assert INDICES[1 + 9 * 5 + 81 * 8] == ((1, 2), (2, 3), (3, 3))


def test_even_indices():
    even = [a for a in INDICES if index_is_even(a)]
    assert len(even) == 183
    assert index_is_even(((1, 1), (1, 1), (1, 1)))
    assert index_is_even(((1, 2), (2, 3), (3, 1)))
    assert not index_is_even(((1, 1), (1, 1), (1, 2)))


def test_tensor_algebra():
    rng = random.Random(31)
    for _ in range(20):
        s, t = rand_tensor(rng), rand_tensor(rng)
        assert s + t == t + s
        assert (s + t) - t == s
        assert s.scale(0) == Tensor()
        assert s.scale(2) == s + s
        assert (s - s) == Tensor()
        assert not (s - s)


def test_tensor_from_factors_multilinear():
    pa, pb = parse_polynomial("a"), parse_polynomial("b")
    a = matrix([[pa, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = matrix([[0, pb, 0], [0, 0, 0], [0, 0, 0]])
    e = matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    a_plus_b = matrix([[pa, pb, 0], [0, 1, 0], [0, 0, 1]])
    t = tensor_from_factors(a_plus_b, e, e)
    assert t == tensor_from_factors(a, e, e) + tensor_from_factors(b, e, e)
    three_a = matrix([[pa * 3, 0, 0], [0, 3, 0], [0, 0, 3]])
    s = tensor_from_factors(three_a, e, e)
    assert s == tensor_from_factors(a, e, e).scale(3)
    one = tensor_from_factors(e, e, e)
    assert one == Tensor({((1, 1), (1, 1), (1, 1)): Polynomial.constant(1)})


def test_pi12():
    rng = random.Random(37)
    for _ in range(20):
        t = rand_tensor(rng)
        assert pi12(pi12(t)) == t
    five = Polynomial.constant(5)
    t = Tensor({((1, 2), (3, 1), (2, 3)): five})
    assert pi12(t) == Tensor({((3, 1), (1, 2), (2, 3)): five})


def test_json_roundtrip():
    rng = random.Random(41)
    for _ in range(10):
        t = rand_tensor(rng)
        assert Tensor.loads(t.dumps()) == t
    t = Tensor({((1, 2), (2, 1), (3, 3)): parse_polynomial("z*a + i")})
    rec = t.to_json()
    assert rec["entries"][0]["idx"] == [[1, 2], [2, 1], [3, 3]]
    assert Tensor.from_json(rec) == t


@pytest.mark.parametrize("idx, message", [
    ([[1, 1], [1, 1], [1, 4]], "bad tensor index"),
    ([[0, 1], [1, 1], [1, 1]], "bad tensor index"),
    ([[1, 1], [1, 1]], "bad tensor index"),
    ([[1, 1], [1, 1], [1, 1], [1, 1]], "bad tensor index"),
    ([[1, 1, 1], [1, 1], [1, 1]], "bad tensor index"),
    ([[1, "x"], [1, 1], [1, 1]], "bad tensor index"),
    ([["1", "1"], [1, 1], [1, 1]], "bad tensor index"),
    ([[1.5, 1], [1, 1], [1, 1]], "bad tensor index"),
    ([[True, 1], [1, 1], [1, 1]], "bad tensor index"),
    ([[1, 1], [1, 1], [1, 1.0]], "bad tensor index"),
    ([[1, 2], [2, 1], [3, 3]], "repeated tensor index"),
], ids=["out_of_range", "zero", "two_pairs", "four_pairs", "long_pair",
        "not_a_number", "text", "fraction", "true", "float_one", "repeated"])
def test_json_rejects_non_basis_and_repeated_indices(idx, message):
    # the bad entry follows a good one, so the error must name it; a
    # repeated index is rejected even when its first coefficient is 0
    rec = {"entries": [{"idx": [[1, 2], [2, 1], [3, 3]], "coeff": "0"},
                       {"idx": idx, "coeff": "2"}]}
    with pytest.raises(ValueError, match=message) as err:
        Tensor.from_json(rec)
    assert repr(idx) in str(err.value)


def test_items_sorted():
    one = Polynomial.constant(1)
    t = Tensor({((3, 3), (3, 3), (3, 3)): one, ((1, 1), (1, 1), (1, 1)): one})
    keys = [a for a, _ in t.items()]
    assert keys == sorted(keys, key=POSITION.__getitem__)


def reference_tensor(x, y, z, scale=None):
    """x (x) y (x) z as x[a] * y[b] * z[c] at every index, one product
    per entry."""
    entries = {}
    for alpha in INDICES:
        (i1, j1), (i2, j2), (i3, j3) = alpha
        p = x[i1 - 1][j1 - 1] * y[i2 - 1][j2 - 1] * z[i3 - 1][j3 - 1]
        if scale is not None:
            p = p * scale
        if p:
            entries[alpha] = p
    return Tensor(entries)


def _fresh(texts, cell=parse_polynomial):
    """A factor matrix whose cells are parsed apart: no two share an
    object, even where their texts are equal."""
    return tuple(tuple(cell(s) for s in row) for row in texts)


def _catalog_records():
    text = resources.files("mm3sym").joinpath("data/catalog.json").read_text()
    return json.loads(text)["families"]


def _reference_family_tensor(rec, cell=parse_polynomial):
    ms = rec["factors"]
    order = {"cube": (0, 0, 0), "square": (0, 0, 1), "triple": (0, 1, 2)}
    x, y, z = (_fresh(ms[k], cell) for k in order[rec["power"]])
    scale = cell(rec["scale"]) if "scale" in rec else None
    return reference_tensor(x, y, z, scale)


def test_family_tensors_match_reference():
    recs = _catalog_records()
    for rec in recs:
        fam = get_family(rec["id"])
        assert fam.tensor() == _reference_family_tensor(rec), rec["id"]
    for fid, values in ((17, [ZETA + 2]), (38, [2, IMAG - 1, 3, ZETA, -1])):
        rec = recs[fid - 1]
        assert len(values) == len(rec["params"])
        assignment = {ParamId(0, letter): Cyclotomic.coerce(v)
                      for letter, v in zip(rec["params"], values)}
        at = lambda s: parse_polynomial(s).substitute(assignment)
        assert get_family(fid).tensor(values) == \
            _reference_family_tensor(rec, at)


def test_shared_cells_match_reference():
    # multi-term cells, each one object repeated across a matrix, so that
    # x is y and x is y is z put the same objects in different positions
    rng = random.Random(43)
    pool = ["a + z*b", "2 - i*c", "a", "b*c - 1", "3", "0"]
    for _ in range(12):
        texts = [[[rng.choice(pool) for _ in range(3)] for _ in range(3)]
                 for _ in range(3)]
        cells = {s: parse_polynomial(s) for s in pool}
        x, y, z = (tuple(tuple(cells[s] for s in row) for row in m)
                   for m in texts)
        fx, fy, fz = (_fresh(m) for m in texts)
        assert tensor_from_factors(x, x, x) == reference_tensor(fx, fx, fx)
        assert tensor_from_factors(x, x, z) == reference_tensor(fx, fx, fz)
        assert tensor_from_factors(x, y, z) == reference_tensor(fx, fy, fz)
        assert tensor_from_factors(z, x, z) == reference_tensor(fz, fx, fz)


def _naive_product(x, y, z):
    """x (x) y (x) z as x[a] * y[b] * z[c] over the nonzero cells in
    itertools.product order, one product per entry, each with the sorted
    ids of its three cell objects."""
    cells = [[(pair, p) for pair, p in zip(PAIRS, chain(*m)) if p]
             for m in (x, y, z)]
    return [((a, b, c), px * py * pz, tuple(sorted(map(id, (px, py, pz)))))
            for (a, px), (b, py), (c, pz) in product(*cells)]


def _assert_expands_like_naive_product(x, y, z):
    t = tensor_from_factors(x, y, z)
    naive = _naive_product(x, y, z)
    assert list(t.entries) == [alpha for alpha, _, _ in naive]
    assert all(t.entries[alpha] == p for alpha, p, _ in naive)
    # entries share one object exactly when their cells are the same
    # multiset of objects
    objects = {}
    for alpha, _, cells in naive:
        objects.setdefault(cells, set()).add(id(t.entries[alpha]))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(set().union(*objects.values())) == len(objects)


def test_tensor_from_factors_matches_naive_product():
    for fam in all_families().values():
        _assert_expands_like_naive_product(
            *(fam.factors[k] for k in _SLOTS[fam.power]))
    # factors over a few objects, so that one object fills several
    # cells, with negated cells as objects of their own and zero cells
    rng = random.Random(47)
    base = [parse_polynomial(s)
            for s in ("a + z*b", "2 - i*c", "a", "b*c - 1", "3")]
    pool = base + [-p for p in base] + [Polynomial(), Polynomial()]
    for _ in range(20):
        x, y, z = (tuple(tuple(rng.choice(pool) for _ in range(3))
                         for _ in range(3)) for _ in range(3))
        for factors in ((x, y, z), (x, x, x), (x, x, z), (z, x, z)):
            _assert_expands_like_naive_product(*factors)
