import random

from mm3sym.poly import Polynomial, parse_polynomial
from mm3sym.tensors import (
    encode_index, decode_index, all_indices, index_is_even,
    Tensor, tensor_from_factors, matrix, pi12,
)


def rand_tensor(rng, size=6):
    entries = {}
    for _ in range(size):
        alpha = decode_index(rng.randrange(729))
        entries[alpha] = Polynomial.constant(rng.randint(1, 5))
    return Tensor(entries)


def test_index_codec():
    seen = set()
    for n in range(729):
        alpha = decode_index(n)
        assert encode_index(alpha) == n
        seen.add(alpha)
    assert len(seen) == 729
    assert all_indices()[0] == ((1, 1), (1, 1), (1, 1))


def test_even_indices():
    even = [a for a in all_indices() if index_is_even(a)]
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


def test_items_sorted():
    one = Polynomial.constant(1)
    t = Tensor({((3, 3), (3, 3), (3, 3)): one, ((1, 1), (1, 1), (1, 1)): one})
    keys = [a for a, _ in t.items()]
    assert keys == sorted(keys, key=encode_index)
