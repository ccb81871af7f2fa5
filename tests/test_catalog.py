import hashlib
import json
import random
from fractions import Fraction
from importlib import resources
from operator import itemgetter
from types import SimpleNamespace

import pytest

from mm3sym import catalog, group
from mm3sym.brent import invariant_system
from mm3sym.cyclotomic import ZETA
from mm3sym.poly import ParamId, parse_polynomial
from mm3sym.tensors import pi12
from mm3sym.catalog import (
    all_families, get_family, matmul_tensor,
    verify_catalog, CatalogError, OrbitFamily,
    LINEAR_SCALING_FAMILIES,
)


def test_family_index():
    fams = all_families()
    assert sorted(fams) == list(range(1, 45))
    assert sum(1 for f in fams.values() if f.length == 18) == 19
    with pytest.raises(CatalogError):
        get_family(0)


def test_lengths_total_structure():
    lengths = sorted({f.length for f in all_families().values()})
    assert lengths == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]
    short = {fid: f.length for fid, f in all_families().items() if f.length <= 5}
    assert short == {5: 3, 6: 2, 7: 1, 9: 4}


def test_matmul_tensor():
    T = matmul_tensor()
    assert len(T) == 27
    assert T.coeff(((1, 2), (2, 3), (3, 1))) == parse_polynomial("1")
    assert not T.coeff(((1, 2), (2, 3), (1, 3)))


def test_fresh_parameters_per_slot():
    variables = invariant_system((9, 9)).variables
    vars1 = {v for v in variables if v.slot == 1}
    vars2 = {v for v in variables if v.slot == 2}
    assert vars1 == {ParamId(1, "a"), ParamId(1, "b")}
    assert vars2 == {ParamId(2, "a"), ParamId(2, "b")}
    assert not (vars1 & vars2)


def test_concrete_parameters():
    fam = get_family(9)
    t = fam.tensor([1, 0])
    assert t == get_family(9).tensor([1, 0])
    assert t.coeff(((1, 1), (1, 1), (1, 1))) == parse_polynomial("1")
    with pytest.raises(CatalogError):
        fam.tensor([1])


def test_orbit_lengths_spot_check():
    rng = random.Random(89)
    for fid in rng.sample(range(1, 45), 6):
        fam = get_family(fid)
        assert len(group.orbit_and_stabilizer(fam.tensor())[0]) == fam.length


def test_pi12_symmetry_of_symmetric_powers():
    for fid in (5, 9, 11, 24):
        fam = get_family(fid)
        if fam.power in ("cube", "square"):
            t = fam.tensor()
            assert pi12(t) == t


def test_linear_scaling_family_set():
    assert LINEAR_SCALING_FAMILIES == frozenset({6, 7, 17, 18, 19, 20, 39, 41})


def test_all_families_is_packaged_catalog():
    fams = all_families()
    assert all_families() is fams
    text = resources.files("mm3sym").joinpath("data/catalog.json").read_text()
    recs = json.loads(text)["families"]
    assert list(fams) == [rec["id"] for rec in recs] == list(range(1, 45))
    for rec in recs:
        fam = fams[rec["id"]]
        assert fam.id == rec["id"]
        assert fam.length == rec["length"]
        assert fam.params == "".join(rec["params"])
        assert fam.power == rec["power"]
        # a record: equal by value to a fresh parse, and hashable
        assert fam == OrbitFamily.from_json(rec)
        assert hash(fam) == hash(OrbitFamily.from_json(rec))


def test_equal_cells_are_one_object():
    # each distinct cell text is parsed once, so that tensor_from_factors
    # can make each product of cells once
    text = resources.files("mm3sym").joinpath("data/catalog.json").read_text()
    objects = {}
    for rec in json.loads(text)["families"]:
        fam = all_families()[rec["id"]]
        for m, parsed in zip(rec["factors"], fam.factors):
            for row, cells in zip(m, parsed):
                for s, p in zip(row, cells):
                    objects.setdefault(s, set()).add(id(p))
        if "scale" in rec:
            objects.setdefault(rec["scale"], set()).add(id(fam.scale))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(objects) == 26


def test_products_of_cells_are_shared():
    # family 9 is the cube of a matrix over the cells a and b, so its 729
    # entries are the 4 products a^3, a^2 b, a b^2 and b^3
    t = get_family(9).tensor()
    assert len(t) == 729
    assert len({id(p) for p in t.entries.values()}) <= 4


def test_valued_tensor_is_the_substituted_symbolic_tensor():
    # a point is substituted into each entry of the one symbolic
    # expansion: the entries that vanish drop out, and the rest keep
    # their order
    rng = random.Random(33)
    values = [0, 0, 1, -1, 2, Fraction(1, 2), ZETA]
    for fam in all_families().values():
        w = fam.tensor()
        n = len(fam.params)
        points = [[0] * n, [k + 2 for k in range(n)]] + [
            [rng.choice(values) for _ in range(n)] for _ in range(3)]
        for point in points:
            assignment = dict(zip(fam.param_ids(), point))
            want = [(a, p.substitute(assignment))
                    for a, p in w.entries.items()]
            assert list(fam.tensor(point).entries.items()) == [
                (a, q) for a, q in want if q], (fam.id, point)


def test_wrong_parameter_count_is_refused_before_expanding(monkeypatch):
    def expand(*factors):
        raise AssertionError("expanded")

    monkeypatch.setattr(catalog, "tensor_from_factors", expand)
    for fam in all_families().values():
        for n in (0, len(fam.params) + 1):
            with pytest.raises(CatalogError) as exc:
                fam.tensor([1] * n)
            assert str(exc.value) == (f"family {fam.id} takes "
                                      f"{len(fam.params)} parameters, got {n}")


@pytest.mark.parametrize("fid, power, message", [
    (9, "square", "family 9: power 'square' does not fit its 1 factors"),
    (27, "cube", "family 27: power 'cube' does not fit its 3 factors"),
    (9, "cubed", "family 9: power 'cubed' does not fit its 1 factors"),
])
def test_power_must_fit_the_factors(monkeypatch, fid, power, message):
    # the packaged catalog with one record's power changed is refused
    # at load, before any expansion
    text = resources.files("mm3sym").joinpath("data/catalog.json").read_text()
    data = json.loads(text)
    data["families"][fid - 1]["power"] = power
    patched = json.dumps(data)

    class Packaged:
        def joinpath(self, name):
            return self

        def read_text(self):
            return patched

    monkeypatch.setattr(catalog, "resources",
                        SimpleNamespace(files=lambda package: Packaged()))
    all_families.cache_clear()
    try:
        with pytest.raises(CatalogError) as exc:
            all_families()
    finally:
        all_families.cache_clear()
    assert str(exc.value) == message


def test_family_tensors_digest():
    # pinned before the tensors' cells and products were shared
    h = hashlib.sha256()
    for fid in sorted(all_families()):
        h.update(get_family(fid).tensor().dumps().encode())
    assert h.hexdigest() == (
        "74744404076fbc50d26456e351575f062dc9291b648c0a49768401c147748a3a")


def test_verify_catalog_full():
    # orbit lengths, stabilizer products, symmetry and scaling laws for
    # every family; this is the expensive catalog check
    verify_catalog()


def test_verify_catalog_builds_no_orbit_tensor(monkeypatch):
    """verify_catalog reads only each orbit's length and stabilizer: it
    builds no image Tensor in group, and gathers each family's coded
    tensor at most once per image in S3 x S3."""
    gathers = []

    def counting_itemgetter(*items):
        get = itemgetter(*items)

        def gather(seq):
            # the coded tensor is the one list that group gathers from
            gathers.append(isinstance(seq, list))
            return get(seq)
        return gather

    def no_tensor(*args):
        raise AssertionError("verify_catalog built an orbit Tensor")

    monkeypatch.setattr(group, "itemgetter", counting_itemgetter)
    monkeypatch.setattr(group, "Tensor", no_tensor)
    report = verify_catalog()
    assert {fid: (rec["length"], rec["stabilizer"])
            for fid, rec in report.items()} == {
        fid: (fam.length, 144 // fam.length)
        for fid, fam in all_families().items()}
    assert len(report) <= sum(gathers) <= 36 * len(report)


@pytest.mark.parametrize("linear, message", [
    (LINEAR_SCALING_FAMILIES - {6}, "family 6: scaling law z'=2 at z=8 fails"),
    (LINEAR_SCALING_FAMILIES | {5}, "family 5: scaling law z'=5 at z=5 fails"),
    (LINEAR_SCALING_FAMILIES - {41}, "family 41: scaling law z'=2 at z=8 fails"),
])
def test_verify_catalog_rejects_wrong_scaling_degree(monkeypatch, linear,
                                                     message):
    monkeypatch.setattr(catalog, "LINEAR_SCALING_FAMILIES", linear)
    with pytest.raises(CatalogError) as exc:
        verify_catalog()
    assert str(exc.value) == message


@pytest.mark.parametrize("scale", ["1 + a^2", "a + a^3"])
def test_verify_catalog_rejects_mixed_degree(monkeypatch, scale):
    # family 6 with its scale a replaced: no degree, or only the first
    # monomial's degree, matches the linear scaling law
    fam = get_family(6)
    fake = OrbitFamily(6, fam.length, fam.params, fam.power,
                       parse_polynomial(scale), fam.factors)
    monkeypatch.setattr(catalog, "all_families", lambda: {6: fake})
    with pytest.raises(CatalogError) as exc:
        verify_catalog()
    assert str(exc.value) == "family 6: scaling law z'=5 at z=5 fails"
