import random

import pytest

from mm3sym import group
from mm3sym.poly import ParamId, parse_polynomial
from mm3sym.tensors import Tensor, pi12
from mm3sym.catalog import (
    all_families, get_family, family_tensor, special_matrix, matmul_tensor,
    verify_catalog, families_from_json, CatalogError,
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


def test_special_matrices():
    delta = special_matrix("delta")
    assert delta[0][0] == parse_polynomial("1")
    eta = special_matrix("eta")
    assert eta != delta
    with pytest.raises(CatalogError):
        special_matrix("nope")


def test_matmul_tensor():
    T = matmul_tensor()
    assert len(T) == 27
    assert T.coeff(((1, 2), (2, 3), (3, 1))) == parse_polynomial("1")
    assert T.coeff(((1, 2), (2, 3), (1, 3))).is_zero()


def test_fresh_parameters_per_slot():
    fam = get_family(9)
    t1 = fam.tensor(slot=1)
    t2 = fam.tensor(slot=2)
    vars1 = {v for _, p in t1.items() for v in p.variables()}
    vars2 = {v for _, p in t2.items() for v in p.variables()}
    assert vars1 == {ParamId(1, "a"), ParamId(1, "b")}
    assert not (vars1 & vars2)


def test_concrete_parameters():
    fam = get_family(9)
    t = fam.tensor([1, 0])
    assert t == family_tensor(9, [1, 0])
    assert t.coeff(((1, 1), (1, 1), (1, 1))) == parse_polynomial("1")
    with pytest.raises(CatalogError):
        fam.tensor([1])


def test_orbit_lengths_spot_check():
    rng = random.Random(89)
    for fid in rng.sample(range(1, 45), 6):
        fam = get_family(fid)
        assert len(group.orbit_of(fam.tensor())) == fam.length


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
    packaged = families_from_json()
    assert list(fams) == list(range(1, 45))
    assert list(packaged) == list(fams)
    for fid, fam in fams.items():
        assert fam.id == fid
        assert fam.length == packaged[fid].length
        assert fam.tensor() == packaged[fid].tensor()


def test_verify_catalog_full():
    # orbit lengths, stabilizer products, symmetry and scaling laws for
    # every family; this is the expensive catalog check
    verify_catalog()
