import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mm3sym import brent, cli, group
from mm3sym.cyclotomic import Cyclotomic, ZERO, ONE, IMAG
from mm3sym.poly import (
    BrentVar, ParamId, Polynomial, PolyParseError, parse_polynomial,
    var_from_str,
)
from mm3sym.tensors import PAIRS, Tensor, tensor_from_factors
from mm3sym.catalog import all_families, matmul_tensor, get_family
from mm3sym.invariants import orbit_sum
from mm3sym.prover import enumerate_multisets

from factors import matrix

DATA = Path(__file__).parent / "data"


def test_generic_counts():
    rng = random.Random(101)
    for _ in range(10):
        r = rng.randint(1, 30)
        s = brent.generic_system(r)
        assert len(s.equations) == 729
        assert len(s.variables) == 27 * r
    assert len(brent.generic_system(23).variables) == 621
    with pytest.raises(brent.BrentError):
        brent.generic_system(0)


def test_generic_structure():
    s = brent.generic_system(1)
    eq = s.equations[0]
    assert eq.label == ((1, 1), (1, 1), (1, 1))
    assert eq.lhs == parse_polynomial("x1_11*y1_11*z1_11")
    assert eq.rhs == Cyclotomic.rational(1)
    ones = sum(1 for e in s.equations if e.rhs == Cyclotomic.rational(1))
    assert ones == 27  # one per entry of the target tensor


def test_generic_matches_termwise_build():
    s = brent.generic_system(2)
    target = matmul_tensor()
    want = []
    for eq in s.equations:
        alpha = eq.label
        lhs = Polynomial()
        for j in (1, 2):
            lhs = lhs + (
                Polynomial.variable(BrentVar(0, j, *alpha[0]))
                * Polynomial.variable(BrentVar(1, j, *alpha[1]))
                * Polynomial.variable(BrentVar(2, j, *alpha[2]))
            )
        want.append((alpha, lhs, target.coeff(alpha).constant_value()))
    assert [(eq.label, eq.lhs, eq.rhs) for eq in s.equations] == want
    assert len({eq.label for eq in s.equations}) == 729


def test_trivial_solution():
    sol = brent.trivial_solution()
    assert len(sol) == 27 * 27
    s = brent.generic_system(27)
    ok, failing = brent.check_solution(s, sol)
    assert ok and not failing


def test_trivial_decomposition_orbit_structure():
    # the 27 rank-one terms of the trivial decomposition sum to the
    # target tensor and split into G-orbits of sizes 3, 18 and 6 --
    # exactly the classes carrying its g1, g3 and g9 coordinates
    def unit(i, j):
        return matrix([[int((r, c) == (i, j)) for c in (1, 2, 3)]
                       for r in (1, 2, 3)])

    terms = []
    total = Tensor()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                t = tensor_from_factors(unit(i, j), unit(j, k), unit(k, i))
                terms.append(t)
                total = total + t
    assert total == matmul_tensor()
    orbits = []
    left = list(terms)
    while left:
        orb = set(group.orbit_and_stabilizer(left[0])[0])
        assert orb <= set(terms)
        left = [t for t in left if t not in orb]
        orbits.append(len(orb))
    assert sorted(orbits) == [3, 6, 18]


def test_all_zero_fails_exactly_target_support():
    s = brent.generic_system(23)
    ok, failing = brent.check_solution(s, {v: 0 for v in s.variables})
    assert not ok
    assert len(failing) == 27
    assert set(failing) == {eq.label for eq in s.equations
                            if eq.rhs == Cyclotomic.rational(1)}


def test_perturbed_trivial_solution():
    sol = brent.trivial_solution()
    sol[BrentVar(0, 1, 1, 1)] = 5  # flip one x-coordinate of term 1
    s = brent.generic_system(27)
    ok, failing = brent.check_solution(s, sol)
    assert not ok
    # term 1 is (i,j,k) = (1,1,1); its other factors vanish away from
    # the (1,1) entries, so exactly one equation breaks
    assert failing == [((1, 1), (1, 1), (1, 1))]


def _substituted_check(system, assignment):
    """The independent route: substitute into each left side and
    compare the polynomial with the constant right side."""
    values = {brent.var_from_str(k) if isinstance(k, str) else k: v
              for k, v in assignment.items()}
    failing = [eq.label for eq in system.equations
               if not eq.lhs.substitute(values) == Polynomial.constant(eq.rhs)]
    return not failing, failing


def test_check_solution_matches_substitution():
    # check_solution substitutes too, except on the columns of a system
    # built by generic_system: only ranks 1 to 3 compare two routes, the
    # other systems pin the name lookup and the coercion of the values
    rng = random.Random(109)
    scalars = {
        "gaussian": lambda: Cyclotomic((rng.randint(-2, 2), 0, 0,
                                        rng.randint(-2, 2))),
        "fraction": lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        "zero_one": lambda: int(rng.random() < 0.3),
    }
    # the invariant systems have exponents above 1
    systems = [brent.generic_system(r) for r in (1, 2, 3)] + [
        brent.invariant_system(m) for m in ((9, 5), (24, 9, 7), (5, 38, 44))]
    assert any(e > 1 for eq in systems[-1].equations
               for m in eq.lhs.terms for _, e in m)
    # no built system has a constant term on the left, so one by hand,
    # with exponents in heads and lasts and coefficients other than 1
    lhs = parse_polynomial("a1^2*b1 + 3 - a1*b1^3 + (1 + z)*b1 + 2*a1*b1")
    variables = (ParamId(1, "a"), ParamId(1, "b"))
    systems.append(brent.BrentSystem("invariant", variables, tuple(
        brent.Equation(k, lhs, Cyclotomic.rational(k)) for k in range(6))))
    for s in systems:
        for name, scalar in scalars.items():
            for by_name in (False, True):
                a = {str(v) if by_name else v: scalar() for v in s.variables}
                got = brent.check_solution(s, a)
                assert got == _substituted_check(s, a), (s, name)


def test_packed_check_matches_substitution():
    # the generic check packs each value into one int; substitution does
    # exact field arithmetic: values on all four coordinates, large
    # magnitudes, large denominators and about 30 % zeros
    rng = random.Random(131)
    coords = {
        "small": lambda: rng.randint(-3, 3),
        "large": lambda: rng.randint(-10**15, 10**15),
        "fraction": lambda: Fraction(rng.randint(-10**6, 10**6),
                                     rng.randint(1, 1000003)),
    }
    for r in (1, 2, 3):
        s = brent.generic_system(r)
        for coord in coords.values():
            for cancel in (False, True):
                a = {v: 0 if rng.random() < 0.3
                     else Cyclotomic([coord() for _ in range(4)])
                     for v in s.variables}
                if cancel and r > 1:
                    # term 2 is term 1 times (u, 1, -1/u): the two cancel
                    # in the field, not coordinate by coordinate
                    u = Cyclotomic([coord() or 1 for _ in range(4)])
                    for v in s.variables[:27]:
                        a[v._replace(term=2)] = a[v] * (
                            u, 1, -u.inv())[v.factor]
                assert brent.check_solution(s, a) == _substituted_check(s, a)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_packed_check_at_the_digit_bound(rank):
    # with every value M*(1 + w + w^2 + w^3), 12 triples meet at degree
    # 4 and at degree 5, so those coefficients are exactly 12*rank*M^3,
    # the bound the digit width is chosen for
    s = brent.generic_system(rank)
    for m in (1, 7, 2**20, 10**5 + 3):
        a = dict.fromkeys(s.variables, Cyclotomic((m, m, m, m)))
        assert brent.check_solution(s, a) == _substituted_check(s, a)
        for step in (1, -1):
            moved = {**a, s.variables[5]: Cyclotomic((m, m, m + step, m))}
            assert (brent.check_solution(s, moved)
                    == _substituted_check(s, moved))


def _dense_solution():
    """The trivial rank-27 solution moved by (x, y, z) ->
    (A x B^-1, B y C^-1, C z A^-1), which fixes the target.  A, B and C
    are Gaussian-integer matrices of determinant 1 with no zero entry
    in them or their inverses, so the coordinates are nonzero Gaussian
    integers."""
    rng = random.Random(113)

    def gaussian():
        return Cyclotomic((rng.choice((-2, -1, 1, 2)), 0, 0,
                           rng.randint(-2, 2)))

    def mat_mul(p, q):
        return [[sum((p[r][k] * q[k][c] for k in range(3)), ZERO)
                 for c in range(3)] for r in range(3)]

    def inverse(m):
        # the adjugate: the determinant is 1, and cyclic indices carry
        # the cofactor signs
        return [[m[(c + 1) % 3][(r + 1) % 3] * m[(c + 2) % 3][(r + 2) % 3]
                 - m[(c + 1) % 3][(r + 2) % 3] * m[(c + 2) % 3][(r + 1) % 3]
                 for c in range(3)] for r in range(3)]

    def unimodular():
        # upper times lower unitriangular
        while True:
            u, l = ([[ONE if r == c else gaussian() if (r < c) == upper
                      else ZERO for c in range(3)] for r in range(3)]
                    for upper in (True, False))
            m = mat_mul(u, l)
            if all(x for row in m + inverse(m) for x in row):
                return m

    a, b, c = unimodular(), unimodular(), unimodular()
    assert mat_mul(a, inverse(a)) == [[ONE if r == k else ZERO
                                       for k in range(3)] for r in range(3)]
    ends = ((a, inverse(b)), (b, inverse(c)), (c, inverse(a)))
    sol = {}
    for v, one in brent.trivial_solution().items():
        if one:
            # the factor is e(row, col): the outer product of column row
            # of the left matrix and row col of the right one
            left, right = ends[v.factor]
            for r in (1, 2, 3):
                for k in (1, 2, 3):
                    sol[BrentVar(v.factor, v.term, r, k)] = \
                        left[r - 1][v.row - 1] * right[v.col - 1][k - 1]
    return sol


def test_dense_solution_and_products(monkeypatch):
    s = brent.generic_system(27)
    sol = _dense_solution()
    assert len(sol) == 729 and all(sol.values())
    assert brent.check_solution(s, sol) == (True, [])
    broken = dict(sol)
    broken[BrentVar(2, 5, 3, 1)] += IMAG
    ok, failing = brent.check_solution(s, broken)
    assert (ok, failing) == _substituted_check(s, broken)
    # x5 and y5 have no zero coordinate, so every equation at z-cell
    # (3, 1) breaks
    assert failing == [eq.label for eq in s.equations if eq.label[2] == (3, 1)]
    assert len(failing) == 81
    # the values are packed into ints, so no Cyclotomic is multiplied
    calls = []
    mul = Cyclotomic.__mul__
    monkeypatch.setattr(Cyclotomic, "__mul__",
                        lambda x, y: calls.append(1) or mul(x, y))
    brent.check_solution(s, sol)
    assert len(calls) == 0


def test_dense_solution_scaled_by_a_non_rational_unit():
    # x_t*y_t*z_t is unchanged when x is scaled by u and y by 1/u; the
    # coordinates of 1/u have denominator 13
    u = Cyclotomic((2, 1, 0, -1))
    scale = (u, u.inv(), ONE)
    assert all(type(c) is Fraction for c in scale[1].coords)
    sol = {v: scale[v.factor] * x for v, x in _dense_solution().items()}
    s = brent.generic_system(27)
    assert brent.check_solution(s, sol) == (True, [])
    sol[BrentVar(0, 4, 2, 3)] += 1
    ok, failing = brent.check_solution(s, sol)
    assert (ok, failing) == _substituted_check(s, sol)
    assert failing == [eq.label for eq in s.equations if eq.label[0] == (2, 3)]


def _perturbed_dense_solution():
    """The dense solution with z5[3, 1] moved off it: exactly the 81
    equations at z-cell (3, 1) break."""
    sol = _dense_solution()
    sol[BrentVar(2, 5, 3, 1)] += IMAG
    return sol


GENERIC_23_DIGESTS = {
    "json": "fef6cd653265d0070080e5a07b0d54e946720e3cf841f5f2b32c26ba5a2ea98a",
    "text": "352eac11b68c5e1fed90aa6a8ff16657ba49b210b34e90da63b9c0870cd43f2e",
    "m2": "c9f809423800494d008b4bb2588dcb8c511d6cd668a732f8000e58eb07f4882f",
}


def _unbuildable(variables):
    raise AssertionError("generic equations built")


def test_generic_cli_paths_build_no_equation(monkeypatch, tmp_path):
    # export, parse_system and check_solution read a generic system's
    # rank and columns only: with the builder broken they still print
    # the bytes of the built system
    monkeypatch.setattr(brent, "_generic_equations", _unbuildable)
    s = brent.generic_system(27)
    assert len(s.equations) == 729
    assert repr(s) == "<BrentSystem generic 27: 729 equations, 729 variables>"
    assert brent.parse_system(brent.export(s, "json")) == s

    def run(argv):
        out = io.StringIO()
        return cli.run(argv, out=out), out.getvalue()

    for fmt in ("json", "text"):
        code, text = run(["brent", "--mode", "generic", "--rank", "23",
                          "--format", fmt])
        assert code == 0
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == GENERIC_23_DIGESTS[fmt], fmt
    system = tmp_path / "system.json"
    system.write_text(brent.export(s, "json"))
    broken = [(a, b, (3, 1)) for a in PAIRS for b in PAIRS]
    for sol, want in ((brent.trivial_solution(), (0, "SOLUTION OK\n")),
                      (_perturbed_dense_solution(), (1, "".join(
                          ["SOLUTION FAILS 81 equations\n"]
                          + [f"  {label}\n" for label in broken])))):
        assignment = tmp_path / "assignment.json"
        assignment.write_text(json.dumps({str(v): str(x)
                                          for v, x in sol.items()}))
        assert run(["check-solution", "--system", str(system),
                    "--assignment", str(assignment)]) == want


def test_generic_equations_build_once_and_equal_the_tuple(monkeypatch):
    s = brent.generic_system(2)
    built = tuple(s.equations)
    assert s.equations[5] is built[5] and s.equations[-2:] == built[-2:]
    assert s.equations == built and built == s.equations
    assert hash(s.equations) == hash(built)
    by_hand = brent.BrentSystem("generic", s.variables, built, rank=2)
    assert by_hand == s and s == by_hand and hash(by_hand) == hash(s)
    # equal unbuilt ranks compare by rank; other ranks differ
    monkeypatch.setattr(brent, "_generic_equations", _unbuildable)
    assert brent.generic_system(3) == brent.generic_system(3)
    assert brent.generic_system(3).equations != brent.generic_system(4).equations
    assert tuple(s.equations) == built


def test_hand_built_generic_system_is_checked_term_by_term(monkeypatch):
    # a generic system built by hand may carry any equations, so it is
    # printed and checked from its terms, never from the columns
    s = brent.generic_system(2)
    equations = list(s.equations)
    # an equation off the target's support gets a constant term
    k = next(k for k, eq in enumerate(equations) if eq.rhs == ZERO)
    edited = equations[k].lhs + 1
    equations[k] = equations[k]._replace(lhs=edited)
    by_hand = brent.BrentSystem("generic", s.variables, tuple(equations),
                                rank=2)
    assert by_hand != s
    rng = random.Random(127)
    assignments = [{v: 0 for v in s.variables}] + [
        {v: Cyclotomic((rng.randint(-1, 1), 0, 0, rng.randint(-1, 1)))
         for v in s.variables} for _ in range(3)]
    want = [_substituted_check(by_hand, a) for a in assignments]
    # the 27 of the target and the edited one, where the columns see 27
    assert len(want[0][1]) == 28
    assert brent.check_solution(s, assignments[0])[1] == [
        label for label in want[0][1] if label != equations[k].label]

    def no_columns(coords):
        raise AssertionError("columns read")
    monkeypatch.setattr(brent, "_generic_columns", no_columns)
    assert [brent.check_solution(by_hand, a) for a in assignments] == want
    rec = brent.to_json(by_hand)
    assert rec["equations"][k]["lhs"] == str(edited)


def test_generic_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    system = tmp_path / "system.json"
    system.write_text(brent.export(brent.generic_system(27), "json"))
    assignment = tmp_path / "assignment.json"
    assignment.write_text(json.dumps({
        str(v): str(x) for v, x in _perturbed_dense_solution().items()}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    calls = (["check-solution", "--system", str(system),
              "--assignment", str(assignment)],
             ["brent", "--mode", "generic", "--rank", "3", "--format", "text"])
    for argv in calls:
        runs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p)}
            proc = subprocess.run([sys.executable, "-m", "mm3sym.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=60)
            runs.append((proc.returncode, proc.stdout))
        assert runs[0] == runs[1], argv
        assert runs[0][0] == (1 if argv[0] == "check-solution" else 0)


def test_check_solution_parses_only_names_outside_the_system(monkeypatch):
    s = brent.generic_system(2)
    parsed = []

    def spy(name):
        parsed.append(name)
        return var_from_str(name)

    monkeypatch.setattr(brent, "var_from_str", spy)
    by_name = {str(v): k % 3 for k, v in enumerate(s.variables)}
    by_var = {v: k % 3 for k, v in enumerate(s.variables)}
    want = brent.check_solution(s, by_var)
    assert brent.check_solution(s, by_name) == want and parsed == []
    # a name the system lacks is parsed, and a bad one fails as before
    assert brent.check_solution(s, {**by_name, "x03_11": 1, "b2": 0}) == want
    assert parsed == ["x03_11", "b2"]
    with pytest.raises(PolyParseError):
        brent.check_solution(s, {**by_name, "q1_11": 0})


def test_a_variable_assigned_twice_is_an_error():
    # x01_11 is x1_11, and a variable object is its name: either key
    # order would give one coordinate two values
    sol = {str(v): x for v, x in brent.trivial_solution().items()}
    x = BrentVar(0, 1, 1, 1)
    s = brent.generic_system(27)
    for twice, first, second in (({**sol, "x01_11": 0}, "'x1_11'", "'x01_11'"),
                                 ({"x01_11": 0, **sol}, "'x01_11'", "'x1_11'"),
                                 ({**sol, x: 1}, "'x1_11'", repr(x))):
        with pytest.raises(brent.BrentError, match=re.escape(
                f"variable x1_11 is assigned twice, as {first} and as {second}")):
            brent.check_solution(s, twice)
    # the substitution route refuses it too
    s = brent.invariant_system((7,))
    with pytest.raises(brent.BrentError, match="a1 is assigned twice"):
        brent.check_solution(s, {"a1": 1, "a01": 0})


def test_missing_variable_error():
    s = brent.generic_system(1)
    with pytest.raises(brent.BrentError):
        brent.check_solution(s, {})


def test_unassigned_variable_in_an_equation_is_an_error(monkeypatch, capsys,
                                                        tmp_path):
    # a hand-built invariant system whose equation reads b1, which is
    # neither one of its variables nor assigned: there is no verdict,
    # so check_solution raises and never returns ok
    a1 = ParamId(1, "a")
    s = brent.BrentSystem("invariant", (a1,), (
        brent.Equation(1, parse_polynomial("a1 + b1"), ONE),), multiset=(9,))
    for assignment in ({a1: 1}, {a1: 0}, {"a1": 1}):
        with pytest.raises(brent.BrentError, match="unassigned variable b1"):
            brent.check_solution(s, assignment)
    # with b1 assigned too, the equation has a verdict
    assert brent.check_solution(s, {a1: 1, "b1": 0}) == (True, [])
    # the CLI reports it as a parse error
    monkeypatch.setattr(brent, "parse_system", lambda text: s)
    system, assignment = tmp_path / "system.json", tmp_path / "a.json"
    system.write_text("{}")
    assignment.write_text('{"a1": "1"}')
    out = io.StringIO()
    code = cli.run(["check-solution", "--system", str(system),
                    "--assignment", str(assignment)], out=out)
    assert (code, out.getvalue()) == (3, "")
    assert "unassigned variable b1" in capsys.readouterr().err


# A rational point on each consistent type of length 27 (ROADMAP item 3,
# the realise table): the parameters of each slot in catalog letter order
LENGTH_27_POINTS = {
    (5, 24, 44): ((0, 1), (0, 1, 0, 0, Fraction(1, 2)), (1, 0)),
    (5, 38, 44): ((0, 1), (0, 1, 0, 0, Fraction(1, 2)), (1, 0)),
    (5, 26, 44): ((0, 1), (0, 1, 0, 1, 0), (1, 0)),
}


@pytest.mark.parametrize("multiset", list(LENGTH_27_POINTS))
def test_length_27_points_solve_their_invariant_systems(multiset, tmp_path):
    s = brent.invariant_system(multiset)
    point = {ParamId(slot, letter): x
             for slot, (fid, values) in enumerate(
                 zip(multiset, LENGTH_27_POINTS[multiset]), start=1)
             for letter, x in zip(get_family(fid).params, values)}
    assert set(point) == set(s.variables)
    off = {**point, ParamId(1, "a"): 1}
    assert brent.check_solution(s, point) == (True, [])
    assert brent.check_solution(s, off) == (False, [1, 2, 6])
    system = tmp_path / "system.json"
    system.write_text(brent.export(s, "json"))
    for values, want in ((point, (0, "SOLUTION OK\n")),
                         (off, (1, "SOLUTION FAILS 3 equations\n"
                                   "  1\n  2\n  6\n"))):
        assignment = tmp_path / "assignment.json"
        assignment.write_text(json.dumps({str(v): str(x)
                                          for v, x in values.items()}))
        out = io.StringIO()
        code = cli.run(["check-solution", "--system", str(system),
                        "--assignment", str(assignment)], out=out)
        assert (code, out.getvalue()) == want


def test_invariant_counts():
    rng = random.Random(103)
    pool = enumerate_multisets(23)
    for multiset in rng.sample(pool, 10):
        s = brent.invariant_system(multiset)
        assert len(s.equations) == 12
        want = sum(len(get_family(fid).params) for fid in multiset)
        assert len(s.variables) == want
    with pytest.raises(brent.BrentError):
        brent.invariant_system(())


def test_invariant_structure():
    s = brent.invariant_system((24, 9, 7))
    assert len(s.variables) == 5 + 2 + 1
    assert [str(v) for v in s.variables] == \
        ["a1", "b1", "c1", "d1", "f1", "a2", "b2", "a3"]
    rhs = [eq.rhs for eq in s.equations]
    one = Cyclotomic.rational(1)
    assert [r == one for r in rhs] == \
        [m in (1, 3, 9) for m in range(1, 13)]
    # the family-9 slot contributes 4*b^3 to the g9 equation
    g9 = s.equations[8].lhs
    assert g9.substitute({ParamId(1, l): 0 for l in "abcdf"}) == \
        parse_polynomial("4*b2^3")


def test_invariant_system_matches_slot_tensors():
    # the gamma-table route against projecting each entry's slot tensor,
    # the fresh tensor with its entries renamed into the slot
    def direct(multiset):
        total = None
        for slot, fid in enumerate(multiset, start=1):
            fam = get_family(fid)
            rename = lambda x: ParamId(slot, x.letter)
            w = Tensor({a: p.map_vars(rename)
                        for a, p in fam.tensor().entries.items()})
            v = orbit_sum(w, fam.length)
            total = v if total is None else total + v
        return [total[m] for m in range(1, 13)]

    multisets = [(fid, fid) for fid in sorted(all_families())] + [(9, 9, 5)]
    for multiset in multisets:
        s = brent.invariant_system(multiset)
        assert [eq.lhs for eq in s.equations] == direct(multiset), multiset


def test_single_family_inconsistency_visible():
    # type {7} alone: the g1 and g2 equations force a = 1 and a = 0
    s = brent.invariant_system((7,))
    eq1, eq2 = s.equations[0], s.equations[1]
    assert eq1.lhs == eq2.lhs == parse_polynomial("a1")
    assert eq1.rhs == Cyclotomic.rational(1)
    assert eq2.rhs == Cyclotomic.rational(0)


def test_json_roundtrip():
    rng = random.Random(107)
    systems = [brent.generic_system(2),
               brent.invariant_system((9, 9, 5)),
               brent.invariant_system(rng.choice(enumerate_multisets(23)))]
    for s in systems:
        blob = brent.export(s, "json")
        assert brent.parse_system(blob) == s
        assert brent.export(brent.parse_system(blob), "json") == blob
    # the rank-27 system that check-solution reads
    blob = brent.export(brent.generic_system(27), "json")
    assert brent.export(brent.parse_system(blob), "json") == blob
    with pytest.raises(brent.BrentError):
        brent.parse_system("{}")
    rec = json.loads(blob)
    rec["equations"][0]["rhs"] = "1/0"
    with pytest.raises(brent.BrentError):
        brent.parse_system(json.dumps(rec))
    with pytest.raises(brent.BrentError):
        brent.export(systems[0], "latex")


def test_parse_system_rejects_bad_records():
    system = brent.invariant_system((9, 5))
    rec = json.loads(brent.export(system, "json"))
    parsed = brent.parse_system(rec)
    assert parsed == system and hash(parsed) == hash(system)
    for key, value in (("multiset", 5), ("mode", "other")):
        with pytest.raises(brent.BrentError):
            brent.parse_system({**rec, key: value})
    # the header must name the system the equations belong to: an
    # invariant multiset is a nonempty list of family ids whose slots
    # declare exactly the record's variables
    extra = {**rec, "variables": rec["variables"] + ["a3"]}
    for bad in ({**rec, "multiset": "95"}, {**rec, "multiset": [7]},
                {**rec, "multiset": []}, {**rec, "multiset": [9, 999]},
                {**rec, "multiset": [9, True]}, {**rec, "multiset": [9.0, 5]},
                extra):
        with pytest.raises(brent.BrentError, match="bad system record"):
            brent.parse_system(bad)
    # and its equations must be the multiset's: [5, 9] declares the
    # same parameters as (9, 5), with other equations
    assert brent.invariant_system((5, 9)).equations != system.equations
    with pytest.raises(brent.BrentError, match="bad system record: "
                       "equations are not those of multiset"):
        brent.parse_system({**rec, "multiset": [5, 9]})
    # a label is made of ints: true for 1 and 2.0 for 2 compare equal to
    # the export's labels but are not them
    first, second, *rest = rec["equations"]
    assert (first["label"], second["label"]) == (1, 2)
    for bad in ({**rec, "equations": [{**first, "label": True}, second, *rest]},
                {**rec, "equations": [first, {**second, "label": 2.0}, *rest]}):
        assert bad == rec
        with pytest.raises(brent.BrentError, match="bad system record: "
                           "equations are not those of multiset"):
            brent.parse_system(bad)
    # a generic rank is a positive int whose 27*rank coordinates are the
    # record's variables, in export order
    generic = json.loads(brent.export(brent.generic_system(2), "json"))
    assert brent.parse_system(generic) == brent.generic_system(2)
    swapped = generic["variables"][:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    for bad in ({**generic, "rank": "abc"}, {**generic, "rank": 0},
                {**generic, "rank": None}, {**generic, "rank": 5},
                {**generic, "rank": 1}, {**generic, "rank": True},
                {**generic, "rank": 2.0}, {**generic, "variables": swapped},
                {**generic, "variables": generic["variables"] + ["x3_11"]},
                {**generic, "rank": 10**9}):
        with pytest.raises(brent.BrentError, match="bad system record"):
            brent.parse_system(bad)
    # and its equations must be the rank's export as printed: an edited
    # equation or label is another system, a label of true and 1.0 is
    # not the export's ints, and two lhs terms swapped are the same
    # equation printed otherwise
    one = json.loads(brent.export(brent.generic_system(1), "json"))
    first, *rest = one["equations"]
    assert first["lhs"] == "x1_11*y1_11*z1_11"
    assert first["label"] == [[1, 1], [1, 1], [1, 1]]
    lhs = generic["equations"][0]["lhs"].split(" + ")
    assert len(lhs) == 2
    for bad in (
            {**one, "equations": [{**first, "lhs": "x1_11", "rhs": "5"},
                                  *rest]},
            {**one, "equations": [{**first, "label": rest[0]["label"]},
                                  *rest]},
            {**one, "equations": [{**first, "label": [[True, 1.0], [1, 1],
                                                      [1, 1]]}, *rest]},
            {**generic, "equations": [
                {**generic["equations"][0], "lhs": " + ".join(lhs[::-1])},
                *generic["equations"][1:]]}):
        rank = bad["rank"]
        with pytest.raises(brent.BrentError, match="bad system record: "
                           "equations are not those of "
                           f"rank {rank}$"):
            brent.parse_system(bad)


@pytest.mark.parametrize("rank", [1, 2, 3, 27])
def test_generic_lhs_texts_match_the_polynomial_printer(rank):
    # json and text print a generic lhs from the coordinate names; the
    # Polynomial printer sorts and prints the built terms independently
    s = brent.generic_system(rank)
    want = [str(eq.lhs) for eq in s.equations]
    rec = json.loads(brent.export(s, "json"))
    assert [eq["lhs"] for eq in rec["equations"]] == want
    lines = brent.export(s, "text").splitlines()
    assert lines == [f"{lhs} = {eq.rhs}" for lhs, eq in zip(want, s.equations)]
    assert len(want[0].split(" + ")) == rank


def test_json_export_is_the_indented_dump():
    # the json export writes the equations itself; it must be the
    # stdlib's indent=1 dump of to_json, byte for byte
    systems = [brent.generic_system(r) for r in (1, 2, 27)] + [
        brent.invariant_system(m)
        for m in enumerate_multisets(23)[::97] + [(5, 38, 44)]]
    for s in systems:
        assert brent.export(s, "json") == json.dumps(
            brent.to_json(s), indent=1) + "\n", s


def test_text_export():
    s = brent.invariant_system((7,))
    lines = brent.export(s, "text").splitlines()
    assert len(lines) == 12
    assert lines[0] == "a1 = 1"
    assert lines[1] == "a1 = 0"


def test_m2_export_golden():
    s = brent.invariant_system((9, 5))
    golden = (DATA / "invariant_9_5.m2").read_text()
    assert brent.export(s, "m2") == golden


def test_generic_export_golden():
    s = brent.generic_system(23)
    for fmt, digest in GENERIC_23_DIGESTS.items():
        assert hashlib.sha256(
            brent.export(s, fmt).encode()).hexdigest() == digest, fmt


def test_exports_deterministic():
    for fmt in ("json", "text", "m2"):
        a = brent.export(brent.invariant_system((24, 9, 7)), fmt)
        b = brent.export(brent.invariant_system((24, 9, 7)), fmt)
        assert a == b
