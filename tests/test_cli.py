import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from mm3sym.cli import _build_parser, run
from mm3sym import brent, cli, prover
from mm3sym.catalog import get_family, matmul_tensor
from mm3sym.invariants import orbit_sum
from mm3sym.tensors import Tensor


def capture(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_orbit_sum_worked_example():
    code, text = capture(
        ["orbit-sum", "--type", "27", "--params", "1,2,3,4,5"])
    assert code == 0
    assert text == ("318*g1 + 214*g2 + 32*g3 - 32*g4 + 32*g5 + 174*g6 "
                    "- 40*g7 + 40*g8\n")
    # a coordinate that is a sum of constants is parenthesised once
    code, text = capture(
        ["orbit-sum", "--type", "27", "--params", "z,1,1,1,1"])
    assert code == 0
    assert text == ("(-6 - 12*z)*g1 - 6*g2 + 2*g3 - 2*g4 + 2*g5 "
                    "+ (-6 + 6*z)*g6 - 2*g7 + 2*g8\n")


def test_orbit_sum_unit_coordinates():
    # a coordinate of -1 prints as -g, as Polynomial prints -a
    for argv, want in (
            (["--type", "7", "--params=-1"], "-g1 - g2 - g6\n"),
            (["--type", "7", "--params=1"], "g1 + g2 + g6\n"),
            (["--type", "7", "--params=-1/2"], "-1/2*g1 - 1/2*g2 - 1/2*g6\n"),
            (["--type", "6", "--params=1"], "2*g1 - g2 + 2*g6\n")):
        assert capture(["orbit-sum"] + argv) == (0, want)


def test_orbit_sum_symbolic_and_full():
    code, text = capture(["orbit-sum", "--type", "7"])
    assert code == 0
    assert text == "a*g1 + a*g2 + a*g6\n"
    # the symbolic rows of all 44 families, byte for byte
    runs = [capture(["orbit-sum", "--type", str(n)]) for n in range(1, 45)]
    assert {code for code, _ in runs} == {0}
    digest = hashlib.sha256("".join(t for _, t in runs).encode()).hexdigest()
    assert digest == (
        "f5181d51b0ccc588771cf7cc10aa23cfc18849d81befe9726ba69feb0332a6a5")
    code, text = capture(["orbit-sum", "--type", "7", "--full"])
    assert code == 0
    t = Tensor.loads(text)
    assert len(t) == 3 + 18 + 6


def test_orbit_sum_at_points_digest():
    # every family with no params and at two fixed points, one of which
    # sets the first parameter to 0, byte for byte
    runs = []
    for fid in range(1, 45):
        n = len(get_family(fid).params)
        for params in (None, [str(k + 2) for k in range(n)],
                       [("0", "-1", "1/2", "3")[k % 4] for k in range(n)]):
            argv = ["orbit-sum", "--type", str(fid)]
            if params is not None:
                argv.append("--params=" + ",".join(params))
            runs.append(capture(argv))
    assert {code for code, _ in runs} == {0}
    digest = hashlib.sha256("".join(t for _, t in runs).encode()).hexdigest()
    assert digest == (
        "7a835512c51bda48cd788dcc63e5a7ec200580f21f3da837642979d5b777f2c9")


def test_orbit_sum_at_a_degenerate_point():
    # at b = 0 the family 9 tensor is E^(x)3, fixed by every element, so
    # its orbit has one element and the orbit sum is the tensor itself,
    # not 4 times its projection
    code, text = capture(["orbit-sum", "--type", "9", "--params", "1,0"])
    assert (code, text) == (0, "g1 + g2 + g6\n")
    code, text = capture(
        ["orbit-sum", "--type", "9", "--params", "1,0", "--full"])
    assert code == 0
    assert Tensor.loads(text) == get_family(9).tensor([1, 0])
    # at a = b = 0 the tensor is 0, an orbit of one element
    assert capture(["orbit-sum", "--type", "9", "--params", "0,0"]) == (0, "0\n")
    # at a generic point the orbit has the family's length
    fam = get_family(9)
    want = str(orbit_sum(fam.tensor([1, 2]), fam.length)) + "\n"
    assert capture(["orbit-sum", "--type", "9", "--params", "1,2"]) == (0, want)


def test_classes_output():
    code, text = capture(["classes"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 12
    assert lines[0] == "Q1: size 3, representative e(11,11,11)"
    assert lines[8] == "Q9: size 6, representative e(12,23,31)"
    # the whole output, byte for byte
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fd3c7761bed79edf3a58e0c04e04e3eaa2c2aeab5f0d0e8b10bd7097a93bc22d")


def test_verify_text_and_exit_code():
    code, text = capture(["verify", "--max-length", "8", "--report", "text"])
    assert code == 0
    assert text.startswith("VERIFIED: 0 survivors of ")
    assert "certificates by rule:" in text


def test_verify_json():
    code, text = capture(["verify", "--max-length", "6", "--report", "json"])
    assert code == 0
    rec = json.loads(text)
    assert rec["verified"] is True
    assert rec["survivors"] == []
    assert rec["multisets"] == len(rec["certificates"])


def _stdlib_report(report):
    """The JSON report through the stdlib's indented encoder."""
    rec = {
        "max_length": report.max_length,
        "verified": report.verified,
        "multisets": len(report.certificates) + len(report.survivors),
        "rule_counts": report.rule_counts,
        "survivors": [list(m) for m in report.survivors],
        "facts": dict(sorted(report.facts.items())),
        "certificates": [c._asdict() for c in report.certificates],
    }
    return json.dumps(rec, indent=1) + "\n"


def test_verify_report_bytes():
    # the headline reports, byte for byte
    for report, digest in (
            ("json",
             "15e4fd28fe530eb13bd138ecd7c1866cc4713fc090a5bba7e96ac67f6d686440"),
            ("text",
             "0a9f35de8f2ffc06bb8b4e414998930e18e4439f250ab873cbc7dbd1ec9a71ed")):
        code, text = capture(["verify", "--max-length", "23",
                              "--report", report])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("max_length", [1, 6, 12, 23])
def test_verify_json_matches_stdlib_encoder(max_length):
    code, text = capture(["verify", "--max-length", str(max_length),
                          "--report", "json"])
    assert code == 0
    assert text == _stdlib_report(prover.verify_theorem(max_length))


def test_verify_json_with_survivors(monkeypatch):
    report = prover.TheoremReport(
        max_length=5, certificates=[], survivors=[(7, 7), (9,)],
        facts={"final.target": "target tensor has (g3, g5) = (1, 0)"},
        rule_counts={rule: 0 for rule in prover.RULES})
    monkeypatch.setattr(prover, "verify_theorem", lambda max_length: report)
    code, text = capture(["verify", "--max-length", "5", "--report", "json"])
    assert code == 1
    assert text == _stdlib_report(report)
    assert '"certificates": []' in text


def test_verify_json_tails_and_blocks(monkeypatch):
    # tails with no identities, and with escapes, across block boundaries
    certificates = [
        prover.EliminationCertificate((5,) * k, rule, identities)
        for k in range(1, 8)
        for rule, identities in (("r\u00e9gle \"x\"", ()),
                                 (prover.REDUCIBLE, ("a", "b\\c")))]
    report = prover.TheoremReport(
        max_length=7, certificates=certificates, survivors=[],
        facts={"a": "x", "b\\c": "y"},
        rule_counts={rule: 0 for rule in prover.RULES})
    monkeypatch.setattr(prover, "verify_theorem", lambda max_length: report)
    for block in (1, 3, 14, 1024):
        monkeypatch.setattr(cli, "_REPORT_BLOCK", block)
        code, text = capture(["verify", "--max-length", "7",
                              "--report", "json"])
        assert code == 0
        assert text == _stdlib_report(report)


def test_multisets():
    code, text = capture(["multisets", "--max-length", "4"])
    assert code == 0
    assert text.splitlines() == ["5", "5,7", "6", "6,6", "6,7", "6,7,7",
                                 "7", "7,7", "7,7,7", "7,7,7,7", "9"]


class _LineCounter:
    """An output stream that keeps nothing but a count of its lines."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")


def test_multisets_streams_from_the_walk():
    # a list of the 105562 multisets of length <= 30 alone takes over
    # 10 MB; the command writes each line as the walk reaches it
    prover.enumerate_multisets(1)  # load the catalog before tracing
    out = _LineCounter()
    tracemalloc.start()
    try:
        code = run(["multisets", "--max-length", "30"], out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.lines == prover.count_multisets(30) == 105562
    assert peak < 1_500_000


def test_brent_generic(tmp_path):
    path = tmp_path / "sys.json"
    code, text = capture(["brent", "--mode", "generic", "--rank", "23",
                          "--format", "json", "--out", str(path)])
    assert code == 0 and text == ""
    system = brent.parse_system(path.read_text())
    assert len(system.equations) == 729
    assert len(system.variables) == 621


def test_brent_invariant_stdout():
    code, text = capture(["brent", "--mode", "invariant", "--types", "9,9,5",
                          "--format", "text"])
    assert code == 0
    assert len(text.splitlines()) == 12


def test_brent_usage_errors(capsys):
    code, _ = capture(["brent", "--mode", "generic"])
    assert code == 2
    code, _ = capture(["brent", "--mode", "invariant"])
    assert code == 2
    # --types is a comma-separated list of ints, like --rank is an int
    for types in ("5,x", "", "5,,7", "9.0"):
        capsys.readouterr()
        code, text = capture(["brent", "--mode", "invariant",
                              "--types", types])
        assert (code, text) == (2, ""), types
        err = capsys.readouterr().err
        assert err.startswith("error: usage: --types") and repr(types) in err


@pytest.mark.parametrize("argv, message", [
    (["--mode", "invariant", "--types", "9,5", "--rank", "3"],
     "--rank applies only to --mode generic"),
    (["--mode", "generic", "--rank", "2", "--types", "9"],
     "--types applies only to --mode invariant"),
])
def test_brent_refuses_the_other_modes_flag(capsys, argv, message):
    assert capture(["brent"] + argv) == (2, "")
    assert capsys.readouterr().err == f"error: usage: {message}\n"


def test_nonpositive_sizes_are_usage_errors(capsys):
    for argv in (["verify", "--max-length", "0"],
                 ["multisets", "--max-length", "0"],
                 ["brent", "--mode", "generic", "--rank", "0"]):
        code, text = capture(argv)
        assert code == 2, argv
        assert text == ""
    # the proof is built for length 23; longer lengths are refused, but
    # enumerating longer multisets is fine
    for max_length in ("24", "40"):
        code, text = capture(["verify", "--max-length", max_length])
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "23" in err
    code, text = capture(["multisets", "--max-length", "24"])
    assert code == 0
    assert len(text.splitlines()) == prover.count_multisets(24)


def test_readme_synopsis_matches_parser():
    # the code block of README's CLI section names every subcommand and
    # every flag the parser accepts, and no others
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    documented = {}
    for line in block.splitlines():
        if line.startswith("mm3sym "):
            flags = documented.setdefault(line.split()[1], set())
            flags.update(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {flag for action in parser._actions
               for flag in action.option_strings
               if flag not in ("-h", "--help")}
        for name, parser in sub.choices.items()
    }
    assert documented == parsed


def test_module_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "mm3sym.cli", "multisets", "--max-length", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["5", "6", "6,7", "7", "7,7", "7,7,7"]


def test_check_solution(tmp_path):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(brent.export(brent.generic_system(27), "json"))
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(
        {str(k): str(v) for k, v in brent.trivial_solution().items()}))
    code, text = capture(["check-solution", "--system", str(sys_path),
                          "--assignment", str(sol_path)])
    assert code == 0
    assert text == "SOLUTION OK\n"
    bad = {str(k): str(v) for k, v in brent.trivial_solution().items()}
    bad["x1_11"] = "0"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, text = capture(["check-solution", "--system", str(sys_path),
                          "--assignment", str(bad_path)])
    assert code == 1
    assert text.startswith("SOLUTION FAILS 1 equations")
    # values in the benchmark's Gaussian spelling: i*(-i) = 1 keeps term
    # 1 a solution, i*(1 - i) does not
    gauss = {str(k): str(v) for k, v in brent.trivial_solution().items()}
    for y, want_code, want_text in (("0 - 1*i", 0, "SOLUTION OK\n"),
                                    ("1 - 1*i", 1, "SOLUTION FAILS ")):
        gauss.update(x1_11="0 + 1*i", y1_11=y)
        bad_path.write_text(json.dumps(gauss))
        code, text = capture(["check-solution", "--system", str(sys_path),
                              "--assignment", str(bad_path)])
        assert code == want_code and text.startswith(want_text), y


def test_check_solution_undeclared_variable(tmp_path):
    # y1_11 is used by the equation but missing from the variable list,
    # so no assignment to the list can settle the equation
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "mode": "generic", "rank": 1, "variables": ["x1_11"],
        "equations": [{"label": [[1, 1], [1, 1], [1, 1]],
                       "lhs": "x1_11*y1_11", "rhs": "1"}]}))
    assignment = tmp_path / "sol.json"
    for values in ({"x1_11": 1}, {"x1_11": 1, "y1_11": 1}):
        assignment.write_text(json.dumps(values))
        code, text = capture(["check-solution", "--system", str(system),
                              "--assignment", str(assignment)])
        assert (code, text) == (3, ""), values


def test_check_solution_bad_header(tmp_path):
    # the equations of rank 1 under a record that claims rank 5
    rec = brent.to_json(brent.generic_system(1))
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({**rec, "rank": 5}))
    assignment = tmp_path / "sol.json"
    assignment.write_text(json.dumps({v: "0" for v in rec["variables"]}))
    code, text = capture(["check-solution", "--system", str(system),
                          "--assignment", str(assignment)])
    assert (code, text) == (3, "")
    system.write_text(json.dumps(rec))
    code, text = capture(["check-solution", "--system", str(system),
                          "--assignment", str(assignment)])
    assert code == 1


def test_check_solution_variable_assigned_twice(tmp_path, capsys):
    # x01_11 names x1_11 again: in either key order the verdict would
    # depend on which value came last, so there is none
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(brent.export(brent.generic_system(27), "json"))
    sol = {str(k): str(v) for k, v in brent.trivial_solution().items()}
    sol_path = tmp_path / "sol.json"
    for rec in ({**sol, "x01_11": "0"}, {"x01_11": "0", **sol}):
        sol_path.write_text(json.dumps(rec))
        code, text = capture(["check-solution", "--system", str(sys_path),
                              "--assignment", str(sol_path)])
        assert (code, text) == (3, "")
        err = capsys.readouterr().err
        assert "x1_11 is assigned twice" in err
        assert "'x1_11'" in err and "'x01_11'" in err


def test_check_solution_repeated_key(tmp_path, capsys):
    # json.loads keeps the last copy of a key, so without the check the
    # verdict would follow the key order: FAILS with the copy after the
    # real key, OK with it before
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(brent.export(brent.generic_system(27), "json"))
    sol = json.dumps({str(k): str(v)
                      for k, v in brent.trivial_solution().items()})
    sol_path = tmp_path / "sol.json"
    for text in (sol[:-1] + ', "x1_11": "0"}', '{"x1_11": "0", ' + sol[1:]):
        sol_path.write_text(text)
        code, out = capture(["check-solution", "--system", str(sys_path),
                             "--assignment", str(sol_path)])
        assert (code, out) == (3, "")
        assert "repeats the key 'x1_11'" in capsys.readouterr().err


def test_act(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(matmul_tensor().dumps())
    code, text = capture(["act", "--g", "a=(perm=(231),signs=+--);b=rho*sigma",
                          "--in", str(path)])
    assert code == 0
    assert Tensor.loads(text) == matmul_tensor()  # the target is invariant


@pytest.mark.parametrize("idx", ["[[true, 1], [1, 1], [1, 1]]",
                                 "[[1, 1], [1, 1], [1, 1.0]]"],
                         ids=["true", "float_one"])
def test_act_rejects_index_entries_that_are_not_ints(tmp_path, idx):
    # true and 1.0 equal 1, but a basis index is written in ints
    bad = tmp_path / "bad.json"
    bad.write_text('{"entries": [{"idx": %s, "coeff": "1"}]}' % idx)
    code, text = capture(["act", "--g", "a=(perm=(231),signs=+--);b=id",
                          "--in", str(bad)])
    assert (code, text) == (3, "")


def test_check_solution_reads_a_record_by_value(tmp_path):
    # the record check compares parsed values, not the export's bytes:
    # the rank-27 export dumped without indent and with its keys and
    # each equation's keys reordered is still that system
    system = brent.generic_system(27)
    rec = json.loads(brent.export(system, "json"))
    rec = {k: rec[k] for k in reversed(list(rec))}
    rec["equations"] = [{k: eq[k] for k in reversed(list(eq))}
                        for eq in rec["equations"]]
    text = json.dumps(rec)
    assert "\n" not in text and list(json.loads(text))[0] == "equations"
    assert brent.parse_system(text) == system
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(text)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(
        {str(k): str(v) for k, v in brent.trivial_solution().items()}))
    code, out = capture(["check-solution", "--system", str(sys_path),
                         "--assignment", str(sol_path)])
    assert (code, out) == (0, "SOLUTION OK\n")


def test_error_exit_codes(tmp_path):
    code, _ = capture(["orbit-sum", "--type", "99"])
    assert code == 3
    code, _ = capture(["orbit-sum", "--type", "9", "--params", "1,2,%"])
    assert code == 3
    code, _ = capture(["act", "--g", "bogus", "--in", "nope.json"])
    assert code == 3
    # an index entry outside 1..3 is no basis index
    bad = tmp_path / "bad.json"
    bad.write_text('{"entries": [{"idx": [[0, 1], [1, 1], [1, 1]], "coeff": "1"}]}')
    code, _ = capture(["act", "--g", "a=(perm=(231),signs=+--);b=id",
                       "--in", str(bad)])
    assert code == 3
    code, _ = capture(["check-solution", "--system", str(tmp_path / "x"),
                       "--assignment", str(tmp_path / "y")])
    assert code == 3
    # a variable name with a space in it
    spaced = tmp_path / "spaced.json"
    spaced.write_text(json.dumps({
        "mode": "invariant", "multiset": [7], "variables": [" a"],
        "equations": [{"label": 1, "lhs": "a", "rhs": "1"}]}))
    (tmp_path / "a.json").write_text('{"a": "1"}')
    code, _ = capture(["check-solution", "--system", str(spaced),
                       "--assignment", str(tmp_path / "a.json")])
    assert code == 3
    # a system with a malformed polynomial
    rec = brent.to_json(brent.generic_system(1))
    rec["equations"][5]["lhs"] = "x1_11*y1_1"
    system = tmp_path / "malformed.json"
    system.write_text(json.dumps(rec))
    assignment = tmp_path / "zero.json"
    assignment.write_text(json.dumps({v: "0" for v in rec["variables"]}))
    code, _ = capture(["check-solution", "--system", str(system),
                       "--assignment", str(assignment)])
    assert code == 3
    # a generic record whose first equation is edited to x1_11 = 5
    rec = brent.to_json(brent.generic_system(1))
    rec["equations"][0].update(lhs="x1_11", rhs="5")
    system.write_text(json.dumps(rec))
    code, _ = capture(["check-solution", "--system", str(system),
                       "--assignment", str(assignment)])
    assert code == 3
    # an invariant record whose equations belong to another multiset
    system.write_text(json.dumps(
        {**brent.to_json(brent.invariant_system((9, 5))), "multiset": [5, 9]}))
    assignment.write_text(json.dumps(dict.fromkeys(["a1", "b1", "a2", "b2"],
                                                   "1")))
    code, _ = capture(["check-solution", "--system", str(system),
                       "--assignment", str(assignment)])
    assert code == 3
    # a value with a zero denominator
    good = tmp_path / "generic.json"
    good.write_text(brent.export(brent.generic_system(1), "json"))
    values = {v: "0" for v in rec["variables"]}
    values[rec["variables"][0]] = "1/0"
    assignment.write_text(json.dumps(values))
    code, _ = capture(["check-solution", "--system", str(good),
                       "--assignment", str(assignment)])
    assert code == 3
    # JSON of the wrong shape
    for text in ("[1, 2]", '"x"'):
        assignment.write_text(text)
        code, _ = capture(["check-solution", "--system", str(good),
                           "--assignment", str(assignment)])
        assert code == 3, text
    for text in ('[1, 2]', '{"entries": 5}', '{"entries": [5]}',
                 '{"entries": [{"idx": [[1, 1], [1, 1], [1, 1]], "coeff": 5}]}',
                 '{"entries": [{"idx": 5, "coeff": "1"}]}'):
        bad.write_text(text)
        code, _ = capture(["act", "--g", "a=(perm=(231),signs=+--);b=id",
                           "--in", str(bad)])
        assert code == 3, text
    code, _ = capture(["frobnicate"])
    assert code == 2
    code, _ = capture(["orbit-sum"])
    assert code == 2
    code, _ = capture(["orbit-sum", "--type", "7", "--gamma"])
    assert code == 2


def test_determinism():
    for argv in (["classes"],
                 ["multisets", "--max-length", "6"],
                 ["brent", "--mode", "invariant", "--types", "24,9,7"],
                 ["verify", "--max-length", "7", "--report", "json"]):
        first = capture(argv)
        # usage errors in between leave the shared parser as it was
        for bad in (["verify", "--max-length", "0"],
                    ["verify", "--max-length", "x"]):
            assert capture(bad) == (2, "")
        assert capture(argv) == first
