import io
import json
import os
import subprocess
import sys
from pathlib import Path

from mm3sym.cli import run
from mm3sym import brent
from mm3sym.catalog import matmul_tensor
from mm3sym.tensors import Tensor


def capture(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_orbit_sum_worked_example():
    code, text = capture(
        ["orbit-sum", "--type", "27", "--params", "1,2,3,4,5", "--gamma"])
    assert code == 0
    assert text == ("318*g1 + 214*g2 + 32*g3 - 32*g4 + 32*g5 + 174*g6 "
                    "- 40*g7 + 40*g8\n")


def test_orbit_sum_symbolic_and_full():
    code, text = capture(["orbit-sum", "--type", "7"])
    assert code == 0
    assert text == "a*g1 + a*g2 + a*g6\n"
    code, text = capture(["orbit-sum", "--type", "7", "--full"])
    assert code == 0
    t = Tensor.loads(text)
    assert len(t) == 3 + 18 + 6


def test_classes_output():
    code, text = capture(["classes"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 12
    assert lines[0] == "Q1: size 3, representative e(11,11,11)"
    assert lines[8] == "Q9: size 6, representative e(12,23,31)"


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


def test_multisets():
    code, text = capture(["multisets", "--max-length", "4"])
    assert code == 0
    assert text.splitlines() == ["5", "5,7", "6", "6,6", "6,7", "6,7,7",
                                 "7", "7,7", "7,7,7", "7,7,7,7", "9"]


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


def test_brent_usage_errors():
    code, _ = capture(["brent", "--mode", "generic"])
    assert code == 2
    code, _ = capture(["brent", "--mode", "invariant"])
    assert code == 2


def test_nonpositive_sizes_are_usage_errors():
    for argv in (["verify", "--max-length", "0"],
                 ["multisets", "--max-length", "0"],
                 ["brent", "--mode", "generic", "--rank", "0"]):
        code, text = capture(argv)
        assert code == 2, argv
        assert text == ""


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


def test_act(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(matmul_tensor().dumps())
    code, text = capture(["act", "--g", "a=(perm=(231),signs=+--);b=rho*sigma",
                          "--in", str(path)])
    assert code == 0
    assert Tensor.loads(text) == matmul_tensor()  # the target is invariant


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
    code, _ = capture(["frobnicate"])
    assert code == 2
    code, _ = capture(["orbit-sum"])
    assert code == 2


def test_determinism():
    for argv in (["classes"],
                 ["multisets", "--max-length", "6"],
                 ["brent", "--mode", "invariant", "--types", "24,9,7"],
                 ["verify", "--max-length", "7", "--report", "json"]):
        assert capture(argv) == capture(argv)
