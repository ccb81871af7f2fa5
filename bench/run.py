"""The mm3sym benchmark.

    python3 bench/run.py --workload prove|catalog|brent --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Every operation runs through
mm3sym's public entry points (mm3sym.cli.run, or verify_catalog() for
the catalog) in a fresh interpreter of its own, so that no cached table
carries over from one timed operation to the next.  The run repeats
whole rounds of its workload's operations, one process at a time,
until S seconds have passed, and checks every output against
computations made apart from the program (oracles.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (round_s, setup_s, peak_rss_mb); with --trace 1
each operation runs under cProfile and the metrics are per layer, one
layer per mm3sym module.  See README.md in this directory.
"""

import argparse
import ast
import json
import os
import pstats
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CATALOG_JSON = SRC / "mm3sym" / "data" / "catalog.json"

MAX_LENGTH = 23         # the proof's length budget
SETUP_PROBES = 4        # set-up-only interpreters started in every round
SAMPLE_SIZE = 50        # multisets per round of the brent workload
PERTURBED = 2           # entries moved off the dense solution, each by
DENSE_RANGE = 3         # a + b*i with -3 <= a, b <= 3, not both 0
PARAM_RANGE = 9         # oracle parameters: nonzero integers in [-9, 9]
CHILD_TIMEOUT_S = 170
ROUND_LIMIT_S = 150     # start no round that would end after this

END_TO_END = {"round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics read from cProfile statistics, keyed by
# (module, function name)
CALL_COUNTS = {
    ("cyclotomic", "__mul__"): "cyclotomic.mul_calls",
    ("cyclotomic", "inv"): "cyclotomic.inv_calls",
    ("fractions", "__new__"): "cyclotomic.fraction_new_calls",
    ("poly", "__mul__"): "poly.mul_calls",
    ("poly", "__add__"): "poly.add_calls",
    ("poly", "substitute"): "poly.substitute_calls",
    ("poly", "parse_polynomial"): "poly.parse_calls",
    ("tensors", "__add__"): "tensors.add_calls",
    ("tensors", "__hash__"): "tensors.hash_calls",
    ("tensors", "tensor_from_factors"): "tensors.from_factors_calls",
    ("group", "act_on_index"): "group.act_on_index_calls",
    ("group", "act_on_tensor"): "group.act_on_tensor_calls",
    ("invariants", "project"): "invariants.project_calls",
    ("catalog", "tensor"): "catalog.tensor_calls",
}
CUMULATIVE_TIMES = {
    ("group", "orbit_of"): "group.orbit_of_s",
    ("prover", "gamma_table"): "prover.gamma_table_s",
    ("prover", "check_replacement"): "prover.check_replacement_s",
    ("prover", "check_gamma9_12"): "prover.check_gamma9_12_s",
    ("prover", "check_sign_table"): "prover.check_sign_table_s",
    ("prover", "check_e_class"): "prover.check_e_class_s",
    ("prover", "check_final"): "prover.check_final_s",
    ("brent", "generic_system"): "brent.generic_system_s",
    ("brent", "export"): "brent.export_s",
    ("brent", "parse_system"): "brent.parse_system_s",
    ("brent", "check_solution"): "brent.check_solution_s",
    ("brent", "invariant_system"): "brent.invariant_system_s",
}
SELF_TIMES = ("cyclotomic", "poly", "tensors", "group", "invariants",
              "catalog", "fractions")
PROOF_STEPS = ("check_replacement", "check_gamma9_12", "check_sign_table",
               "check_e_class", "check_final")
PER_LAYER = (
    [f"{m}.self_s" for m in SELF_TIMES] + list(CALL_COUNTS.values())
    + list(CUMULATIVE_TIMES.values()) + ["prover.certify_s", "cli.self_s"])


class Op:
    """One timed operation: a fresh interpreter running either
    verify_catalog() or a list of CLI calls, and the check of its
    output.  check(codes) returns a list of problems."""

    def __init__(self, name, kind, check, calls=(), out=None):
        self.name, self.kind, self.check = name, kind, check
        self.calls, self.out = [list(c) for c in calls], out


class Run:
    def __init__(self, args):
        self.trace = bool(args.trace)
        self.work = BENCH / "work" / f"{args.workload}-{args.seed}-{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.families = oracles.load_catalog(CATALOG_JSON)
        self.lengths = {fid: rec["length"] for fid, rec in self.families.items()}
        self.children = 0
        self.problems = []

    def path(self, name):
        return str(self.work / name)

    def child(self, name, kind, **spec):
        """Start op.py, wait for it and return its measurements, or
        None if it did not finish."""
        self.children += 1
        ident = f"{self.children:04d}-{name}"
        spec.update(kind=kind, result=self.path(f"{ident}.result.json"))
        if self.trace and kind in ("cli", "catalog"):
            spec["profile"] = self.path(f"{ident}.prof")
        with open(self.path(f"{ident}.log"), "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "op.py"), json.dumps(spec)],
                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                    stdout=log, stderr=log, timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"{ident}: timed out", file=sys.stderr)
                return None
        if proc.returncode != 0:
            print(f"{ident}: exit {proc.returncode}, see {log.name}",
                  file=sys.stderr)
            return None
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result["profile"] = spec.get("profile")
        return result

    def fail(self, what, problems):
        for p in problems[:5]:
            self.problems.append(f"{what}: {p}")


# -- prove -----------------------------------------------------------

def prove_ops(run, rng):
    out = run.path("verify.json")
    count = oracles.count_multisets(run.lengths, MAX_LENGTH)

    def check(codes):
        problems = [] if codes == [0] else [f"exit codes {codes}"]
        with open(out) as fh:
            rec = json.load(fh)
        if rec["verified"] is not True or rec["survivors"]:
            problems.append("not verified")
        if rec["multisets"] != count or len(rec["certificates"]) != count:
            problems.append(f"{rec['multisets']} multisets and "
                            f"{len(rec['certificates'])} certificates, "
                            f"expected {count}")
        facts, seen, rules = rec["facts"], set(), Counter()
        for cert in rec["certificates"]:
            m = tuple(cert["multiset"])
            if not m or list(m) != sorted(m) or m in seen or any(
                    f not in run.lengths for f in m) or sum(
                    run.lengths[f] for f in m) > MAX_LENGTH:
                problems.append(f"bad multiset {list(m)}")
            seen.add(m)
            missing = [i for i in cert["identities"] if i not in facts]
            if missing:
                problems.append(f"{list(m)} cites unverified {missing[:3]}")
            rules[cert["rule"]] += 1
        if sum(rec["rule_counts"].values()) != count or rules != Counter(
                {r: n for r, n in rec["rule_counts"].items() if n}):
            problems.append(f"rule counts {rec['rule_counts']}")
        return problems

    argv = ["verify", "--max-length", str(MAX_LENGTH), "--report", "json"]
    return [Op("verify", "cli", check, calls=[(argv, out)])], None


# -- catalog ---------------------------------------------------------

def catalog_ops(run, rng):
    out = run.path("catalog.json")

    def check(codes):
        with open(out) as fh:
            report = {int(k): v for k, v in json.load(fh).items()}
        if sorted(report) != sorted(run.lengths):
            return [f"families {sorted(report)}"]
        problems = []
        for fid, length in sorted(run.lengths.items()):
            got = report[fid]
            if got["length"] != length or got["length"] * got["stabilizer"] != 144:
                problems.append(f"family {fid}: {got}, catalog length {length}")
        return problems

    return [Op("catalog", "catalog", check, out=out)], None


# -- brent -----------------------------------------------------------

def check_generic_system(text, rank):
    rec = json.loads(text)
    problems = []
    variables = oracles.brent_variables(rank)
    if (rec.get("mode"), rec.get("rank")) != ("generic", rank) or sorted(
            rec["variables"]) != sorted(variables):
        problems.append(f"mode {rec.get('mode')}, rank {rec.get('rank')}, "
                        f"{len(rec['variables'])} variables")
    labels = [tuple(tuple(p) for p in eq["label"]) for eq in rec["equations"]]
    if sorted(labels) != sorted(oracles.generic_labels()):
        problems.append(f"{len(labels)} equations, not the 729 indices")
    target = oracles.matmul_support()
    for label, eq in zip(labels, rec["equations"]):
        if sorted(eq["lhs"].split(" + ")) != sorted(
                oracles.generic_terms(label, rank)):
            problems.append(f"equation {label}: lhs {eq['lhs'][:60]}...")
        if eq["rhs"] != ("1" if label in target else "0"):
            problems.append(f"equation {label}: rhs {eq['rhs']}")
    return problems


def gaussian_str(a, b):
    return f"{a} + {b}*i" if b >= 0 else f"{a} - {-b}*i"


def brent_ops(run, rng):
    generic = run.path("generic23.json")
    system27 = run.path("generic27.json")
    trivial, dense = run.path("trivial.json"), run.path("dense.json")
    with open(system27, "w") as fh:
        fh.write(oracles.generic_system_json(27))
    with open(trivial, "w") as fh:
        json.dump(oracles.trivial_assignment(), fh)
    # an exact dense solution with PERTURBED entries moved off it, so that
    # some equations hold and some fail
    values = oracles.dense_solution(rng)
    for name in rng.sample(sorted(values), PERTURBED):
        while (delta := (rng.randint(-DENSE_RANGE, DENSE_RANGE),
                         rng.randint(-DENSE_RANGE, DENSE_RANGE))) == (0, 0):
            pass
        values[name] = oracles.g_add(values[name], delta)
    with open(dense, "w") as fh:
        json.dump({k: gaussian_str(*v) for k, v in values.items()}, fh)
    predicted = oracles.brent_residual_labels(values, 27)
    sample = rng.sample(oracles.enumerate_multisets(run.lengths, MAX_LENGTH),
                        SAMPLE_SIZE)
    gammas, params = invariant_oracle(run, rng, sample)

    def check_generic(codes):
        with open(generic) as fh:
            return ([] if codes == [0] else [f"exit codes {codes}"]) + \
                check_generic_system(fh.read(), 23)

    def check_solution(out, expected):
        def check(codes):
            with open(out) as fh:
                lines = fh.read().splitlines()
            if not expected:
                return [] if (codes, lines) == ([0], ["SOLUTION OK"]) else [
                    f"exit codes {codes}, output {lines[:2]}"]
            head = f"SOLUTION FAILS {len(expected)} equations"
            if codes != [1] or lines[:1] != [head]:
                return [f"exit codes {codes}, output {lines[:1]}, "
                        f"expected {head!r}"]
            got = [ast.literal_eval(line.strip()) for line in lines[1:]]
            return [] if got == expected else [
                f"{len(got)} failing labels, the oracle predicts "
                f"{len(expected)}; differing: "
                f"{sorted(set(got) ^ set(expected))[:3]}"]
        return check

    invariant_calls = [
        (["brent", "--mode", "invariant", "--types", ",".join(map(str, m)),
          "--format", "m2"], run.path(f"invariant-{k:02d}.m2"))
        for k, m in enumerate(sample)]

    def check_invariant(codes):
        problems = [] if set(codes) == {0} else [f"exit codes {codes}"]
        for m, (_, out) in zip(sample, invariant_calls):
            with open(out) as fh:
                problems += [f"{list(m)}: {p}" for p in check_invariant_system(
                    run, fh.read(), m, gammas, params)]
        return problems

    def finish():
        """export(parse_system(F)) == F for the generated rank-23 system,
        so parse_system(export(s)) == s for the system s it holds."""
        result = run.child("roundtrip", "roundtrip", out=generic)
        if result is None or not result["roundtrip"]:
            run.fail("roundtrip", ["export(parse_system(F)) != F"])

    triv_out, dense_out = run.path("trivial.out"), run.path("dense.out")
    return [
        Op("brent_generic", "cli", check_generic, calls=[(
            ["brent", "--mode", "generic", "--rank", "23", "--format",
             "json", "--out", generic], run.path("generic.out"))]),
        Op("check_solution", "cli", check_solution(triv_out, []), calls=[(
            ["check-solution", "--system", system27, "--assignment",
             trivial], triv_out)]),
        Op("check_dense", "cli", check_solution(dense_out, predicted),
           calls=[(["check-solution", "--system", system27,
                    "--assignment", dense], dense_out)]),
        Op("brent_invariant", "cli", check_invariant, calls=invariant_calls),
    ], finish


def invariant_oracle(run, rng, sample):
    """Random nonzero integer parameters for the k-th occurrence of each
    family in a multiset, and the gamma coordinates of the family's orbit
    sum there, by direct summation over its orbit."""
    gammas, params = {}, {}
    for m in sample:
        for key in occurrences(m):
            if key in gammas:
                continue
            rec = run.families[key[0]]
            while True:
                values = {letter: rng.choice([v for v in range(
                    -PARAM_RANGE, PARAM_RANGE + 1) if v])
                    for letter in rec["params"]}
                images = oracles.orbit(oracles.family_tensor(
                    rec, {k: oracles.q(v) for k, v in values.items()}))
                if len(images) == rec["length"]:   # not a degenerate point
                    break
            gammas[key] = oracles.gamma_by_orbit_summation(images)
            params[key] = values
    return gammas, params


def occurrences(m):
    """(family, its occurrence number so far) for each slot of m."""
    seen = Counter()
    out = []
    for fid in m:
        seen[fid] += 1
        out.append((fid, seen[fid]))
    return out


def check_invariant_system(run, text, m, gammas, params):
    variables, equations = oracles.parse_m2(text)
    point, expected_vars = {}, []
    want = [oracles.ZERO] * 12
    for slot, key in enumerate(occurrences(m), start=1):
        for letter in run.families[key[0]]["params"]:
            expected_vars.append(f"{letter}{slot}")
            point[f"{letter}{slot}"] = params[key][letter]
        want = [oracles.q_add(a, b) for a, b in zip(want, gammas[key])]
    if variables != expected_vars:
        return [f"ring variables {variables}, expected {expected_vars}"]
    if len(equations) != 12:
        return [f"{len(equations)} equations"]
    env = {name: oracles.q(v) for name, v in point.items()}
    env["ww"] = oracles.W
    problems = []
    for k, ((lhs, rhs), w) in enumerate(zip(equations, want), start=1):
        if oracles.evaluate(rhs, {}) != (oracles.ONE if k in (1, 3, 9)
                                         else oracles.ZERO):
            problems.append(f"gamma_{k}: right-hand side {rhs}")
        if oracles.evaluate(lhs, env) != w:
            problems.append(f"gamma_{k}: left-hand side {lhs[:60]} at "
                            f"{point} is not the orbit sum's {w}")
    return problems


# each returns the operations of one round and an untimed check to run
# after the last round, or None
WORKLOADS = {"prove": prove_ops, "catalog": catalog_ops, "brent": brent_ops}

# -- metrics ---------------------------------------------------------


def module_of(filename):
    path = Path(filename)
    if path.parent.name == "mm3sym" and path.suffix == ".py":
        return path.stem
    if path.name == "fractions.py":
        return "fractions"
    return None


def layer_metrics(profile):
    """Per-layer metrics of one profiled operation."""
    out = dict.fromkeys(PER_LAYER, 0)
    stats = pstats.Stats(profile).stats
    cumulative = Counter()
    cli_calls_out = 0.0
    for (filename, _, fn), (_, nc, tt, ct, callers) in stats.items():
        module = module_of(filename)
        if module is None:
            continue
        if module in SELF_TIMES:
            out[f"{module}.self_s"] += tt
        if (module, fn) in CALL_COUNTS:
            out[CALL_COUNTS[module, fn]] += nc
        if (module, fn) in CUMULATIVE_TIMES:
            out[CUMULATIVE_TIMES[module, fn]] += ct
        cumulative[module, fn] += ct
        if module not in ("cli", "fractions"):
            cli_calls_out += sum(c[3] for caller, c in callers.items()
                                 if module_of(caller[0]) == "cli")
    out["prover.certify_s"] = cumulative["prover", "verify_theorem"] - sum(
        cumulative["prover", step] for step in PROOF_STEPS)
    out["cli.self_s"] = cumulative["cli", "run"] - cli_calls_out
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "mm3sym" / "__init__.py").is_file() or not CATALOG_JSON.is_file():
        print(f"error: no mm3sym source tree at {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2

    run = Run(args)
    ops, finish = WORKLOADS[args.workload](run, random.Random(args.seed))
    if run.child("warmup", "setup") is None:   # compiles the modules once
        print("error: mm3sym does not import", file=sys.stderr)
        return 1

    rounds = []          # per round: {op name: result or None}, probes
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        done, probes = {}, []
        for op in ops:
            result = run.child(op.name, op.kind, calls=op.calls, out=op.out)
            attempted += 1
            if result is None or max(result["codes"]) >= 2:
                failed += 1      # crashed, timed out, or a usage/I-O error
                done[op.name] = None
                continue
            try:
                problems = op.check(result["codes"])
            except (ValueError, KeyError, TypeError, IndexError,
                    SyntaxError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            run.fail(op.name, problems)
            done[op.name] = result
        for _ in range(SETUP_PROBES):
            result = run.child("setup", "setup")
            attempted += 1
            failed += result is None
            probes.append(result)
        rounds.append((done, probes))
        now = time.perf_counter()
        if now - start >= args.seconds or (
                now - start + now - round_start > ROUND_LIMIT_S):
            break
    if finish is not None:
        finish()

    per_op = {op.name: [r[op.name]["op_s"] for r, _ in rounds if r[op.name]]
              for op in ops}
    round_sums = [sum(r["op_s"] for r in done.values() if r)
                  for done, _ in rounds]
    if args.trace:
        layers = [Counter() for _ in rounds]
        for total, (done, _) in zip(layers, rounds):
            for r in done.values():
                if r:
                    total.update(layer_metrics(r["profile"]))
        metrics = {
            name: metric(statistics.median(t[name] for t in layers),
                         "s" if name.endswith("_s") else "count")
            for name in PER_LAYER}
    else:
        setups = [r["setup_s"] for done, probes in rounds
                  for r in list(done.values()) + probes if r]
        rss = [max(r["peak_rss_kb"] for r in done.values() if r) / 1024
               for done, _ in rounds if any(done.values())]
        if not rss:
            print("error: no operation completed", file=sys.stderr)
            return 1
        values = {"round_s": statistics.median(round_sums),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(rss)}
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END.items()}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds of {len(ops)} operations and "
          f"{SETUP_PROBES} set-up probes")
    for name, times in per_op.items():
        if times:
            print(f"  {name}_s = {statistics.median(times):.4f} s "
                  f"(median of {len(times)})")
    print(f"  round wall time of the operations = "
          f"{statistics.median(round_sums):.4f} s")
    for problem in run.problems[:20]:
        print(f"  CHECK FAILED {problem}")
    with open(run.path("summary.json"), "w") as fh:
        json.dump({"per_op_s": per_op, "round_s": round_sums,
                   "problems": run.problems}, fh, indent=1)
    print(json.dumps({"correct": not run.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
