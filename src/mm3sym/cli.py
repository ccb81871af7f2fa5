"""Command-line front end.

Exit codes: 0 success (or theorem verified / solution satisfies), 1 a
check failed or a survivor was found, 2 usage error, 3 I/O or parse
error.  All output orderings are fixed, so identical invocations
produce byte-identical output.
"""

import argparse
import functools
import json
import sys

from .poly import _Memo, parse_cyclotomic
from .tensors import Tensor
from . import group
from .invariants import (
    CLASS_REPRESENTATIVES, compute_classes, gamma_to_tensor, orbit_sum,
)
from .catalog import get_family, CatalogError
from . import prover
from . import brent

__all__ = ["run", "entry"]

RULE_NOTES = {
    prover.REDUCIBLE: "orbit sums replaceable by at most 6 shorter tensors",
    prover.GAMMA_9_12: "forces equal g9..g12 coordinates, target has (1,0,0,0)",
    prover.DIAGONAL_OR_GAMMA_TABLE:
        "diagonal entries or the g9..g12 sign table rule out the sum",
    prover.E_11_12_21: "the e(11,12,21) class coordinate cannot reach 1",
    prover.GAMMA_3_EQ_5: "forces equal g3 and g5 coordinates, target has (1,0)",
}


class UsageError(Exception):
    pass


def _require_positive(value, flag):
    if value < 1:
        raise UsageError(f"{flag} must be >= 1")


def _parse_scalars(text):
    return [parse_cyclotomic(s) for s in text.split(",")]


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key that occurs twice, whose
    value json.loads would otherwise take from the last occurrence."""
    rec = {}
    for k, v in pairs:
        if k in rec:
            raise ValueError(f"JSON object repeats the key {k!r}")
        rec[k] = v
    return rec


def _write(path, data, out):
    if path is None:
        out.write(data)
    else:
        with open(path, "w") as fh:
            fh.write(data)


# certificates per write of the JSON report, so that the whole report is
# never one string
_REPORT_BLOCK = 1024


def _write_json_report(report, out):
    """Write the report as json.dumps(rec, indent=1) + "\n", byte for
    byte.  With indent set, the stdlib encodes in pure Python, so only
    the head goes through it; the certificates are written directly, a
    block of them at a time, and each distinct rule/identities tail is
    built once from the C-encoded strings."""
    rec = {
        "max_length": report.max_length,
        "verified": report.verified,
        "multisets": len(report.certificates) + len(report.survivors),
        "rule_counts": report.rule_counts,
        "survivors": [list(m) for m in report.survivors],
        "facts": dict(sorted(report.facts.items())),
    }
    # the head without its closing brace
    out.write(json.dumps(rec, indent=1)[:-2] + ',\n "certificates": ')
    certificates = report.certificates
    if not certificates:
        out.write("[]\n}\n")
        return
    tails = {}
    # the few distinct ids and fact names, each encoded once
    ids = _Memo(str).__getitem__
    names = _Memo(json.dumps).__getitem__
    for start in range(0, len(certificates), _REPORT_BLOCK):
        items = []
        for c in certificates[start:start + _REPORT_BLOCK]:
            key = c.rule, c.identities
            tail = tails.get(key)
            if tail is None:
                # the pair as it sits at a certificate's indent 3
                cited = ",\n    ".join(map(names, c.identities))
                tail = tails[key] = (
                    f'   "rule": {json.dumps(c.rule)},\n   "identities": '
                    + (f"[\n    {cited}\n   ]" if cited else "[]") + "\n  }")
            items.append('  {\n   "multiset": [\n    '
                         + ",\n    ".join(map(ids, c.multiset))
                         + "\n   ],\n" + tail)
        out.write(("[\n" if start == 0 else ",\n") + ",\n".join(items))
    out.write("\n ]\n}\n")


def _cmd_verify(args, out):
    if not 1 <= args.max_length <= prover.MAX_LENGTH:
        raise UsageError(f"--max-length must be between 1 and {prover.MAX_LENGTH}")
    report = prover.verify_theorem(args.max_length)
    if args.report == "json":
        _write_json_report(report, out)
    else:
        out.write(report.summary() + "\n")
        out.write("certificates by rule:\n")
        for rule in prover.RULES:
            out.write(f"  {rule}: {report.rule_counts[rule]}"
                      f"  ({RULE_NOTES[rule]})\n")
        out.write(f"verified facts: {len(report.facts)}\n")
        for name, statement in sorted(report.facts.items()):
            out.write(f"  [{name}] {statement}\n")
        for m in report.survivors:
            out.write(f"SURVIVOR: {list(m)}\n")
    return 0 if report.verified else 1


def _cmd_orbit_sum(args, out):
    if args.params is None:
        v = prover.gamma_row(args.type)
    else:
        # at a degenerate point the orbit is shorter than the family's
        w = get_family(args.type).tensor(_parse_scalars(args.params))
        v = orbit_sum(w, len(group.orbit_transversal(w)[0]))
    if args.full:
        out.write(gamma_to_tensor(v).dumps() + "\n")
    else:
        out.write(str(v) + "\n")
    return 0


def _cmd_classes(args, out):
    for cid, (cls, rep) in enumerate(
            zip(compute_classes(), CLASS_REPRESENTATIVES), start=1):
        (i1, j1), (i2, j2), (i3, j3) = rep
        out.write(f"Q{cid}: size {len(cls)}, "
                  f"representative e({i1}{j1},{i2}{j2},{i3}{j3})\n")
    return 0


def _cmd_multisets(args, out):
    _require_positive(args.max_length, "--max-length")
    for m, _ in prover.walk_multisets(args.max_length):
        out.write(",".join(map(str, m)) + "\n")
    return 0


def _cmd_brent(args, out):
    if args.mode == "generic":
        if args.rank is None:
            raise UsageError("--mode generic requires --rank")
        if args.types is not None:
            raise UsageError("--types applies only to --mode invariant")
        _require_positive(args.rank, "--rank")
        system = brent.generic_system(args.rank)
    else:
        if args.types is None:
            raise UsageError("--mode invariant requires --types")
        if args.rank is not None:
            raise UsageError("--rank applies only to --mode generic")
        try:
            multiset = tuple(int(s) for s in args.types.split(","))
        except ValueError:
            raise UsageError(f"--types must be comma-separated family ids, "
                             f"not {args.types!r}") from None
        system = brent.invariant_system(multiset)
    _write(args.out, brent.export(system, args.format), out)
    return 0


def _cmd_check_solution(args, out):
    system = brent.parse_system(_read(args.system))
    rec = json.loads(_read(args.assignment), object_pairs_hook=_unique_keys)
    if not isinstance(rec, dict):
        raise ValueError("assignment JSON must be an object")
    # solutions repeat a few values, so each distinct text is parsed once
    values = _Memo(parse_cyclotomic)
    assignment = {k: values[str(v)] for k, v in rec.items()}
    ok, failing = brent.check_solution(system, assignment)
    if ok:
        out.write("SOLUTION OK\n")
        return 0
    out.write(f"SOLUTION FAILS {len(failing)} equations\n")
    for label in failing:
        out.write(f"  {label}\n")
    return 1


def _cmd_act(args, out):
    g = group.parse_element(args.g)
    t = Tensor.loads(_read(args.infile))
    out.write(group.act_on_tensor(g, t).dumps() + "\n")
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args leaves
    it unchanged, so every run shares it."""
    p = argparse.ArgumentParser(
        prog="mm3sym",
        description="Exact symbolic toolkit for symmetric decompositions "
                    "of the 3x3 matrix multiplication tensor.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full non-existence proof")
    v.add_argument("--max-length", type=int, default=prover.MAX_LENGTH)
    v.add_argument("--report", choices=("text", "json"), default="text")
    v.set_defaults(fn=_cmd_verify)

    o = sub.add_parser("orbit-sum", help="orbit sum of a catalog family")
    o.add_argument("--type", type=int, required=True)
    o.add_argument("--params", help="comma-separated scalar values")
    o.add_argument("--full", action="store_true",
                   help="print the full tensor instead of gamma coordinates")
    o.set_defaults(fn=_cmd_orbit_sum)

    c = sub.add_parser("classes", help="the 12 classes of even indices")
    c.set_defaults(fn=_cmd_classes)

    m = sub.add_parser("multisets", help="type multisets up to a length")
    m.add_argument("--max-length", type=int, required=True)
    m.set_defaults(fn=_cmd_multisets)

    b = sub.add_parser("brent", help="generate an equation system")
    b.add_argument("--mode", choices=("generic", "invariant"), required=True)
    b.add_argument("--rank", type=int)
    b.add_argument("--types", help="comma-separated family ids")
    b.add_argument("--format", choices=("json", "text", "m2"), default="json")
    b.add_argument("--out", help="output path (default stdout)")
    b.set_defaults(fn=_cmd_brent)

    s = sub.add_parser("check-solution", help="test an assignment")
    s.add_argument("--system", required=True)
    s.add_argument("--assignment", required=True)
    s.set_defaults(fn=_cmd_check_solution)

    a = sub.add_parser("act", help="apply a group element to a tensor")
    a.add_argument("--g", required=True, help="group element syntax")
    a.add_argument("--in", dest="infile", required=True,
                   help="tensor JSON path, - for stdin")
    a.set_defaults(fn=_cmd_act)
    return p


def run(argv=None, out=None):
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args, out)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, CatalogError,
            brent.BrentError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except prover.ProofError as exc:
        print(f"error: proof check failed: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(run())


if __name__ == "__main__":
    entry()
