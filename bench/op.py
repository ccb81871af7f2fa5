"""Run one benchmark operation in a fresh interpreter.

    python3 bench/op.py SPEC

SPEC is a JSON object:
  kind     "setup" (set up only), "catalog" (verify_catalog()),
           "cli" (one or more mm3sym.cli.run calls) or "roundtrip"
           (re-export a parsed system file, untimed)
  calls    for "cli": [[argv, stdout path], ...]
  out      for "catalog": path for the report; for "roundtrip": the
           system file to parse
  profile  optional path: profile the operation with cProfile and
           write the statistics there
  result   path for this process's measurements, as JSON

The process first imports mm3sym and builds what every command shares
(the families, the 12 classes, the group elements); that is setup_s.
The operation is timed after it, so no table built by an earlier
operation is ever reused.
"""

import json
import resource
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    if spec.get("profile"):
        import cProfile
        profiler = cProfile.Profile(builtins=False)
    else:
        profiler = None

    start = time.perf_counter()
    from mm3sym import catalog, cli, group, invariants
    catalog.all_families()
    invariants.compute_classes()
    group.enumerate_group("G")
    result = {"setup_s": time.perf_counter() - start}

    kind = spec["kind"]
    if kind == "roundtrip":
        from mm3sym import brent
        with open(spec["out"]) as fh:
            text = fh.read()
        result["roundtrip"] = brent.export(brent.parse_system(text), "json") == text
    elif kind in ("catalog", "cli"):
        outs = [open(path, "w") for _, path in spec.get("calls", [])]
        try:
            if profiler:
                profiler.enable()
            start = time.perf_counter()
            if kind == "catalog":
                report = catalog.verify_catalog()
                codes = [0]
            else:
                codes = [cli.run(argv, out=fh)
                         for (argv, _), fh in zip(spec["calls"], outs)]
                for fh in outs:
                    fh.flush()
            result["op_s"] = time.perf_counter() - start
            if profiler:
                profiler.disable()
                profiler.dump_stats(spec["profile"])
        finally:
            for fh in outs:
                fh.close()
        result["codes"] = codes
        if kind == "catalog":
            with open(spec["out"], "w") as fh:
                json.dump({str(k): v for k, v in report.items()}, fh)
    elif kind != "setup":
        raise SystemExit(f"unknown operation kind {kind!r}")

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
