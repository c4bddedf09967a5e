#!/usr/bin/env python3
"""Compares two benchmark reports of the same workload.

    python3 oijbench/compare.py <base report> <new report>

Reports are the `report-<workload>-<seed>-trace<0|1>.json` files that
run.py writes to `.bench_out/`. Each end-to-end metric of BENCHMARK.json
is shown with its change; a change worse than the metric's bound is a
regression (exit 1).

Two reports measured on different hosts are never compared: when the
host fingerprints (cores, CPU model, rustc, joiners per engine) differ,
the script says so and exits 3. A fingerprint mismatch is not a
regression.
"""

import json
import os
import sys

HOST_KEYS = ("nproc", "cpu", "rustc", "joiners")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.load(open(p)) for p in sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))

    differ = [k for k in HOST_KEYS if base["host"].get(k) != new["host"].get(k)]
    if differ:
        print("not compared: the reports come from different hosts "
              "(this is not a regression)")
        for k in differ:
            print(f"  {k}: {base['host'].get(k)!r} vs {new['host'].get(k)!r}")
        return 3
    if base["workload"] != new["workload"] or base["trace"] != new["trace"]:
        print(f"not compared: {base['workload']} trace={base['trace']} vs "
              f"{new['workload']} trace={new['trace']}")
        return 3

    regressed = False
    for m in bench["end_to_end"]:
        name = m["name"]
        a = base["all_metrics"].get(name, {}).get("value")
        b = new["all_metrics"].get(name, {}).get("value")
        if a is None or b is None or a <= 0:
            print(f"  {name:<20} missing")
            continue
        change = (b - a) / a
        worse = -change if m["better"] == "higher" else change
        verdict = "REGRESSED" if worse > m["bound"] else "ok"
        regressed |= verdict == "REGRESSED"
        print(f"  {name:<20} {a:>14.6g} -> {b:<14.6g} {change:+7.1%} {m['unit']:<9} "
              f"(bound {m['bound']:.0%}) {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
