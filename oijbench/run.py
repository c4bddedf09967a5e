#!/usr/bin/env python3
"""The repository benchmark: one workload, one run.

    python3 oijbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `oijbench` package (into $CARGO_TARGET_DIR, by default
`.bench_build` at the repository root), runs each leg of the workload as
a process of its own, checks every output against the oracle, and prints
a table of every metric followed, on the last line, by one JSON object:
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the `end_to_end` metrics of BENCHMARK.json, with `--trace 1`
its `per_layer` metrics. The full report, with the host fingerprint, and
the traced run's spans go to `.bench_out/`.

Exits 0 on a correct run, 1 when any output diverges from the oracle or
a leg fails, and 2 when the benchmark cannot run at all (no result line).
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A leg may overrun its share of --seconds by this much before it is
# killed and counted as failed.
LEG_GRACE_S = 45.0
# Untimed runs take every timed leg this many times, spread over the
# run, so that no single process or stretch of time sets a median.
ROUNDS = 4


def die(msg):
    print(f"oijbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        die(f"build failed ({' '.join(cmd)})")


def fingerprint(joiners, seed):
    """The host a result was measured on. Results from two different
    fingerprints are never compared (see compare.py)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": rustc,
        "joiners": joiners,
        "seed": seed,
    }


def run_leg(binary, args, leg, seconds, rnd, out):
    """Runs one leg; returns (report, the process's peak resident set in
    MiB, its inputs included)."""
    stdout_path = os.path.join(out, f"leg-{os.getpid()}-{leg}.out")
    cmd = [
        binary, "leg", "--workload", args.workload, "--leg", leg, "--seed", str(args.seed),
        "--round", str(rnd), "--seconds", repr(seconds), "--trace", str(args.trace), "--out", out,
    ]
    deadline = time.monotonic() + seconds + LEG_GRACE_S
    with open(stdout_path, "w") as stdout:
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout)
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                child.send_signal(signal.SIGKILL)
                pid, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.02)
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as f:
        lines = f.read().strip().splitlines()
    os.remove(stdout_path)
    rss_mib = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if child.returncode != 0 or not lines:
        return None, rss_mib
    return json.loads(lines[-1]), rss_mib


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (args.seconds > 0 and args.seed >= 0):
        die("--seconds must be positive and --seed non-negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(env)
    binary = os.path.join(target, "release", "oijbench")
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)

    plan = subprocess.run(
        [binary, "plan", "--workload", args.workload, "--trace", str(args.trace)],
        capture_output=True, text=True,
    )
    if plan.returncode != 0:
        die(f"no plan for workload '{args.workload}': {plan.stderr.strip()}")
    lines = [line.split() for line in plan.stdout.splitlines()]
    host = fingerprint(int(lines[0][1]), args.seed)
    legs = [(name, float(share)) for name, share in lines[1:]]
    rounds = 1 if args.trace else ROUNDS
    # The oracle gate once, then the timed legs round by round.
    schedule = [("verify", 0.0, 0)] + [
        (leg, share * args.seconds / rounds, rnd) for rnd in range(rounds) for leg, share in legs
    ]

    metrics, units, samples = {}, {}, {}
    attempted = failed = 0
    errors, notes, rss = [], [], {}
    for leg, seconds, rnd in schedule:
        report, peak = run_leg(binary, args, leg, seconds, rnd, out)
        rss.setdefault(leg, []).append(peak)
        if report is None:
            errors.append(f"leg {leg} crashed or timed out")
            continue
        attempted += report["attempted"]
        failed += report["failed"]
        errors += report["errors"]
        notes += [f"{leg}: {n}" for n in report["notes"]]
        for name, m in report["metrics"].items():
            # Worst over processes (proc.threads_peak and the generator
            # lags are reported by more than one).
            metrics[name] = max(m["value"], metrics.get(name, m["value"]))
            units[name] = m["unit"]
        for name, m in report["samples"].items():
            samples.setdefault(name, []).extend(m["values"])
            units[name] = m["unit"]
    for name, values in samples.items():
        metrics[name] = statistics.median(values)
    if len(samples.get("peak_rss_mb", [])) >= 2:
        # The upper quartile, not the median: for stretches of a second
        # the pushing thread runs no faster than the joiner, no backlog
        # forms, and up to half of a run's memory passes barely grow.
        metrics["peak_rss_mb"] = statistics.quantiles(samples["peak_rss_mb"], n=4)[2]
    metrics["failed_ratio"], units["failed_ratio"] = failed / max(attempted, 1), "ratio"

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        errors.append("metrics not measured: " + ", ".join(missing))
    correct = not errors and failed == 0

    print(f"# oijbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    for name in sorted(metrics):
        n = f"of {len(samples[name])} samples" if name in samples else ""
        print(f"  {name:<34} {metrics[name]:>16.6g} {units[name]:<9} {n}")
    for leg, peaks in rss.items():
        print(f"  leg {leg:<30} {max(peaks):>16.1f} MiB process peak, inputs included")
    print(f"# attempted {attempted} base tuples, failed {failed}")
    for n in notes:
        print(f"# note: {n}")
    for e in errors:
        print(f"# error: {e}")

    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], -1.0), "unit": m["unit"]} for m in declared
        },
    }
    full = {"host": host, "workload": args.workload, "trace": args.trace, "result": result,
            "all_metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "samples": samples,
            "errors": errors, "notes": notes}
    name = f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out, name), "w") as f:
        json.dump(full, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
