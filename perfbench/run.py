#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the library sources of
the checkout plus the harness) into .bench_build/ on first use, runs the
workload in its own process, checks its outputs, and prints as the last
stdout line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Exits non-zero without a result line when the benchmark cannot
be built or run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "lcda_perfbench")
WORKLOADS = ["lcda-paper", "store-warm"]
TRACE_CHECKER = os.path.join("tools", "check_trace_events.py")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def declared_metrics():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


def build():
    """Configure (once) and build the harness; quiet unless it fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def recorded_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds):
    """Runs the harness for one workload; returns its report dict."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: harness exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: harness printed no report")
    return report


def gate(report, workload, seed):
    """Checks the harness cannot make itself: the recorded digest of the
    default seed and the Chrome trace format. Returns the problems found."""
    problems = []
    digests = recorded_digests()
    if seed == digests["default_seed"]:
        want = digests["digests"][workload]
        if report["digest"] != want:
            problems.append(f"digest {report['digest']} differs from the "
                            f"recorded {want} for seed {seed}")
    if not os.path.exists(TRACE_CHECKER):
        problems.append(f"{TRACE_CHECKER} not found")
    else:
        check = subprocess.run([sys.executable, TRACE_CHECKER,
                                report["trace_file"]],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True)
        print("note trace: " + check.stdout.strip())
        if check.returncode != 0:
            problems.append("Chrome trace fails " + TRACE_CHECKER)
    return problems


def result_line(report, trace, problems):
    """The contract line: the harness's counts plus this script's checks,
    each check that failed counted as one failed operation."""
    e2e_names, layer_names = declared_metrics()
    source = report["per_layer"] if trace else report["end_to_end"]
    names = layer_names if trace else e2e_names
    missing = [n for n in names if n not in source]
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))
    for p in problems:
        print(f"perfbench: FAIL {p}", file=sys.stderr)
    return {
        "correct": bool(report["correct"]) and not problems,
        "attempted": int(report["attempted"]) + len(problems),
        "failed": int(report["failed"]) + len(problems),
        "metrics": {n: source[n] for n in names if n in source},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "core", "loop.cpp")):
        fail("run from the root of a checkout: library sources not found")
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        print(f"== {workload} (seed {args.seed})")
        report = run_workload(workload, args.seed, args.seconds)
        problems = gate(report, workload, args.seed)
        results[workload] = result_line(report, args.trace, problems)
        for name, m in results[workload]["metrics"].items():
            print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        out = results[workloads[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
