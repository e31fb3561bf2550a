#!/usr/bin/env python3
"""Build and run the streaming-cache benchmark; print and compare metrics.

One workload, one run (the last line of stdout is the result):

    python3 perfbench/run_benchmark.py --workload sim_const --seed 42 \
        --seconds 18 --trace 0

Every workload in BENCHMARK.json, untraced and traced, written as a
result set:

    python3 perfbench/run_benchmark.py [--seed 42] [--out set.json]

Two result sets (or single-run records), one verdict per workload and
end-to-end metric, with the per-layer deltas beside them:

    python3 perfbench/run_benchmark.py --compare PARENT.json CHANGE.json

The program is built from this checkout's sources into .bench_build/
(Release, the repository's own LTO setting). Standard library only.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
TRACES_DIR = os.path.join(BUILD_DIR, "traces")
DEFINITION = os.path.join(ROOT, "BENCHMARK.json")
# Confirm a claimed gain on this seed too: it is not used while a change
# is being written.
HELD_OUT_SEED = 7
# A run measures for --seconds; this bounds the whole process.
RUN_TIMEOUT_S = 170


class BenchmarkError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure once, then build bench_e2e and proxy_daemon."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchmarkError(
            "no CMakeLists.txt in %s: the benchmark builds the program from "
            "the checkout's own sources" % ROOT)
    if shutil.which("cmake") is None:
        raise BenchmarkError("cmake not found")
    configured = any(os.path.isfile(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        command = ["cmake", "-S", PACKAGE_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_tool(command)
    jobs = str(min(4, os.cpu_count() or 1))
    run_tool(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
              "-j", jobs])
    return os.path.join(BUILD_DIR, "bench_e2e")


def run_tool(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            check=False)
    if result.returncode != 0:
        raise BenchmarkError("%s failed with exit code %d"
                             % (" ".join(command[:2]), result.returncode))


def run_workload(exe, workload, seed, seconds, trace):
    """One bench_e2e process; returns its record."""
    command = [exe, "--workload=%s" % workload, "--seed=%d" % seed,
               "--seconds=%s" % seconds, "--trace=%d" % trace]
    if trace:
        os.makedirs(TRACES_DIR, exist_ok=True)
        command.append("--trace-out=%s" % os.path.join(
            TRACES_DIR, "%s-seed%d.tsv" % (workload, seed)))
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise BenchmarkError("%s did not finish in %d s"
                             % (workload, RUN_TIMEOUT_S))
    lines = out.strip().splitlines()
    # Exit 1 still prints a record: some output check failed.
    if process.returncode not in (0, 1) or not lines:
        raise BenchmarkError("bench_e2e --workload=%s exited with %d"
                             % (workload, process.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_value(values, better):
    """One run's value of a metric: the favourable quartile of its
    repetitions. Other tenants of a shared host only ever slow a
    repetition down, and a quartile ignores a slow minority of them
    without resting on the single luckiest one."""
    q1, q3 = quartiles(values)
    return q3 if better == "higher" else q1


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "unknown"


def run_metadata(record):
    build_stamp = record["build"]
    return {
        "commit": git_commit(),
        "build_type": build_stamp["type"],
        "lto": build_stamp["lto"],
        "compiler": build_stamp["compiler"],
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "seed": record["seed"],
        "seconds": record["seconds"],
    }


def summarize(record, definition):
    """The record's metrics: each end-to-end metric's run value (with the
    quartiles and raw values of the untraced repetitions), or the traced
    run's per-layer values."""
    metrics = {}
    if record["trace"]:
        layers = record["layers"]
        for metric in definition["per_layer"]:
            metrics[metric["name"]] = {
                "value": float(layers.get(metric["name"], 0.0)),
                "unit": metric["unit"]}
        return metrics
    for metric in definition["end_to_end"]:
        values = [float(rep[metric["name"]]) for rep in record["reps"]]
        q1, q3 = quartiles(values)
        metrics[metric["name"]] = {
            "value": run_value(values, metric["better"]),
            "unit": metric["unit"], "q1": q1, "q3": q3, "values": values}
    return metrics


def result_of(record, definition):
    return {
        "meta": run_metadata(record),
        "workload": record["workload"],
        "trace": bool(record["trace"]),
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "checks": record["checks"],
        "metrics": summarize(record, definition),
    }


def save(result, name):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


def print_result(result):
    state = "correct" if result["correct"] else "INCORRECT"
    print("%s (%s, seed %d, %s): %d attempted, %d failed"
          % (result["workload"], "traced" if result["trace"] else "untraced",
             result["meta"]["seed"], state, result["attempted"],
             result["failed"]))
    for name, ok in sorted(result["checks"].items()):
        if not ok:
            print("  FAILED check: %s" % name)
    for name, metric in result["metrics"].items():
        spread = ""
        if "values" in metric:
            spread = "  (IQR %.1f%% of median, %d reps)" % (
                100.0 * iqr_share(metric["values"]), len(metric["values"]))
        print("  %-28s %14.6g %-8s%s" % (name, metric["value"],
                                         metric["unit"], spread))


def single_run_mode(args, definition):
    names = [w["name"] for w in definition["workloads"]]
    if args.workload not in names:
        raise BenchmarkError("unknown workload %r (valid: %s)"
                             % (args.workload, ", ".join(names)))
    if args.trace not in ("0", "1"):
        raise BenchmarkError("--trace must be 0 or 1 with --workload")
    trace = int(args.trace)
    exe = build()
    record = run_workload(exe, args.workload, args.seed, args.seconds, trace)
    result = result_of(record, definition)
    save(result, "%s-seed%d-trace%d.json" % (args.workload, args.seed, trace))
    print_result(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def set_mode(args, definition):
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    exe = build()
    results = []
    for workload in definition["workloads"]:
        for trace in traces:
            log("running %s (trace %d, seed %d)" % (workload["name"], trace,
                                                    args.seed))
            record = run_workload(exe, workload["name"], args.seed,
                                  args.seconds, trace)
            result = result_of(record, definition)
            print_result(result)
            results.append(result)
    out = args.out or os.path.join(RESULTS_DIR, "set-seed%d.json" % args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"meta": results[0]["meta"], "results": results}, f,
                  indent=1)
        f.write("\n")
    print("result set written to %s" % out)
    return 0 if all(r["correct"] for r in results) else 1


def load_results(path):
    data = load_json(path)
    return data["results"] if "results" in data else [data]


def iqr_share(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent, change, bound, better):
    """improved / same / regressed / unresolved for one metric, from the
    two runs' repetition values."""
    sign = 1.0 if better == "higher" else -1.0
    p = run_value(parent, better)
    c = run_value(change, better)
    gain = sign * (c - p) / abs(p) if p else 0.0
    spread = max(iqr_share(parent), iqr_share(change))
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if spread > bound:
        return "improved" if all_better else "unresolved", gain
    if gain < -bound:
        return "regressed", gain
    if gain > bound:
        return "improved", gain
    return "same", gain


def compare_mode(args, definition):
    parent = load_results(args.compare[0])
    change = load_results(args.compare[1])
    parent_by = {(r["workload"], r["trace"]): r for r in parent}
    change_by = {(r["workload"], r["trace"]): r for r in change}
    verdicts = []
    print("%-12s %-18s %14s %14s %9s  %s" % ("workload", "metric", "parent",
                                             "change", "delta", "verdict"))
    for workload in definition["workloads"]:
        name = workload["name"]
        p_run = parent_by.get((name, False))
        c_run = change_by.get((name, False))
        if p_run is None or c_run is None:
            continue
        for metric in definition["end_to_end"]:
            p = p_run["metrics"][metric["name"]]
            c = c_run["metrics"][metric["name"]]
            result, gain = verdict(p["values"], c["values"], metric["bound"],
                                   metric["better"])
            verdicts.append(result)
            print("%-12s %-18s %14.6g %14.6g %+8.1f%%  %s"
                  % (name, metric["name"], p["value"], c["value"],
                     100.0 * gain, result))
        p_layers = parent_by.get((name, True))
        c_layers = change_by.get((name, True))
        if p_layers is None or c_layers is None:
            continue
        for metric in definition["per_layer"]:
            p = p_layers["metrics"][metric["name"]]["value"]
            c = c_layers["metrics"][metric["name"]]["value"]
            if p == 0 and c == 0:
                continue
            delta = "%+8.1f%%" % (100.0 * (c - p) / abs(p)) if p else "     new"
            print("%-12s   layer %-28s %12.6g -> %-12.6g %s %s"
                  % (name, metric["name"], p, c, delta, metric["unit"]))
    for run in parent + change:
        if not run["correct"] or run["failed"]:
            print("%s: %s run is incorrect or has failed operations"
                  % (run["workload"], run["meta"]["commit"][:12]))
            verdicts.append("regressed")
    return 1 if "regressed" in verdicts else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--seed", type=int, default=42,
                        help="input seed (held-out seed for claims: %d)"
                        % HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", default=None,
                        help="0 = end-to-end metrics, 1 = per-layer metrics; "
                        "without --workload also 'both' (the default)")
    parser.add_argument("--out", help="result set path (set mode)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two result sets or run records")
    args = parser.parse_args()
    definition = load_json(DEFINITION)
    if args.seconds is None:
        args.seconds = definition["run_seconds"]
    if args.seconds <= 0:
        raise BenchmarkError("--seconds must be positive")
    if args.compare:
        return compare_mode(args, definition)
    if args.workload:
        if args.trace is None:
            args.trace = "0"
        return single_run_mode(args, definition)
    if args.trace is None:
        args.trace = "both"
    if args.trace not in ("0", "1", "both"):
        raise BenchmarkError("--trace must be 0, 1 or both")
    return set_mode(args, definition)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as error:
        log("error: %s" % error)
        sys.exit(2)
