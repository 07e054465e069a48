#!/usr/bin/env python3
"""The dataspace benchmark: one command for the workloads of BENCHMARK.json.

    python3 perfbench/run.py --workload fig6_uncached --seed 42 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run it from the root of the repository. It builds perfbench/ (a CMake
package that compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
runs the dsbench binary for one workload, checks the outputs, prints every
metric by name and unit, and prints as its last line the JSON result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics of a traced run, whose spans are written next to
the build (runs/spans-*.json). Exits non-zero, without a result, when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("fig6_uncached", "desktop_sync")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    """Metric names, units and directions from BENCHMARK.json, and the
    layer map from layers.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    return spec, layers


def build(build_dir):
    """Configures (once) and builds dsbench; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dsbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dsbench")


def run_workload(binary, build_dir, workload, seed, seconds, trace):
    """Runs dsbench once; returns its raw record (None on failure)."""
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{workload}-{seed}-{trace}"
    record_path = os.path.join(runs, f"record-{tag}.json")
    spans_path = os.path.join(runs, f"spans-{tag}.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--record", record_path]
    if trace:
        command += ["--spans", spans_path]
    try:
        proc = subprocess.run(command, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload}: dsbench exited with {proc.returncode}")
        return None
    with open(record_path) as f:
        record = json.load(f)
    if trace:
        record["spans_path"] = spans_path
    return record


def report(record, spec, layers, trace):
    """Prints the human-readable table; returns the result object."""
    workload = record["workload"]
    print(f"== {workload}  seed={record['seed']}  trace={trace}")
    for key, value in sorted(record.get("info", {}).items()):
        print(f"   {key}: {value}")
    checks = record.get("checks", [])
    correct = bool(checks) and all(check["ok"] for check in checks)
    for check in checks:
        status = "ok" if check["ok"] else f"FAILED x{check['failures']}: {check['detail']}"
        print(f"   check {check['name']}: {status}")
    try:
        if trace:
            defined = spec["per_layer"]
            raw = dict(record.get("layers", {}))
            edits = record.get("samples", {}).get("edit", [])
            raw["write.edit_p50_ms"] = stats.median(edits) if edits else 0.0
            values = {m["name"]: (raw[m["name"]], "") for m in defined}
        else:
            defined = spec["end_to_end"]
            values = stats.end_to_end(record)
    except (stats.MetricError, KeyError) as error:
        log(f"{workload}: cannot compute metrics: {error}")
        return None
    units = {m["name"]: m["unit"] for m in defined}
    for metric in defined:
        name = metric["name"]
        value, note = values[name]
        line = f"   {name} = {value:.6g} {metric['unit']}"
        if note:
            line += f"  ({note})"
        if trace and name in layers:
            line += f"  -> moves {layers[name]['moves']} on {layers[name]['on']}"
        print(line)
    if not trace:
        for name, (value, note) in stats.extras(record).items():
            print(f"   [unbounded] {name} = {value:.6g}  ({note})")
    else:
        print(f"   spans: {record['spans_path']}")
    print(f"   attempted={record['attempted']} failed={record['failed']} "
          f"correct={correct}")
    return stats.make_result(correct, record["attempted"], record["failed"],
                             {name: values[name][0] for name in units}, units)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench"))
    try:
        spec, layers = load_spec()
        binary = build(build_dir)
    except (OSError, ValueError, subprocess.CalledProcessError) as error:
        log(f"perfbench: cannot set up the benchmark: {error}")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        record = run_workload(binary, build_dir, workload, args.seed,
                              args.seconds, args.trace)
        result = None if record is None else report(record, spec, layers,
                                                    args.trace)
        if result is None:
            return 1
        results[workload] = result
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
