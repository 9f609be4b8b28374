#!/usr/bin/env python3
"""Benchmark of the study pipeline: build the runner, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper|fleet [--seed N]
        [--seconds S] [--trace 0|1] [--size full|smoke]

Builds perfbench_runner from the repository's sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload as a closed loop for --seconds, checks every operation, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones (self time of each span, plus the
program's counters). A failed check prints "correct": false and exits 1.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper", "fleet")
DEFAULT_SEED = 20131023
RUNNER_TIMEOUT_S = 170

# Per-layer timings: metric name -> span name. The value is the span's self
# time (duration minus its child spans), median over the traced operations.
SPAN_METRICS = {
    "op.self_s": "op",
    "home.build_s": "home.build",
    "home.run_s": "home.run",
    "home.run.sharded_s": "home.run.sharded",
    "home.run.commit_s": "home.run.commit",
    "home.summary_checkpoint_s": "home.summary_checkpoint",
    "collect.export_s": "collect.export",
    "analysis.summarize_fleet_spill_s": "analysis.summarize_fleet_spill",
    "collect.snapshot_save_s": "collect.snapshot_save",
    "collect.snapshot_open_s": "collect.snapshot_open",
    "analysis.summarize_fleet_cols_s": "analysis.summarize_fleet_cols",
}

# Per-layer counters: metric name -> field of the runner's op result.
FIELD_METRICS = {
    "core.pool.busy_s": "pool_busy_s",
    "core.pool.imbalance": "pool_imbalance",
    "sim.events": "sim_events",
    "sim.callbacks_heap": "sim_callbacks_heap",
    "bismark.upload.attempts": "upload_attempts",
    "bismark.upload.retries": "upload_retries",
    "collect.ingest.records": "ingest_records",
    "collect.export_bytes": "export_bytes",
    "collect.spill_bytes_after_run": "spill_bytes_after_run",
    "collect.merge_scratch_bytes": "merge_scratch_bytes",
    "collect.snapshot_bytes": "snapshot_bytes",
    "rss.after_run_mb": "rss_after_run_mb",
    "rss.after_summary_mb": "rss_after_summary_mb",
    "rss.after_snapshot_mb": "rss_after_snapshot_mb",
    "core.io.files_opened": "io_files_opened",
    "core.io.bytes_mapped": "io_bytes_mapped",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def units(section):
    """Metric name -> unit, from BENCHMARK.json's "end_to_end" or "per_layer"."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def build():
    """Configure and build the runner; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources (src/CMakeLists.txt) next to perfbench/")
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_runner", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench_runner")


def source_id():
    """git commit when the tree is a git checkout, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_loop(runner, args, scratch):
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--scratch", scratch]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"runner exceeded {RUNNER_TIMEOUT_S} s and was killed")
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    records = {"provenance": None, "setup": [], "op": []}
    for line in out.splitlines():
        tag, _, body = line.partition(" ")
        if tag == "provenance":
            records["provenance"] = json.loads(body)
        elif tag in ("setup", "op"):
            records[tag].append(json.loads(body))
    # The runner stops with code 1 when a set-up fails its checks; that is a
    # failed run, reported as such. Any other failure leaves no result.
    setup_failed = any(not s["ok"] for s in records["setup"])
    if proc.returncode != 0 and not setup_failed:
        log(f"runner exited with code {proc.returncode}")
        return None
    return records


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_times(spans):
    """Span name -> self time (duration minus the duration of its children)."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end_s"] - s["start_s"]
    return {s["name"]: s["end_s"] - s["start_s"] - child.get(s["id"], 0.0) for s in spans}


def check_ops(workload, ops):
    """Per-op failures plus run-level checks; returns (failed ops, problems)."""
    problems = []
    failed = 0
    for op in ops:
        r = op["result"]
        why = list(r.get("failures", []))
        if not op["child_ok"]:
            why.append("operation threw or crashed: " + r.get("exception", "no result"))
        if why:
            failed += 1
            problems += [f"op {op['index']}: {w}" for w in why]
    if workload == "fleet" and not problems and "rank_err" not in ops[0]["result"]:
        problems.append("first operation did not run the exact-quantile oracle")
    return failed, problems


def end_to_end(setups, ops):
    results = [op["result"] for op in ops]
    p50 = statistics.median(r["wall_s"] for r in results)
    return {
        "op_s_p50": p50,
        # Rows an operation produced.
        "records_per_s": statistics.median(r["rows"] for r in results) / p50,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "disk_bytes_per_home": statistics.median(r["disk_bytes"] / r["homes"] for r in results),
        "setup_s": statistics.median(s["s"] for s in setups),
    }


def per_layer(ops):
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    selfs = [self_times(op["result"]["spans"]) for op in traced]
    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = statistics.median(s.get(span, 0.0) for s in selfs)
    for name, field in FIELD_METRICS.items():
        metrics[name] = statistics.median(op["result"].get(field, 0) for op in traced)
    sharded = statistics.median(op["result"].get("run_sharded_s", 0.0) for op in traced)
    events = metrics["sim.events"]
    metrics["sim.events_per_s"] = events / sharded if sharded > 0 else 0.0
    metrics["summary_rank_err"] = ops[0]["result"].get("rank_err", 0.0)
    metrics["trace.overhead_s"] = (
        statistics.median(op["result"]["wall_s"] for op in traced)
        - statistics.median(op["result"]["wall_s"] for op in untraced))
    return metrics


def write_trace(args, ops):
    """All spans of the traced operations, written once the run has ended."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.size}-seed{args.seed}.json")
    spans = [s for op in ops if op["traced"] for s in op["result"]["spans"]]
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, f)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    runner = build()
    if runner is None:
        log("build failed")
        return 1
    scratch = os.path.join(ROOT, ".bench_scratch", f"{args.workload}-{os.getpid()}")
    t0 = time.monotonic()
    records = run_loop(runner, args, scratch)
    if records is None or records["provenance"] is None or not records["setup"]:
        log("no result")
        return 1
    failed_setups = [s for s in records["setup"] if not s["ok"]]
    if failed_setups or not records["op"]:
        # Set-up is a warm-up operation with the same checks, so its failure
        # is a failed check.
        print("CHECK FAILED set-up failed its checks (details on stderr)")
        print(json.dumps({"correct": False, "attempted": len(records["setup"]),
                          "failed": len(failed_setups), "metrics": {}}))
        return 1
    provenance = dict(records["provenance"], source=source_id())
    print("provenance " + json.dumps(provenance, sort_keys=True))
    warnings = []
    if not provenance["optimized"] or provenance["sanitizer"]:
        warnings.append("timings come from an unoptimised or sanitizer build")
    if not provenance["bismark_obs"]:
        warnings.append("BISMARK_OBS=OFF: sim.* and bismark.* counters read zero")
    for w in warnings:
        print("WARNING " + w)

    ops = records["op"]
    failed, problems = check_ops(args.workload, ops)
    correct = not problems
    for p in problems:
        print("CHECK FAILED " + p)
    metrics = {}
    if correct:
        if args.trace:
            values, unit = per_layer(ops), units("per_layer")
            print("trace written to " + os.path.relpath(write_trace(args, ops), ROOT))
        else:
            values, unit = end_to_end(records["setup"], ops), units("end_to_end")
        metrics = {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
    first = ops[0]["result"]
    print("summary " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "ops_failed_ratio": failed / len(ops),
        "op_s_p90": percentile([op["result"].get("wall_s", 0.0) for op in ops], 0.9),
        "rows": first.get("rows"), "homes": first.get("homes"),
        "summary_rank_err": first.get("rank_err"), "rank_err_at": first.get("rank_err_at"),
        "export_hash": first.get("export_hash"),
        "run_wall_s": round(time.monotonic() - t0, 3)}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
