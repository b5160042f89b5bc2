#!/usr/bin/env python3
"""Repo benchmark: builds satbench from the checkout, runs one workload,
checks every output against the serial oracle and prints each metric by
name with its unit.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload batch_large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --write-benchmark-json

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the run's spans as Chrome trace JSON into the build
directory).  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_SECONDS = 15
# A run must end within 180 s; leave room for the process to report.
CHILD_TIMEOUT_S = 170

ALL = ("batch_large", "serve_mixed", "query_fused", "stream_window")

WORKLOADS = [
    {"name": "batch_large",
     "why": "1 closed-loop caller, Plan::execute on 4096^2 images alternating "
            "8u32u/64f64f, kAuto native, 4 engine threads: kernels and memory "
            "bandwidth, no service"},
    {"name": "serve_mixed",
     "why": "open loop at 500 req/s, 2 workers x 1 engine thread, native "
            "ScanRowColumn, 5 mixed 64^2-256^2 templates, SLO 5 ms: "
            "admission, queue, plan cache, waves, launch set-up"},
    {"name": "query_fused",
     "why": "1 closed-loop caller, plan_query native 2048^2 8u32u rotating "
            "box/thresh/wsum x20 and hist x1, 4 engine threads: fused "
            "consume-side tiled pipeline"},
    {"name": "stream_window",
     "why": "1 StreamSession 512^2 8u32u T=8 incremental, 4 engine threads, "
            "push + 64 window_sum reads per cycle: ring update on the "
            "simulator, writes beside reads"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.2},
    {"name": "mpix_s", "unit": "Mpix/s", "better": "higher", "bound": 0.25},
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "slo_share", "unit": "share", "better": "higher", "bound": 0.05},
]

# name, unit, better, workloads that exercise it (others report 0).
PER_LAYER = [
    ("runtime.plan_cold_ms", "ms", "lower", ALL),
    ("runtime.certify_ms", "ms", "lower",
     ("batch_large", "serve_mixed", "query_fused")),
    ("stream.open_ms", "ms", "lower", ("stream_window",)),
    ("runtime.execute_p50_ms.8u32u", "ms", "lower", ("batch_large",)),
    ("runtime.execute_p50_ms.64f64f", "ms", "lower", ("batch_large",)),
    ("runtime.launches_per_image", "count", "lower", ("batch_large",)),
    ("simt.computed_bytes_per_image", "bytes", "lower", ("batch_large",)),
    ("simt.computed_gbps", "GB/s", "higher", ("batch_large",)),
    ("host.copy_gbps", "GB/s", "higher", ("batch_large",)),
    ("simt.bw_share", "share", "higher", ("batch_large",)),
    ("pool.steady_allocations", "count", "lower",
     ("batch_large", "query_fused")),
    ("pool.high_water_mb", "MiB", "lower", ("batch_large", "query_fused")),
    ("oracle.mpix_s", "Mpix/s", "higher", ("batch_large",)),
    ("runtime.speedup_vs_serial", "x", "higher", ("batch_large",)),
    ("query.oracle_mpix_s", "Mpix/s", "higher", ("query_fused",)),
    ("query.speedup_vs_serial", "x", "higher", ("query_fused",)),
    ("query.execute_p50_ms.box", "ms", "lower", ("query_fused",)),
    ("query.execute_p50_ms.thresh", "ms", "lower", ("query_fused",)),
    ("query.execute_p50_ms.wsum", "ms", "lower", ("query_fused",)),
    ("query.execute_p50_ms.hist", "ms", "lower", ("query_fused",)),
    ("query.fused_share", "share", "higher", ("query_fused",)),
    ("service.submit_p50_us", "us", "lower", ("serve_mixed",)),
    ("service.queue_wait_p50_us", "us", "lower", ("serve_mixed",)),
    ("service.queue_wait_p99_us", "us", "lower", ("serve_mixed",)),
    ("service.execute_p50_us", "us", "lower", ("serve_mixed",)),
    ("service.wave_size_mean", "count", "higher", ("serve_mixed",)),
    ("service.fused_share", "share", "higher", ("serve_mixed",)),
    ("service.plan_hit_ratio", "share", "higher", ("serve_mixed",)),
    ("service.max_queue_depth", "count", "lower", ("serve_mixed",)),
    ("service.rejected", "count", "lower", ("serve_mixed",)),
    ("service.failed", "count", "lower", ("serve_mixed",)),
    ("gen.late_p99_ms", "ms", "lower", ("serve_mixed",)),
    ("gen.late_max_ms", "ms", "lower", ("serve_mixed",)),
    ("model.auto_unstable_share", "share", "lower", ("serve_mixed",)),
    ("stream.device_bytes_per_push", "bytes", "lower", ("stream_window",)),
    ("stream.read_p50_us", "us", "lower", ("stream_window",)),
    ("stream.ring_mb", "MiB", "lower", ("stream_window",)),
    ("trace.overhead_share", "share", "lower", ALL),
] + [("layer.%s.self_ms" % layer, "ms", "lower", ALL)
     for layer in ("model", "runtime", "simt", "query", "stream", "service",
                   "oracle")] + [
    ("layer.service.wait_ms", "ms", "lower", ALL),
]

# Workload-specific names of the generic end-to-end metrics, printed
# alongside them so every workload-specific figure can be read off a run.
ALIASES = {
    "batch_large": {"mpix_s": "sat_mpix_s", "p50_ms": "sat_p50_ms",
                    "tail_ms": "sat_p90_ms"},
    "serve_mixed": {"p50_ms": "serve_p50_ms", "tail_ms": "serve_p90_ms",
                    "slo_share": "serve_slo_share"},
    "query_fused": {"mpix_s": "query_mpix_s", "p50_ms": "query_p50_ms",
                    "tail_ms": "query_p90_ms"},
    "stream_window": {"p50_ms": "stream_push_p50_ms",
                      "tail_ms": "stream_push_p90_ms"},
}


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configure (once) and build satbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sat", "service.hpp")):
        fail("satgpu sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "satbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "satbench")


def run_child(argv):
    """Run satbench; returns (stdout text, exit code, peak RSS in MiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return out.decode(), proc.returncode, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=ALL)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the repository root")
    args = ap.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        fail("--workload is required")
    if not (0 < args.seconds <= 120):
        fail("--seconds must be in (0, 120]")

    out_dir = build_dir()
    binary = build(out_dir)
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        argv += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    text, code, rss_mb = run_child(argv)
    lines = text.strip().splitlines()
    if code != 0 or not lines:
        fail("satbench exited with code %d" % code)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("satbench printed no result line")

    got = dict(raw["metrics"])
    got["peak_rss_mb"] = {"value": rss_mb, "unit": "MiB"}
    if args.trace:
        wanted = [(n, u) for n, u, _, users in PER_LAYER]
        exercised = {n for n, _, _, users in PER_LAYER
                     if args.workload in users}
    else:
        wanted = [(m["name"], m["unit"]) for m in END_TO_END]
        exercised = {n for n, _ in wanted}
    metrics = {}
    for name, unit in wanted:
        if name in got:
            value = got[name]["value"]
        elif name in exercised:
            fail("satbench did not report %s" % name)
        else:
            value = 0  # this workload does not exercise the layer
        if value is None:
            fail("satbench reported a non-finite %s" % name)
        metrics[name] = {"value": value, "unit": unit}

    attempted = raw["attempted"]
    failed = raw["failed"] + raw["mismatches"]
    aliases = ALIASES[args.workload]
    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name, m in metrics.items():
        alias = "  (%s)" % aliases[name] if name in aliases else ""
        print("  %-34s %16.6g %s%s" % (name, m["value"], m["unit"], alias))
    print("  %-34s %16.6g share" % ("fail_share",
                                    failed / attempted if attempted else 1))
    for note in raw["notes"]:
        print("  # " + note)
    print(json.dumps({"correct": raw["mismatches"] == 0 and attempted > 0,
                      "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 1 if raw["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
