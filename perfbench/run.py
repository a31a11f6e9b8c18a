#!/usr/bin/env python3
"""The platoonsec benchmark: builds the perfbench program, runs one workload,
checks the program's outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload corridor --seed 42 --seconds 30 \\
        --trace 0

Run from the repository root. The build goes to .bench_build/perfbench.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports the per-layer metrics of a traced run of the same work (see
README.md for what each metric should move).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

WORKLOADS = ("corridor", "signed-corridor", "table3-sweep")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(bench_dir):
    """Configures (once) and builds perfbench; returns the binary's path."""
    configure = ["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def op_percentiles(doc):
    """Median and p90 wall time of one operation of the untraced pass."""
    m = doc["measured"]
    ops_s = m["tick_wall_s"] if "tick_wall_s" in m else m["replication_wall_s"]
    ops_ms = [t * 1e3 for t in ops_s]
    return {
        "op_ms_p50": (statistics.median(ops_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ops_ms, n=10,
                                           method="inclusive")[8], "ms"),
    }


def end_to_end(doc):
    m = doc["measured"]
    return {
        "setup_s": (statistics.median(doc["setup_samples_s"]), "s"),
        "wall_s": (m["wall_s"], "s"),
        "realtime_x": (m["sim_s"] / m["run_s"], "sim_s/s"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(doc):
    obs = doc["obs"]
    c = obs["counters"]
    spans = checks.self_times(obs["timings_nondeterministic"]["timers"])

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    def per_call_us(name):
        calls, _, self_s = span(name)
        return self_s * 1e6 / calls if calls else 0.0

    if doc["workload"] == "table3-sweep":
        # World construction and summarizing happen inside
        # eval::run_eval_once, out of reach of the benchmark's spans: its
        # self time (build, attach, summarize) stands for core.build_ms,
        # and the harness's per-cell fold (eval.score) for summarize.
        build_ms = span("eval.run_once")[2] * 1e3
        summarize_ms = span("eval.score")[1] * 1e3
    else:
        build_ms = span("bench.core.build")[1] * 1e3
        summarize_ms = span("bench.core.summarize")[1] * 1e3
    pdr_base = (c["net.delivered"] + c["net.dropped.per"] +
                c["net.dropped.half_duplex"] + c["net.dropped.mac"] +
                c["net.dropped.fault"])
    lookups = c["crypto.verdict_cache.hit"] + c["crypto.verdict_cache.miss"]
    metrics = {
        "scen.compile_ms": (span("bench.scen.compile")[1] * 1e3, "ms"),
        "core.build_ms": (build_ms, "ms"),
        "core.summarize_ms": (summarize_ms, "ms"),
        "sim.events": (c["sim.events_executed"], "count"),
        "sim.self_s": (span("sim.run")[2], "s"),
        "net.deliver.calls": (span("net.deliver")[0], "count"),
        "net.deliver.self_s": (span("net.deliver")[2], "s"),
        "net.deliver.us_per_call": (per_call_us("net.deliver"), "us"),
        "net.pdr": (c["net.delivered"] / pdr_base if pdr_base else 0.0,
                    "ratio"),
        "net.pdr.base": (pdr_base, "count"),
        "crypto.verify.calls": (span("crypto.verify")[0], "count"),
        "crypto.verify.self_s": (span("crypto.verify")[2], "s"),
        "crypto.verify.us_per_call": (per_call_us("crypto.verify"), "us"),
        "crypto.verdict_cache.hit_ratio": (
            c["crypto.verdict_cache.hit"] / lookups if lookups else 0.0,
            "ratio"),
        "crypto.verdict_cache.lookups": (lookups, "count"),
        "trace.overhead": (doc["traced"]["wall_s"] / doc["measured"]["wall_s"],
                           "ratio"),
    }
    # Per-operation times swing with the host's speed more than any bound
    # allows (README.md), so they are reported here, ungated.
    metrics.update(op_percentiles(doc))
    for name in ("net.sent", "net.delivered", "net.dropped.per",
                 "net.dropped.half_duplex", "net.dropped.range",
                 "net.dropped.mac", "net.dropped.fault", "net.sent_forged",
                 "crypto.sign", "crypto.sig_verifies", "crypto.verify.ok",
                 "crypto.verify.cached", "crypto.verify.fail",
                 "crypto.verify.batched"):
        metrics[name] = (c[name], "count")
    return metrics


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for needed in ("src/CMakeLists.txt", "scenarios/scale_corridor.json",
                   "scenarios/table3_mitigations.json"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"{needed} is missing: run from a platoonsec checkout")
            return 1
    try:
        binary = build(bench_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    command = [binary, "--root", root, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench exited with code {proc.returncode}")
        return 1
    try:
        doc = checks.decode_document(proc.stdout)
    except ValueError as error:
        log(f"output is not UTF-8 JSON: {error}")
        return 1

    failures = checks.check(doc)
    for failure in failures:
        log(f"CHECK FAILED: {failure}")
    metrics = per_layer(doc) if args.trace else end_to_end(doc)
    for name, (value, unit) in metrics.items():
        log(f"{name:34s} {value:>16.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
