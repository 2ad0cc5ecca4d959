#!/usr/bin/env python3
"""End-to-end benchmark of the cqdet TCP server (`cqdet serve --tcp`).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/spec.json for the full description):

    decide-mix     closed loop, distinct decides: planted 16x4 and witness chains
    hot-serve      open loop over a rate ladder, every decision a cache hit
    session-churn  closed loop of view_add/redecide/view_remove on 64-view sessions

The script builds the `perfbench` binary from source (cargo, offline, into
$CARGO_TARGET_DIR or .bench_build), then runs each step in a fresh process:
prepare the inputs, time the server set-up several times, and measure.
With `--trace 1` it measures once with every request recorded, replays the
sequence in-process twice (untraced, then with one span per layer), and
reports the per-layer metrics instead of the end-to-end ones.

Human-readable tables go to stdout; the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A wrong answer exits non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide-mix", "hot-serve", "session-churn")

# Set-up is timed this many times per run, each in a fresh process, and the
# measuring process times it once more; the median is reported.
SETUP_REPEATS = 20

# Per-process time limit: a stuck server fails the run instead of hanging it.
STEP_TIMEOUT_S = 170

LAYER_US = {
    "service.frame_us": "service.frame",
    "service.request_parse_us": "service.request_parse",
    "query.program_parse_us": "query.program_parse",
    "core.decide_us": "core.decide",
    "engine.certify_us": "engine.certify",
    "service.render_us": "service.render",
    "core.delta.add_us": "core.delta.add",
    "core.delta.remove_us": "core.delta.remove",
    "core.delta.redecide_us": "core.delta.redecide",
}
CACHES = ("frozen", "gate", "span", "hom", "cand")


class RunFailed(Exception):
    def __init__(self, message, wrong=False):
        super().__init__(message)
        self.wrong = wrong


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    if not (ROOT / "crates" / "service" / "Cargo.toml").is_file():
        raise RunFailed("no cqdet sources next to perfbench/ (expected crates/service)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=850,
    )
    if done.returncode != 0:
        raise RunFailed("build failed:\n" + done.stderr[-4000:])
    return target_dir() / "release" / "perfbench"


def step(binary, *args):
    """Run one perfbench subcommand in a fresh process; its JSON output."""
    try:
        done = subprocess.run(
            [str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=STEP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"perfbench {args[0]} timed out")
    if done.returncode != 0:
        raise RunFailed(
            f"perfbench {args[0]} failed: {done.stderr.strip()[-4000:]}",
            wrong=done.returncode == 3,
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def command_output(*cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for base in ("crates", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".lock"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args, prepared, counts):
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "affinity": ",".join(map(str, affinity)),
        "rustc": command_output("rustc", "--version"),
        "git_commit": command_output("git", "rev-parse", "HEAD"),
        "source_digest": source_digest(),
        "CQDET_SERIAL": os.environ.get("CQDET_SERIAL"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cache_bytes": prepared.get("cache_bytes"),
        "requests": counts,
        "inputs": prepared,
    }


def quantities(measured):
    lat = measured["latency"]
    def q(kind, which):
        return lat.get(kind, {}).get(which)
    attempted = max(measured["attempted"], 1)
    return {
        "throughput_rps": (measured["throughput_rps"], "1/s"),
        "latency_p50_ms": (measured["headline"]["p50_ms"], "ms"),
        "latency_p90_ms": (measured["headline"]["p90_ms"], "ms"),
        "latency_p99_ms": (measured["headline"]["p99_ms"], "ms"),
        "decide_p50_ms": (q("decide", "p50_ms") or q("hot_decide", "p50_ms"), "ms"),
        "decide_p99_ms": (q("decide", "p99_ms") or q("hot_decide", "p99_ms"), "ms"),
        "witness_p50_ms": (q("witness", "p50_ms"), "ms"),
        "witness_p99_ms": (q("witness", "p99_ms"), "ms"),
        "sustained_rps": (measured["sustained_rps"] if measured["rungs"] else None, "1/s"),
        "redecide_p50_ms": (q("redecide", "p50_ms"), "ms"),
        "redecide_p99_ms": (q("redecide", "p99_ms"), "ms"),
        "mutate_p50_ms": (q("mutate", "p50_ms"), "ms"),
        "error_rate": (measured["failed"] / attempted, "ratio"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }


def print_end_to_end(workload, measured, setup_s, setups):
    print(f"== {workload}: end to end")
    print(f"  {'setup_s':<18} {setup_s:>12.6f} s      (median of {len(setups)} set-ups)")
    for name, (value, unit) in quantities(measured).items():
        if value is not None:
            print(f"  {name:<18} {value:>12.6f} {unit}")
    print(f"  (latency_p50/p90/p99_ms and closed-loop throughput_rps: the fast quartile "
          f"of {measured['headline']['blocks']} blocks of 1000 requests; "
          f"the per-kind figures cover the whole phase)")
    for kind, s in measured["latency"].items():
        print(f"  latency[{kind}]: n={s['count']} p50={s['p50_ms']:.4f} ms "
              f"p99={s['p99_ms']:.4f} ms mean={s['mean_ms']:.4f} ms")
    for r in measured["rungs"]:
        print(f"  rung {r['rate_rps']:>7.0f} rps: sent={r['sent']} p50={r['p50_ms']:.4f} ms "
              f"p99={r['p99_ms']:.4f} ms loadgen.late_p99_ms={r['late_p99_ms']:.4f} "
              f"backlog q2={r['backlog_q2']:.2f} q4={r['backlog_q4']:.2f} "
              f"{'ok' if r['passed'] else 'FAILED'}")


def end_to_end(args, binary, work, prepared):
    measured = step(binary, "measure", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--dir", str(work))
    # The extra set-ups run after the measurement, on a machine already
    # under steady load: set-ups timed straight after an idle spell read
    # up to twice as slow.
    setups = [measured["setup_s"]]
    for _ in range(SETUP_REPEATS):
        setups.append(step(binary, "setup", "--workload", args.workload,
                           "--dir", str(work))["setup_s"])
    setup_s = statistics.median(setups)
    print(json.dumps({"provenance": provenance(args, prepared, measured["counts"])}))
    print_end_to_end(args.workload, measured, setup_s, setups)
    q = quantities(measured)
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for name in ("throughput_rps", "latency_p50_ms", "peak_rss_mb"):
        value, unit = q[name]
        metrics[name] = {"value": value, "unit": unit}
    return measured, metrics


def per_layer(args, binary, work, prepared, out_dir):
    measured = step(binary, "measure", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--dir", str(work), "--record")
    print(json.dumps({"provenance": provenance(args, prepared, measured["counts"])}))
    print_end_to_end(args.workload, measured, measured["setup_s"], [measured["setup_s"]])
    whole = step(binary, "replay", "--workload", args.workload, "--dir", str(work),
                 "--mode", "whole")
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced = step(binary, "replay", "--workload", args.workload, "--dir", str(work),
                  "--mode", "traced", "--spans", str(spans))

    layers = traced["layers"]
    timed = max(traced["timed"], 1)
    def per_call(layer):
        entry = layers.get(layer, {"self_us": 0.0, "calls": 0})
        return entry["self_us"] / entry["calls"] if entry["calls"] else 0.0
    attributed = sum(v["self_us"] for k, v in layers.items() if k != "request")
    metrics = {name: {"value": per_call(layer), "unit": "us"} for name, layer in LAYER_US.items()}
    decides = max(traced["decide_calls"], 1)
    metrics["core.decide_fuel_steps"] = {"value": traced["fuel_steps"] / decides, "unit": "count"}
    metrics["core.decide_fuel_bytes"] = {"value": traced["fuel_bytes"] / decides, "unit": "bytes"}
    metrics["service.render_bytes"] = {"value": traced["render_bytes"] / timed, "unit": "bytes"}
    metrics["service.transport_us"] = {"value": whole["transport_us"], "unit": "us"}
    for counter in ("replays", "fast_removals", "rebuilds"):
        metrics[f"core.delta.{counter}"] = {"value": traced[counter], "unit": "count"}
    stats = measured["stats"] or {}
    evictions = 0
    for cache in CACHES:
        usage = stats.get(f"{cache}_usage", {})
        hits, misses = usage.get("hits", 0), usage.get("misses", 0)
        evictions += usage.get("evictions", 0)
        ratio = hits / (hits + misses) if hits + misses else 0.0
        metrics[f"cache.{cache}.hit_ratio"] = {"value": ratio, "unit": "ratio"}
    metrics["cache.evictions"] = {"value": evictions, "unit": "count"}
    metrics["cache.governed_bytes"] = {"value": stats.get("governed_bytes", 0), "unit": "bytes"}
    metrics["cache.snapshot_load_ms"] = {"value": traced["snapshot_load_ms"], "unit": "ms"}
    metrics["loadgen.late_p99_ms"] = {"value": measured["late_p99_ms"], "unit": "ms"}
    whole_us = whole["timed_us"]
    metrics["trace.unattributed_share"] = {
        "value": 1.0 - attributed / whole_us if whole_us else 0.0, "unit": "ratio"}

    overhead_us = traced["wall_us"] - whole["wall_us"]
    print(f"== {args.workload}: per-layer self time, traced replay of {traced['timed']} "
          f"timed requests ({traced['requests']} replayed in all)")
    print(f"  in-process time, untraced replay: {whole_us / timed:10.2f} us/request")
    print(f"  tracing overhead (traced - untraced wall time): {overhead_us / 1e3:.3f} ms "
          f"({overhead_us / max(whole['wall_us'], 1):+.2%})")
    print(f"  {'layer':<26} {'calls':>8} {'self ms':>12} {'us/call':>10} {'share':>8}")
    for name, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_us"]):
        label = "(unattributed: root self)" if name == "request" else name
        calls = entry["calls"]
        print(f"  {label:<26} {calls:>8} {entry['self_us'] / 1e3:>12.3f} "
              f"{entry['self_us'] / max(calls, 1):>10.2f} "
              f"{entry['self_us'] / whole_us if whole_us else 0:>8.2%}")
    print(f"  {'service.transport_us':<26} {'':>8} {'':>12} {whole['transport_us']:>10.2f}"
          f"   (client latency - in-process time, per request)")
    print(f"  trace.unattributed_share = {metrics['trace.unattributed_share']['value']:.4f}"
          f"  (1 - sum of layer spans / untraced in-process time)")
    print(f"  spans written to {spans}")
    return measured, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = target_dir() / "perfbench-out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        binary = build()
        work.mkdir(parents=True, exist_ok=True)
        prepared = step(binary, "prepare", "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--dir", str(work))
        if args.trace:
            measured, metrics = per_layer(args, binary, work, prepared, out_dir)
        else:
            measured, metrics = end_to_end(args, binary, work, prepared)
    except RunFailed as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        if failure.wrong:
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
