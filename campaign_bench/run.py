#!/usr/bin/env python3
"""Campaign benchmark of rdsim: build, run, check, report.

    python3 campaign_bench/run.py --workload paper --seed 14 --seconds 30 --trace 0
    python3 campaign_bench/run.py --workload all            # every workload

Run from the repository root (or anywhere: paths are resolved from this
file). The first run configures and builds the library and the benchmark
binary into .bench_build/campaign_bench; later runs only re-check the build.

--trace 0 times whole campaigns (the end-to-end metrics); --trace 1 makes
the separate traced run (the per-layer metrics). Either way the last line
of stdout is one JSON object {correct, attempted, failed, metrics}; the
lines before it are the human-readable report. The exit code is non-zero
when the build fails, the binary fails, or a correctness gate fails (the
result line is still printed in the last case).
"""

import argparse
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "campaign_bench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("paper", "datagram", "mitigated")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
BUILD_TIMEOUT_S = 840
CHILD_TIMEOUT_S = 170

# campaign_hash of each full-route workload. Seed 14 is the default
# campaign; seed 7 is the hold-out recorded when the benchmark landed.
PINNED_HASHES = {
    14: {"paper": "eaddc6da559ac7ff", "datagram": "dd420ee069a3c8e1",
         "mitigated": "c2650e5a7acd0ae0"},
    7: {"paper": "30875dc6b109fdd0", "datagram": "a494e91017f1423d",
        "mitigated": "90599f576fb051a9"},
}

END_TO_END_UNITS = {"campaign_s": "s", "cpu_s": "s", "sim_rate": "sim-s/s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}

FAULT_LABELS = ("5ms", "25ms", "50ms", "2%", "5%")  # net::paper_fault_model order
SPAN = struct.Struct("<HHIqq")


class BenchError(Exception):
    pass


# ----------------------------------------------------------------- build

def build():
    if not (ROOT / "src" / "core" / "experiment.hpp").is_file():
        raise BenchError(f"rdsim sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        _build_step(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), *generator])
    _build_step(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS])
    binary = BUILD_DIR / "campaign_bench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def _build_step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build step failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"build step exited {done.returncode}: {' '.join(cmd)}")


def run_binary(binary, mode, workload, seed, seconds, run_cap_s=0.0):
    cmd = [str(binary), mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--run-cap", str(run_cap_s), "--out", str(OUT_DIR)]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=CHILD_TIMEOUT_S, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"campaign_bench failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"campaign_bench exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("campaign_bench printed nothing")
    return json.loads(lines[-1])


# ------------------------------------------------------------ time mode

def digest_gate(workload, seed, run_cap_s, samples):
    """Failed runs per campaign sample, and the reasons.

    Every repetition must give the same campaign_hash, a full-route campaign
    at a pinned seed must give the pinned one, and every faulty run must
    inject at least one fault. A campaign that threw or whose digest is
    wrong fails all its runs; a faulty run without faults fails itself.
    """
    pinned = PINNED_HASHES.get(seed, {}).get(workload) if run_cap_s == 0 else None
    digests = {s["hash"] for s in samples if not s["threw"]}
    failed, problems = [], []
    for i, s in enumerate(samples, 1):
        runs = s["runs"]
        if s["threw"]:
            problems.append(f"campaign {i} threw")
            failed.append(runs)
        elif len(digests) > 1:
            problems.append(f"campaign {i} digest {s['hash']}: repetitions disagree")
            failed.append(runs)
        elif pinned and s["hash"] != pinned:
            problems.append(f"campaign {i} digest {s['hash']} != pinned {pinned}")
            failed.append(runs)
        elif s["faulty_without_faults"]:
            problems.append(f"campaign {i}: {s['faulty_without_faults']} faulty runs "
                            "injected no fault")
            failed.append(s["faulty_without_faults"])
        else:
            failed.append(0)
    return failed, problems


def timing_result(doc):
    samples = doc["samples"]
    failed, problems = digest_gate(doc["workload"], doc["seed"], doc["run_cap_s"], samples)
    attempted = sum(s["runs"] for s in samples)
    values = {
        "campaign_s": [s["campaign_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "sim_rate": [s["sim_s"] / s["campaign_s"] for s in samples],
        "setup_s": doc["setup_s"],
        "peak_rss_mb": [doc["peak_rss_mib"]],
    }
    metrics = {name: {"value": stats.median(v), "unit": END_TO_END_UNITS[name]}
               for name, v in values.items()}
    violations = [s["violations"] for s in samples]
    pinned = PINNED_HASHES.get(doc["seed"], {}).get(doc["workload"])
    report = [
        f"workload {doc['workload']}: seed {doc['seed']}, {doc['workers']} workers, "
        f"closed batch of {len(samples)} campaigns"
        + (f", runs capped at {doc['run_cap_s']:g} s" if doc["run_cap_s"] else ""),
    ]
    for name, v in values.items():
        report.append(f"  {name:<20} {stats.describe(v, END_TO_END_UNITS[name])}")
    report.append(f"  {'contract_violations':<20} {stats.median(violations):g} count per campaign "
                  f"(all: {violations})")
    report.append(f"  {'error_rate':<20} {sum(failed) / attempted:g} ratio "
                  f"({sum(failed)} of {attempted} runs failed)")
    digests = sorted({s["hash"] for s in samples})
    report.append(f"  {'digest':<20} {', '.join(digests)}"
                  + (f" (pinned {pinned})" if pinned and not doc["run_cap_s"] else ""))
    for p in problems:
        report.append(f"  GATE FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": sum(failed),
              "metrics": metrics}
    return result, report


# ----------------------------------------------------------- trace mode

def read_spans(path, n_layers):
    """Per-layer lists of (run, duration_ns) from the span file."""
    data = Path(path).read_bytes()
    if len(data) % SPAN.size:
        raise BenchError(f"{path}: truncated span file")
    per_layer = [[] for _ in range(n_layers)]
    for layer, run, _, start, end in SPAN.iter_unpack(data):
        per_layer[layer].append((run, end - start))
    return per_layer


def layer_result(doc):
    names = doc["layers"]
    spans = dict(zip(names, read_spans(doc["span_file"], len(names))))

    def durations(name, run=None):
        return [d for r, d in spans[name] if run is None or r == run]

    clock_ns = stats.median(durations("empty"))

    def net_sum(name):  # total time of a layer's spans, less the timer's own cost
        d = durations(name)
        return sum(d) - clock_ns * len(d)

    def mean(name):
        d = durations(name)
        return net_sum(name) / len(d) if d else 0.0

    def seconds(name):
        return sum(durations(name)) * 1e-9

    counts, replay = doc["counts"], doc["replay"]
    transport_ns = net_sum("net.send") + net_sum("net.router_poll") + net_sum("net.stream_step")
    segment_ns = transport_ns / replay["data_packets"]
    subject_s = [d * 1e-9 for d in durations("core.subject")]
    m = {
        "net.segments": (counts["segments"], "count"),
        "net.retransmit_ratio": (counts["retransmits"] / counts["segments"]
                                 if counts["segments"] else 0.0, "ratio"),
        "net.acks": (counts["acks"], "count"),
        "net.packets_per_tick": (replay["packets"] / replay["ticks"], "packets/tick"),
        "net.send_ns": (mean("net.send"), "ns"),
        "net.router_poll_ns": (mean("net.router_poll"), "ns"),
        "net.stream_step_ns": (mean("net.stream_step"), "ns"),
        "net.segment_ns": (segment_ns, "ns"),
        "net.qdisc_ns": (mean("net.qdisc"), "ns"),
        "sim.physics_step_us": (mean("sim.physics") * 1e-3, "us"),
        "sim.frame_encode_us": (mean("sim.frame_encode") * 1e-3, "us"),
        "sim.frame_decode_us": (mean("sim.frame_decode") * 1e-3, "us"),
        "core.driver_us": (net_sum("core.driver") / doc["sim_loop_commands"] * 1e-3, "us"),
    }
    for fault in ("none", "delay", "loss"):
        ticks = durations(f"core.tick.{fault}") or [0]  # a run without that fault
        m[f"core.tick_us.{fault}.p50"] = (stats.percentile(ticks, 50) * 1e-3, "us")
        m[f"core.tick_us.{fault}.p99"] = (stats.percentile(ticks, 99) * 1e-3, "us")
    workers = doc["workers"]
    m.update({
        "core.subject_s.p50": (stats.median(subject_s), "s"),
        "core.subject_s.max": (max(subject_s), "s"),
        "core.io_s": (seconds("core.io"), "s"),
        "trace.record_us": (mean("trace.record") * 1e-3, "us"),
        "metrics.tables_s": (seconds("metrics.tables"), "s"),
        "check.hash_s": (seconds("check.hash"), "s"),
        "check.violations": (doc["violations"], "count"),
        "mitigate.update_ns": (net_sum("mitigate.update") / replay["ticks"], "ns"),
        "util.pool_efficiency": (sum(subject_s) / (workers * seconds("core.campaign")),
                                 "ratio"),
    })
    plain = dict(spans["obs.plain"])  # pair index -> duration
    overhead = [100.0 * (d / plain[pair] - 1.0) for pair, d in spans["obs.attached"]]
    q1, q2, q3 = stats.quartiles(overhead) if overhead else (0.0, 0.0, 0.0)
    m.update({"obs.overhead_pct": (q2, "%"), "obs.overhead_pct.q1": (q1, "%"),
              "obs.overhead_pct.q3": (q3, "%")})

    # The parts of the serial campaign: per-call cost x the campaign's calls.
    parts = {
        "net (send + router_poll + stream_step)": segment_ns * counts["data_packets"] * 1e-9,
        "mitigate": (m["mitigate.update_ns"][0] * counts["ticks"] * 1e-9
                     if doc["mitigation"] else 0.0),
        "sim.physics": m["sim.physics_step_us"][0] * counts["physics_steps"] * 1e-6,
        "trace.record": m["trace.record_us"][0] * counts["physics_steps"] * 1e-6,
        "sim.frame_encode": m["sim.frame_encode_us"][0] * counts["frames_encoded"] * 1e-6,
        "sim.frame_decode": m["sim.frame_decode_us"][0] * counts["frames_displayed"] * 1e-6,
        "core.driver": m["core.driver_us"][0] * counts["commands"] * 1e-6,
        "metrics.tables": m["metrics.tables_s"][0],
        "check.hash": m["check.hash_s"][0],
    }
    base = doc["serial_cpu_s"]
    m["layer_coverage"] = (sum(parts.values()) / base, "ratio")
    m["layer_coverage.base_cpu_s"] = (base, "s")

    report = [f"workload {doc['workload']}: traced run, seed {doc['seed']}, "
              f"{doc['spans']} spans in {doc['span_file']}, timer cost {clock_ns:.0f} ns "
              "subtracted from per-call means"]
    for name, (value, unit) in m.items():
        report.append(f"  {name:<28} {value:.6g} {unit}")
    report.append("  qdisc per fault: " + ", ".join(
        f"{label} {stats.median(durations('net.qdisc', i)):.0f} ns"
        for i, label in enumerate(FAULT_LABELS)))
    for fault in ("none", "delay", "loss"):
        ticks = durations(f"core.tick.{fault}")
        if ticks:
            report.append(f"  core.tick.{fault}: {stats.describe(ticks, 'us', 1e-3)}")
    report.append(f"  obs overhead per pair: {', '.join(f'{o:+.1f}%' for o in overhead)}")
    report.append(f"  replay: {replay['runs']} runs, {replay['mismatched_runs']} whose "
                  "counters differ from the campaign's")
    report.append(f"  layer shares of serial campaign CPU {base:.3f} s "
                  f"(coverage {m['layer_coverage'][0]:.3f}):")
    for name, value in sorted(parts.items(), key=lambda kv: -kv[1]):
        report.append(f"    {name:<40} {value:8.3f} s  {100 * value / base:5.1f} %")

    pinned = PINNED_HASHES.get(doc["seed"], {}).get(doc["workload"])
    problems = list(doc["failures"])  # serial vs pooled, io, sessions, obs digests
    if pinned and not doc["run_cap_s"] and doc["hash"] != pinned:
        problems.append(f"digest {doc['hash']} != pinned {pinned}")
    failed = doc["runs"] if problems else doc["faulty_without_faults"]
    if doc["faulty_without_faults"]:
        problems.append(f"{doc['faulty_without_faults']} faulty runs injected no fault")
    for p in problems:
        report.append(f"  GATE FAILED: {p}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    return ({"correct": not problems, "attempted": doc["runs"], "failed": failed,
             "metrics": metrics}, report)


# ------------------------------------------------------------------ main

def run_workload(binary, workload, args):
    mode = "layers" if args.trace else "time"
    doc = run_binary(binary, mode, workload, args.seed, args.seconds)
    return layer_result(doc) if args.trace else timing_result(doc)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        binary = build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for w in workloads:
            result, report = run_workload(binary, w, args)
            print("\n".join(report), flush=True)
            results.append((w, result))
    except BenchError as e:
        print(f"campaign_bench: {e}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[0][1]
    else:  # one object for every workload; metric names get a workload prefix
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{w}.{k}": v for w, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
