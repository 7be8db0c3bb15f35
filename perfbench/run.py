"""thetadim benchmark: one workload, one seed, measured from outside.

    python3 perfbench/run.py --workload lookup-wide --seed 1 --seconds 25 --trace 0

With --trace 0 it runs whole passes of the workload's fixed operation set,
each in a fresh worker process, as many as fit in --seconds (at least
one), and reports the end-to-end metrics named in BENCHMARK.json: medians
over passes, latency percentiles over the operations (each operation's
latency being its median over the passes), and set-up time as the median
over twenty set-up-only launches, all within --seconds.
With --trace 1 it alternates untraced and traced passes of the same
operations (at least two of each, more while they fit in --seconds) and
reports the per-layer metrics as medians over the traced passes, and the
tracing overhead as the difference of the two medians of wall_s.  Every
operation is checked against the committed references.

Times are reported at a fixed machine speed.  The shared host this runs on
changes speed by up to 2x over tens of seconds, so each worker also times
a fixed piece of calibration work before and after each operation
(worker.py): a pure-Python loop beside a lookup, a bare interpreter
launch beside a CLI process or a set-up.  An operation's wall and CPU
time are multiplied by CAL_REF_S / (mean of the calibrations on either
side of it), and a set-up time or a layer's time by CAL_REF_S / (median
calibration of its process): a time in seconds on a machine where the
calibration takes CAL_REF_S.  The calibration does not use thetadim, so a
change in the program moves these times as it moves the raw ones; the
raw medians are printed in the report beside them.

The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report.  The exit status is 0 when the run is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from stats import percentile, tail_percentile
from tracer import layer_metrics, merge
from worker import child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 20
# Each calibration's time at the reference speed: about its time on the
# 2-CPU Xeon VM the baseline was recorded on, when that host was quiet.
CAL_REF_S = {"loop": 0.006, "launch": 0.065}
TRACE_PAIRS = 2
PASS_TIMEOUT_S = 150

# The property each workload exists to exercise, and the share of
# operations below which the workload no longer exercises it: just under
# the share every seed gives at the baseline (see README.md).
PROPERTY = {
    "lookup-wide": "share of sums certified at the first precision",
    "lookup-deep": "share of sums certified at >= 128 bits",
    "cli-session": "share of trig sums served by the sum cache",
}
PROPERTY_FLOOR = {"lookup-wide": 0.95, "lookup-deep": 0.95, "cli-session": 0.9}


class BenchError(Exception):
    pass


def run_worker(spec: dict) -> dict:
    spec = dict(spec, launched=time.monotonic())
    start = spec["launched"]
    # Its own process group, so that a timeout or an interrupt also ends the
    # CLI processes a worker has started.
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                          env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{stderr.decode()[-3000:]}")
    result = json.loads(stdout.splitlines()[-1])
    result["duration"] = time.monotonic() - start
    return at_reference_speed(result)


def at_reference_speed(result: dict) -> dict:
    """Add a worker's times at the reference speed, from its calibration chunks."""
    cal, ref = result["cal"], CAL_REF_S[result["cal_kind"]]
    result["scale"] = ref / statistics.median(cal)
    if "latencies" in result:
        # Each operation at the machine speed measured on either side of it.
        op_scale = [2 * ref / (a + b) for a, b in zip(cal, cal[1:])]
        for name in ("latencies", "cpus"):
            result[f"{name}_ref"] = [t * s for t, s in zip(result[name], op_scale)]
        result["wall_s"] = sum(result["latencies_ref"])
        result["cpu_s"] = sum(result["cpus_ref"])
    return result


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    """End-to-end metrics over set-up launches and whole passes that fit in `seconds`."""
    spec = {"workload": workload, "seed": seed, "trace": False, "setup_only": False}
    start = time.monotonic()
    launches = [run_worker(dict(spec, setup_only=True)) for _ in range(SETUP_SAMPLES)]
    passes = [run_worker(spec)]
    while time.monotonic() - start + passes[-1]["duration"] <= seconds:
        passes.append(run_worker(spec))
    setups = [r["setup_s"] * r["scale"] for r in launches]

    # Every pass runs the same operations in the same order; an operation's
    # latency is its median over the passes.
    per_op = [statistics.median(op) for op in zip(*(p["latencies_ref"] for p in passes))]
    ops = len(per_op)
    tail_p = tail_percentile(ops)
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in launches),
        "wall_s": statistics.median(sum(p["latencies"]) for p in passes),
        "cpu_s": statistics.median(sum(p["cpus"]) for p in passes),
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "latency_p50_s": percentile(per_op, 50),
        "latency_tail_s": percentile(per_op, tail_p),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    speed = statistics.median(p["scale"] for p in passes)
    notes = {
        "setup_s": f"median of {len(setups)} launches; raw {raw['setup_s']:.4g} s",
        "wall_s": f"median of {len(passes)} passes x {ops} ops; raw {raw['wall_s']:.4g} s, "
                  f"machine at {speed:.3g}x the reference speed",
        "cpu_s": f"raw {raw['cpu_s']:.4g} s",
        "latency_p50_s": f"over {ops} ops, each the median of {len(passes)} passes",
        "latency_tail_s": f"p{tail_p:.1f} (10 of {ops} ops beyond it), "
                          f"each op the median of {len(passes)} passes",
    }
    return {"metrics": metrics, "notes": notes}, passes


def property_share(workload: str, total: dict) -> float:
    """The share of a traced pass's operations that have the workload's property."""
    if workload == "cli-session":
        return layer_metrics(total)["verlinde.sum_cache_hit_ratio"]
    key = "evaluate_sum.single_step" if workload == "lookup-wide" else "evaluate_sum.deep"
    return total["counts"][key] / max(1, total["calls"]["intervals.evaluate_sum"])


def trace(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    """Per-layer metrics of traced passes, and the overhead against untraced ones run alternately."""
    spec = {"workload": workload, "seed": seed, "trace": False, "setup_only": False}
    start = time.monotonic()
    plain, traced = [], []
    while len(traced) < TRACE_PAIRS or time.monotonic() - start + pair_s <= seconds:
        plain.append(run_worker(spec))
        traced.append(run_worker(dict(spec, trace=True)))
        pair_s = plain[-1]["duration"] + traced[-1]["duration"]
    per_pass = [{name: value * t["scale"] if name.endswith("_s") else value
                 for name, value in layer_metrics(merge([t["trace"]])).items()} for t in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    plain_s = [p["wall_s"] for p in plain]
    traced_s = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_s"] = traced_s - statistics.median(plain_s)
    # Two untraced passes of the same operations differ by this much; an
    # overhead no larger than that is not resolved.
    noise = max(plain_s) - min(plain_s)
    share = property_share(workload, merge([t["trace"] for t in traced]))
    metrics["workload.property_share"] = share
    notes = {
        "workload.property_share": f"{PROPERTY[workload]} (floor {PROPERTY_FLOOR[workload]})",
        "trace.overhead_s": f"median of {len(traced)} traced {traced_s:.4f} s - median of "
                            f"{len(plain)} untraced {statistics.median(plain_s):.4f} s; untraced passes "
                            f"differ by {noise:.4f} s" + (", so unresolved" if abs(
                                metrics["trace.overhead_s"]) <= noise else ""),
    }
    for name in metrics:
        if name.endswith("_s") and name != "trace.overhead_s":
            notes[name] = f"median of {len(traced)} traced passes"
    ok = share >= PROPERTY_FLOOR[workload]
    return {"metrics": metrics, "notes": notes, "property_ok": ok}, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    package = ROOT / "src" / "thetadim" / "__init__.py"
    if not package.is_file():
        print(f"error: no thetadim sources at {package.parent}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    try:
        if args.trace:
            report, passes = trace(args.workload, args.seed, args.seconds)
        else:
            report, passes = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    unexpected = sum(p["unexpected"] for p in passes)
    correct = unexpected == 0 and report.get("property_ok", True)
    metrics = report["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for m in wanted:
        note = report["notes"].get(m["name"], "")
        print(f"  {m['name']:40s} {metrics[m['name']]:>14.6g} {m['unit']:10s} {note}")
    print(f"  {'failed_frac':40s} {failed / attempted:>14.6g} {'1':10s} {failed} of {attempted} ops")
    for error in sorted({e for p in passes for e in p["errors"]}):
        print(f"  failed: {error}")
    if not report.get("property_ok", True):
        print(f"  workload lost its property: {report['notes']['workload.property_share']} "
              f"is below {PROPERTY_FLOOR[args.workload]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
