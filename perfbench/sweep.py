"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/sweep.py                      # every workload, seeds 1..10
    python3 perfbench/sweep.py --trace --out perfbench/baseline.json

For each workload of BENCHMARK.json it runs `run.py` once per seed 1..10
(untraced, for BENCHMARK.json's run_seconds), checks that every run was correct, and
prints each end-to-end metric's median and its spread: the distance
between the first and third quartile as a share of the median.  With
--trace it adds one traced run per workload (the first seed) with the
per-layer metrics.  --out writes everything, with the machine it ran on,
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_iqr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    result["exit"] = proc.returncode
    return result


def machine() -> str:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{model or platform.processor()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"machine": machine(), "run_seconds": seconds, "seeds": list(SEEDS),
               "workloads": {}}
    ok = True
    for workload in (w["name"] for w in declared["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "failures": sorted({line.strip() for r in runs for line in r["report"]
                                     if line.strip().startswith("failed:")}),
                 "metrics": {}}
        print(f"{workload}: {len(runs)} runs, correct={entry['correct']}, "
              f"failed {entry['failed']} of {entry['attempted']}")
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            spread = relative_iqr(values) if len(values) > 1 else 0.0
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "median": statistics.median(values),
                "spread": spread, "bound": metric["bound"], "values": values}
            flag = ("  (spread above the bound)" if spread > metric["bound"] else
                    "  (spread above a third of the bound)" if spread > metric["bound"] / 3 else "")
            print(f"  {metric['name']:16s} median {statistics.median(values):12.6g} {metric['unit']:4s}"
                  f" spread {spread:6.3f} bound {metric['bound']}{flag}")
        if args.trace:
            traced = run(workload, SEEDS[0], seconds, 1)
            entry["traced"] = {"seed": SEEDS[0], "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                               "report": traced["report"]}
            print("\n".join(traced["report"]))
            ok &= traced["correct"]
        ok &= entry["correct"]
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
