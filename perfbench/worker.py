"""One workload process of the benchmark: set up, then run one pass.

    python3 perfbench/worker.py '<json spec>'

run.py starts one of these per pass, so every pass begins with empty
caches and keeps them warm until it ends.  The spec names the workload,
the seed, the parent's launch time, whether to stop after set-up, whether
to trace, and optionally a limit on the number of operations.  The result
is one JSON line on stdout.  A lookup pass calls the public API in this
process; a CLI pass starts one `python -m thetadim.cli` process per
operation (or, traced, one `worker.py` process that runs
`thetadim.cli.main` under the tracer).

Before the first operation and after each one, the worker times a fixed
piece of calibration work that does not use thetadim: a pure-Python loop
in a lookup pass, a bare interpreter launch in a CLI pass (whose
operations are mostly process start).  A set-up-only launch times two bare
launches after its set-up.  The calibration is not part of any operation's
time; run.py uses it to express the measured times at a fixed machine
speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from tracer import Tracer, merge, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"
OP_TIMEOUT_S = 60
CAL_LOOPS = 30_000
SETUP_CAL_LAUNCHES = 2


def calibrate_loop() -> float:
    """Seconds for a fixed pure-Python loop."""
    start = time.perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x = (x * 1103515245 + i) % 2147483648
    return time.perf_counter() - start


def calibrate_launch() -> float:
    """Seconds for a bare interpreter to start and exit."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT,
                   capture_output=True, check=True, timeout=OP_TIMEOUT_S)
    return time.monotonic() - start


def setup_result(spec: dict) -> dict:
    result = {"setup_s": time.monotonic() - spec["launched"]}
    if spec["setup_only"]:
        result.update(cal_kind="launch",
                      cal=[calibrate_launch() for _ in range(SETUP_CAL_LAUNCHES)])
    return result


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def check_package(module) -> None:
    """Refuse to measure a thetadim that is not the checkout's own."""
    if SRC not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"thetadim was imported from {module.__file__}, not from {SRC}")


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_lookup(thetadim, op, expected: int) -> tuple[float, str | None]:
    """Run one lookup; (latency, None) if the value matches, else (latency, reason)."""
    kind, g, n, d, k = op
    start = time.monotonic()
    try:
        value = getattr(thetadim, f"{kind}_dim")(thetadim.VerlindeQuery(g, n, d, k)).value
        error = None if value == expected else f"{op}: got {value}, expected {expected}"
    except Exception as exc:  # a raising operation is a failed one, not a crashed pass
        error = f"{op}: {type(exc).__name__}: {exc}"
    return time.monotonic() - start, error


def score_cli(argv, code: int, stdout: bytes, golden: tuple[int, bytes]) -> str | None:
    want_code, want_stdout = golden
    if code != want_code:
        return f"{W.argv_key(argv)}: exit {code}, expected {want_code}"
    if stdout != want_stdout:
        return f"{W.argv_key(argv)}: stdout differs from the golden bytes"
    return None


def lookup_pass(spec: dict) -> dict:
    start = time.monotonic()
    import thetadim

    import_s = time.monotonic() - start
    check_package(thetadim)
    workload = spec["workload"]
    refs = W.load_lookup_refs()
    ops = W.lookup_ops(workload, spec["seed"], refs)[: spec.get("limit")]
    expected = [dict(zip(("sl", "gl"), refs[workload][(g, n, k)]))[kind] for kind, g, n, d, k in ops]
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install(thetadim)
    result = setup_result(spec)
    if spec["setup_only"]:
        return result

    latencies, cpus, errors, cal = [], [], [], [calibrate_loop()]
    for op, want in zip(ops, expected):
        cpu0 = time.process_time()
        latency, error = timed_lookup(thetadim, op, want)
        cpus.append(time.process_time() - cpu0)
        latencies.append(latency)
        if error:
            errors.append(error)
        cal.append(calibrate_loop())
    result.update(
        cal_kind="loop",
        cpus=cpus,
        cal=cal,
        peak_rss_mb=peak_rss_mb(),
        latencies=latencies,
        errors=errors,
        unexpected=len(errors),
    )
    if tracer:
        summary = tracer.summary()
        summary["import_s"] = [import_s]
        result["trace"] = summary
        write_spans(SPANS_DIR / f"spans-{workload}-seed{spec['seed']}.jsonl",
                    [{"label": workload, "spans": tracer.spans}])
    return result


def run_cli_op(argv: list[str], trace: bool) -> tuple[int, bytes, dict | None]:
    """(exit code, stdout bytes, trace summary or None) of one CLI operation."""
    if trace:
        spec = json.dumps({"mode": "cli-one", "argv": argv})
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), spec], env=child_env(),
                              cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"traced CLI process failed:\n{proc.stderr.decode()[-2000:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        return out["exit"], out["stdout"].encode(), out
    proc = subprocess.run([sys.executable, "-m", "thetadim.cli", *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, timeout=OP_TIMEOUT_S)
    return proc.returncode, proc.stdout, None


def cpu_with_children() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def cli_pass(spec: dict) -> dict:
    ops = W.cli_session(spec["seed"])[: spec.get("limit")]
    golden = W.load_cli_golden()
    result = setup_result(spec)
    if spec["setup_only"]:
        return result

    latencies, cpus, errors, summaries, processes = [], [], [], [], []
    cal = [calibrate_launch()]
    unexpected = 0
    for slot, argv in ops:
        want_code, want_stdout = golden[W.argv_key(argv)]
        cpu0 = cpu_with_children()
        start = time.monotonic()
        try:
            code, stdout, traced = run_cli_op(argv, spec["trace"])
            error = score_cli(argv, code, stdout, (want_code, want_stdout))
        except subprocess.TimeoutExpired:
            traced, error = None, f"{W.argv_key(argv)}: no exit within {OP_TIMEOUT_S} s"
        latencies.append(time.monotonic() - start)
        cpus.append(cpu_with_children() - cpu0)
        if error:
            errors.append(error)
            unexpected += slot != W.KNOWN_DEFECT_SLOT
        if traced:
            summaries.append(traced["trace"])
            processes.append({"label": W.argv_key(argv), "spans": traced["spans"]})
        cal.append(calibrate_launch())
    result.update(
        cal_kind="launch",
        cpus=cpus,
        cal=cal,
        peak_rss_mb=max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN)),
        latencies=latencies,
        errors=errors,
        unexpected=unexpected,
    )
    if spec["trace"]:
        result["trace"] = merge(summaries)
        write_spans(SPANS_DIR / f"spans-cli-session-seed{spec['seed']}.jsonl", processes)
    return result


def cli_one(argv: list[str]) -> dict:
    """Run one argv through thetadim.cli.main under the tracer, stdout captured."""
    start = time.monotonic()
    import thetadim
    import thetadim.cli as cli

    import_s = time.monotonic() - start
    check_package(thetadim)
    tracer = Tracer()
    tracer.install(thetadim, cli)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = tracer.call("cli.main", cli.main, (argv,), {})
        except Exception:
            code = 1  # the exit status of an uncaught exception
    text = stdout.getvalue()
    summary = tracer.summary()
    summary["import_s"] = [import_s]
    summary["counts"]["cli.stdout_bytes"] = len(text.encode())
    return {"exit": code, "stdout": text, "trace": summary, "spans": tracer.spans}


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec.get("mode") == "cli-one":
        result = cli_one(spec["argv"])
    elif spec["workload"] in W.LOOKUPS:
        result = lookup_pass(spec)
    else:
        result = cli_pass(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
