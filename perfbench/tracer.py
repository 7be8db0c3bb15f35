"""Outside-in tracing of thetadim's layers.

Each public function is replaced, in the module that looks it up, by a
wrapper that records a span [name, start, end, parent] in memory; e.g.
`thetadim.verlinde.evaluate_sum` is the name `_certified_sum_value` calls,
and `thetadim.intervals.sin_enclosure` the one `evaluate_sum` (and the
sine's own refinement step) calls.  A span is named after the function's
home module, whichever namespace the call went through.  Counts are taken
at the same boundaries from arguments and results, so nothing inside the
program changes.  A layer's self time is its spans' durations minus the
time covered by their direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter

DISPATCH = ("verlinde.sl_dim", "verlinde.gl_dim", "verlinde.beauville_sum")
THETA = (
    "theta.pullback_split",
    "theta.theta_rescale",
    "theta.jacobian_pullback",
    "theta.complementary_invariants",
)
METHODS = ("trig-sum", "elliptic-closed-form", "theorem1-transfer", "trivial-rank-one")
DEEP_BITS = 128


class Tracer:
    """Spans and counts for one process; install() once, after import."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.ladders: dict[int, set] = {}  # evaluate_sum span -> precisions it asked for
        self.sum_terms: dict[int, int] = {}  # evaluate_sum span -> number of terms
        self._sin_cache_info = None
        self._unsupported = ()

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, on_enter=None, on_exit=None):
        spans, stack = self.spans, self.stack
        parent = stack[-1] if stack else -1
        index = len(spans)
        record = [name, 0.0, 0.0, parent]
        spans.append(record)
        stack.append(index)
        if on_enter:
            args = on_enter(index, args)
        result = error = None
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if on_exit:
                on_exit(index, parent, result, error)

    def _wrap(self, module, attr, name, on_enter=None, on_exit=None):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, on_enter, on_exit)

        setattr(module, attr, traced)

    def _wrap_sin(self, module):
        """The hot wrapper: one call per sine factor, so kept inline."""
        original = module.sin_enclosure
        spans, stack, ladders = self.spans, self.stack, self.ladders
        clock = time.perf_counter

        def sin_enclosure(*args, **kwargs):
            parent = stack[-1] if stack else -1
            ladder = ladders.get(parent)
            if ladder is not None:
                ladder.add(args[2] if len(args) > 2 else kwargs["precision_bits"])
            record = ["intervals.sin_enclosure", 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        module.sin_enclosure = sin_enclosure
        self._sin_cache_info = original.cache_info

    # -- hooks ---------------------------------------------------------------

    def _enter_sum(self, index, args):
        terms = list(args[0])
        self.ladders[index] = set()
        self.sum_terms[index] = len(terms)
        self.counts["evaluate_sum.terms"] += len(terms)
        self.counts["evaluate_sum.factors"] += sum(len(term.factors) for _, term in terms)
        return (terms, *args[1:])

    def _exit_sum(self, index, parent, result, error):
        counts = self.counts
        terms = self.sum_terms.pop(index)
        # A sum without sine factors certifies at its first precision.
        steps = len(self.ladders.pop(index)) or 1
        counts["evaluate_sum.ladder_steps"] += steps
        counts["evaluate_sum.single_step"] += steps == 1
        counts["evaluate_sum.term_evals"] += terms * steps
        counts["evaluate_sum.useful_term_evals"] += terms
        if result is not None:
            counts["evaluate_sum.results"] += 1
            counts["evaluate_sum.final_bits"] += result.precision_bits
            counts["evaluate_sum.deep"] += result.precision_bits >= DEEP_BITS

    def _exit_certify(self, index, parent, result, error):
        self.counts["certify_integer.failures"] += error is not None

    def _exit_dispatch(self, index, parent, result, error):
        if parent >= 0 and self.spans[parent][0] in DISPATCH:
            return  # only the result the caller outside verlinde receives
        if isinstance(error, self._unsupported):
            self.counts["verlinde.unsupported"] += 1
        elif result is not None:
            self.counts[f"verlinde.method.{result.method}"] += 1

    def _exit_sweep(self, index, parent, result, error):
        if result is not None:
            self.counts["checks.instances_run"] += result.instances_run
            self.counts["checks.skipped_unsupported"] += result.skipped_unsupported

    def install(self, thetadim, cli=None) -> None:
        """Wrap the layer boundaries of an imported thetadim (and its CLI)."""
        from thetadim import checks, intervals, verlinde

        self._unsupported = verlinde.UnsupportedQuery
        self._wrap_sin(intervals)
        self._wrap(verlinde, "evaluate_sum", "intervals.evaluate_sum", self._enter_sum, self._exit_sum)
        self._wrap(verlinde, "certify_integer", "intervals.certify_integer", on_exit=self._exit_certify)
        self._wrap(verlinde, "verlinde_sum_terms", "verlinde.verlinde_sum_terms")
        dispatchers = [(verlinde, "beauville_sum"), (verlinde, "sl_dim"),
                       (checks, "beauville_sum"), (checks, "sl_dim"), (checks, "gl_dim"),
                       (thetadim, "sl_dim"), (thetadim, "gl_dim")]
        if cli is not None:
            dispatchers += [(cli, "sl_dim"), (cli, "gl_dim")]
            self._wrap(cli, "grid_sweep", "checks.grid_sweep", on_exit=self._exit_sweep)
            for name in THETA:
                self._wrap(cli, name.split(".")[1], name)
        for module, attr in dispatchers:
            self._wrap(module, attr, f"verlinde.{attr}", on_exit=self._exit_dispatch)

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        """Additive per-process totals: self time and calls per span name, and counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - covered[index]
            calls[name] += 1
        counts = Counter(self.counts)
        if self._sin_cache_info is not None:
            info = self._sin_cache_info()
            counts["sin_enclosure.hits"] += info.hits
            counts["sin_enclosure.misses"] += info.misses
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts)}


def merge(summaries: list[dict]) -> dict:
    total = {"self_s": Counter(), "calls": Counter(), "counts": Counter(), "import_s": []}
    for summary in summaries:
        for key in ("self_s", "calls", "counts"):
            total[key].update(summary.get(key, {}))
        total["import_s"] += summary.get("import_s", [])
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(total: dict) -> dict[str, float]:
    """Per-layer metrics from merged process summaries."""
    self_s, calls, counts = total["self_s"], total["calls"], total["counts"]
    sums = calls["intervals.evaluate_sum"]
    hits, misses = counts["sin_enclosure.hits"], counts["sin_enclosure.misses"]
    imports = sorted(total["import_s"])
    metrics = {
        "intervals.evaluate_sum.self_s": self_s["intervals.evaluate_sum"],
        "intervals.evaluate_sum.calls": sums,
        "intervals.evaluate_sum.terms": counts["evaluate_sum.terms"],
        "intervals.evaluate_sum.factors": counts["evaluate_sum.factors"],
        "intervals.evaluate_sum.ladder_steps": _ratio(counts["evaluate_sum.ladder_steps"], sums),
        "intervals.evaluate_sum.final_bits": _ratio(
            counts["evaluate_sum.final_bits"], counts["evaluate_sum.results"]),
        "intervals.evaluate_sum.useful_ratio": _ratio(
            counts["evaluate_sum.useful_term_evals"], counts["evaluate_sum.term_evals"]),
        "intervals.sin_enclosure.calls": calls["intervals.sin_enclosure"],
        "intervals.sin_enclosure.misses": misses,
        "intervals.sin_enclosure.hit_ratio": _ratio(hits, hits + misses),
        "intervals.sin_enclosure.self_s": self_s["intervals.sin_enclosure"],
        "intervals.certify_integer.calls": calls["intervals.certify_integer"],
        "intervals.certify_integer.failures": counts["certify_integer.failures"],
        "verlinde.dispatch_self_s": sum(self_s[name] for name in DISPATCH),
        "verlinde.verlinde_sum_terms.self_s": self_s["verlinde.verlinde_sum_terms"],
        "verlinde.sum_cache_hit_ratio": (
            1.0 - _ratio(sums, calls["verlinde.beauville_sum"]) if calls["verlinde.beauville_sum"] else 0.0),
        "verlinde.unsupported": counts["verlinde.unsupported"],
        "checks.grid_sweep.self_s": self_s["checks.grid_sweep"],
        "checks.instances_run": counts["checks.instances_run"],
        "checks.skipped_unsupported": counts["checks.skipped_unsupported"],
        "theta.self_s": sum(self_s[name] for name in THETA),
        "cli.main.self_s": self_s["cli.main"],
        "cli.import_s": imports[len(imports) // 2] if imports else 0.0,
        "cli.stdout_bytes": counts["cli.stdout_bytes"],
    }
    for method in METHODS:
        metrics[f"verlinde.method.{method}"] = counts[f"verlinde.method.{method}"]
    return metrics


def write_spans(path, processes: list[dict]) -> None:
    """One JSON line per traced process: {"label": ..., "spans": [[name, start, end, parent], ...]}."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for process in processes:
            out.write(json.dumps(process) + "\n")
