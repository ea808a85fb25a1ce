"""Benchmark for the partiality toolkit, run from the root of a checkout.

    python3 perfbench/run.py --workload programs --seed 1 --seconds 12 --trace 0

Single process, single thread, closed loop: one caller asks one question at
a time and waits for the answer.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # import from source on every run; write nothing

import argparse
import gc
import importlib
import json
import math
import os
import platform
import statistics
import time
import traceback

import calib
from spans import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 5
LONG_RUN_SAMPLES = 9
SAMPLE_OPS = 64  # questions in the traced sample of each other workload
FAILURES_SHOWN = 5
_failures = 0


def log(msg: str) -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# set-up: import the toolkit and make the inputs from the seed


def make_inputs(workload: str, seed: int):
    wl = importlib.import_module("workloads")
    w = wl.WORKLOADS[workload]
    return wl, w, w.make_pool(seed, w.pool_size)


def setup(workload: str, seed: int):
    """Import plus input generation, ``SETUP_REPS`` times from scratch.

    Returns the median set-up time at nominal host speed (see ``calib``) and
    the last import's workload module, workload and pool; everything later
    uses those same module objects.
    """
    times = []
    for _ in range(SETUP_REPS):
        for mod in list(sys.modules):
            if mod.split(".")[0] in ("partiality", "workloads"):
                del sys.modules[mod]
        (wl, w, pool), ns = calib.timed(lambda: make_inputs(workload, seed))
        times.append(ns)
    pkg = os.path.dirname(os.path.abspath(sys.modules["partiality"].__file__))
    if pkg != os.path.join(SRC, "partiality"):
        raise ImportError(f"partiality was imported from {pkg}, not from {SRC}")
    return statistics.median(times) / 1e9, wl, w, pool


# ---------------------------------------------------------------------------
# the closed loop


def ask(op, tr, q) -> tuple[int, bool]:
    """One question: (latency in ns, answered right)."""
    t0 = time.perf_counter_ns()
    try:
        with tr.span("op"):
            op(tr, q)
        ok = True
    except Exception:  # a wrong answer or any other error fails this op only
        global _failures
        _failures += 1
        if _failures <= FAILURES_SHOWN:
            print(f"op failed on {q!r:.200}:\n{traceback.format_exc()}", file=sys.stderr)
        ok = False
    return time.perf_counter_ns() - t0, ok


class Timed:
    """Pool questions asked in order, cycling, until ``seconds`` have passed.

    Latencies are kept at nominal host speed: the reference kernel runs
    before and after each block of about ``calib.BLOCK_NS`` of questions.
    Percentiles are over pool questions, each at its mean latency, so a
    question asked once more in the last, partial cycle does not count twice.
    """

    def __init__(self, op, pool, seconds: float):
        self.spent = [0.0] * len(pool)  # ns at nominal speed, per question
        self.times = [0] * len(pool)
        self.failed = 0
        null = NullTracer()
        self.counts = null.counts
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        before = calib.kernel_ns()
        k = 0
        while True:
            block: list[tuple[int, int]] = []
            block_end = time.perf_counter_ns() + calib.BLOCK_NS
            while True:
                ns, ok = ask(op, null, pool[k])
                block.append((k, ns))
                k = (k + 1) % len(pool)
                self.failed += not ok
                now = time.perf_counter_ns()
                if now >= block_end or now >= deadline:
                    break
            after = calib.kernel_ns()
            f = calib.scale(before, after)
            for q, ns in block:
                self.spent[q] += ns * f
                self.times[q] += 1
            before = after
            if now >= deadline:
                break
        self.asked = sum(self.times)
        self.means = sorted(t / n for t, n in zip(self.spent, self.times) if n)

    def ops_per_s(self) -> float:
        return self.asked / (sum(self.spent) / 1e9)

    def percentile_ms(self, p: float) -> float:
        xs = self.means  # nearest rank
        return xs[min(len(xs), max(1, math.ceil(len(xs) * p / 100))) - 1] / 1e6


def ask_all(op, pool, tr) -> tuple[int, int]:
    """Each question once: (asked, failed)."""
    failed = 0
    for k, q in enumerate(pool):
        tr.begin_op(k)
        failed += not ask(op, tr, q)[1]
    return len(pool), failed


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def end_to_end(wl, w, pool, seconds: float, setup_s: float):
    import reference  # after set-up, so that it binds the last import of the toolkit

    # the reference long runs first, on a heap the workload has not churned yet
    attempted = failed = 0
    rates: dict[str, list] = {name: [] for name in reference.BACK_ENDS}
    for _ in range(LONG_RUN_SAMPLES):
        attempted += 2
        try:
            for name, rate in reference.long_run_sample().items():
                rates[name].append(rate)
        except wl.Failure as err:
            print(f"long runs: {err}", file=sys.stderr)
            failed += 2

    timed = Timed(w.op, pool, seconds)
    attempted, failed = attempted + timed.asked, failed + timed.failed
    log(f"timed: {timed.asked} asks of {len(timed.means)} questions from a pool of {len(pool)}; "
        "op_tail_ms is p99")
    if timed.counts["lang.eval.recursion_errors"]:
        log(f"interpreter RecursionError (known nesting defect) on "
            f"{timed.counts['lang.eval.recursion_errors']} questions")

    # memory: separate passes under tracemalloc, never the timed one; the
    # fixed long question sets the peak unless the pool's questions top it
    peaks = []
    for op, questions in ((w.op, pool[: w.mem_ops]), (lambda tr, q: w.mem_long(), [None])):
        gc.collect()
        result = []
        peaks.append(wl.traced_peak(lambda: result.append(ask_all(op, questions, NullTracer()))))
        n, bad = result[0]
        attempted, failed = attempted + n, failed + bad
    peak = max(peaks)

    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (timed.ops_per_s(), "1/s"),
        "op_p50_ms": (timed.percentile_ms(50), "ms"),
        "op_tail_ms": (timed.percentile_ms(99), "ms"),
        "peak_mem_mb": (peak / 2**20, "MB"),
    }
    for name, xs in rates.items():
        metrics[name] = (statistics.median(xs) if xs else 0.0, "1/s")
    if w.name == "deep":  # the one check too slow to repeat in every workload
        attempted += 2
        try:
            secs = reference.tower()
            log("tower 2^2^2^2: " + ", ".join(f"{k.split('_')[0]} {v:.2f} s" for k, v in secs.items()))
        except wl.Failure as err:
            print(f"tower: {err}", file=sys.stderr)
            failed += 2
    attempted += len(reference.PROBES)
    try:
        for name, v in reference.depth_probes().items():
            metrics[name] = (v, "levels")
    except wl.Failure as err:
        print(f"depth probes: {err}", file=sys.stderr)
        failed += len(reference.PROBES)
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def as_traced(layers, w, tr: Tracer):
    return layers.Traced(
        self_times=tr.self_times(),
        counts=dict(tr.counts),
        by_op=tr.durations_by_op(),
        bytes_per_unit={name: fn() for name, fn in w.layer_bytes.items()},
    )


def per_layer(wl, w, pool, seed: int):
    import layers

    # each question untraced and traced, alternating which goes first, so
    # that the overhead ratio compares like with like
    tr, null = Tracer(), NullTracer()
    spent = {True: 0, False: 0}
    failed = 0
    for k, q in enumerate(pool[: w.trace_ops]):
        for traced in (k % 2 == 0, k % 2 == 1):
            tr.begin_op(k)
            ns, ok = ask(w.op, tr if traced else null, q)
            spent[traced] += ns
            failed += not ok
    attempted = 2 * min(w.trace_ops, len(pool))
    own = as_traced(layers, w, tr)
    own.overhead = spent[False] / spent[True]

    samples = {w.name: own}
    for other in wl.WORKLOADS.values():
        if other.name != w.name:
            sample_tr = Tracer()
            n, bad = ask_all(other.op, other.make_pool(seed, SAMPLE_OPS), sample_tr)
            samples[other.name] = as_traced(layers, other, sample_tr)
            attempted, failed = attempted + n, failed + bad

    rows = layers.derive(own, samples)
    self_times = sorted(own.self_times.items(), key=lambda kv: -kv[1][0])
    total = sum(ns for ns, _ in own.self_times.values()) or 1
    log(f"traced: {w.trace_ops} questions; traced ops_per_s is {own.overhead:.3f}x untraced")
    log("self time per layer (span name, ms, share, spans):")
    for name, (ns, count) in self_times:
        log(f"  {name:24} {ns / 1e6:10.2f} {100 * ns / total:6.1f}% {count:8d}")
    log("per-layer metrics (name, value, unit, source, moves):")
    for m, v, source in rows:
        log(f"  {m.name:26} {v:14.3f} {m.unit:8} {source:9} {m.moves}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{w.name}.jsonl")
    tr.write(path, {
        "workload": w.name, "seed": seed, "columns": ["name", "start_ns", "end_ns", "parent", "op"],
        "self_ns": {name: ns for name, (ns, _) in own.self_times.items()},
    })
    log(f"spans written to {os.path.relpath(path, ROOT)}")
    metrics = {m.name: (v, m.unit) for m, v, _ in rows}
    return metrics, attempted, failed


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=("programs", "deep", "chains", "sign"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path[:0] = [HERE, SRC]
    try:
        setup_s, wl, w, pool = setup(args.workload, args.seed)
    except ImportError as err:
        print(f"error: cannot import the toolkit: {err}", file=sys.stderr)
        return 2
    log(f"python {platform.python_version()} on {platform.machine()}, nproc {os.cpu_count()}, "
        f"workload {w.name}, seed {args.seed}, pool {len(pool)}, set-up {setup_s:.4f} s")
    # The pool and the modules are inputs and code, not the toolkit's working
    # set; frozen, they are not rescanned by every collection while timing.
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, attempted, failed = per_layer(wl, w, pool, args.seed)
    else:
        metrics, attempted, failed = end_to_end(wl, w, pool, args.seconds, setup_s)
        for name, (v, unit) in metrics.items():
            log(f"  {name:20} {v:16.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
