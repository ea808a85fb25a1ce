"""Per-layer metrics, derived from a traced pass's spans and counts.

Each metric names the workload whose questions load its layer and the
end-to-end metric it should move.  A workload whose questions never touch a
layer takes that metric from a short traced sample of the owning workload,
so that every metric is a measurement in every run; the printed table says
where each value came from.  Plain counts are never borrowed: a workload
that does no such work reports 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

# What a CLI call does through the API, for ``cli.overhead_us``.
CLI_EQUIVALENT = {
    "cli.run": ("lang.parse", "lang.eval"),
    "cli.vm": ("lang.parse", "lang.compile_term", "lang.vm"),
    "cli.search": ("cpo.search",),
    "cli.ispositive": ("reals.is_positive",),
}


@dataclass
class Traced:
    """What one traced pass left behind."""

    self_times: dict  # span name -> (self ns, spans)
    counts: dict
    by_op: dict  # op id -> {span name: total ns}
    bytes_per_unit: dict  # metric name -> bytes per step or cell
    overhead: Optional[float] = None  # traced ops/s over untraced ops/s

    def self_ns(self, name: str) -> int:
        return self.self_times.get(name, (0, 0))[0]

    def spans(self, name: str) -> int:
        return self.self_times.get(name, (0, 0))[1]

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)


def _per(num: float, den: float, scale: float = 1.0) -> Optional[float]:
    return None if not den else num / den * scale


def _ns_per(span: str, counter: str) -> Callable[[Traced], Optional[float]]:
    return lambda t: _per(t.self_ns(span), t.count(counter))


def _us_per_span(span: str) -> Callable[[Traced], Optional[float]]:
    return lambda t: _per(t.self_ns(span), t.spans(span), 1e-3)


def _of_delay_ns_per_cell(t: Traced) -> Optional[float]:
    # agree_within's busy time net of the interpreter and VM steps under it
    if not t.spans("lang.agree_within"):
        return None
    eval_ns = _ns_per("lang.eval", "lang.eval.steps")(t) or 0.0
    vm_ns = _ns_per("lang.vm", "lang.vm.steps")(t) or 0.0
    net = (
        t.self_ns("lang.agree_within")
        - eval_ns * t.count("lang.eval.steps")
        - vm_ns * t.count("lang.vm.steps")
    )
    return _per(net, t.count("seq.of_delay.cells"))


def _cli_overhead_us(t: Traced) -> Optional[float]:
    extra, calls = 0, 0
    for spans in t.by_op.values():
        for name, api in CLI_EQUIVALENT.items():
            if name in spans:
                total, n = spans[name]
                extra += total - n * sum(spans.get(a, (0, 0))[0] for a in api)
                calls += n
    return _per(extra, calls, 1e-3)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    owner: str  # the workload whose questions load this layer
    moves: str  # the end-to-end metric it should move
    value: Callable[[Traced], Optional[float]]
    borrow: bool = True  # take it from the owner's sample when absent here


METRICS = (
    Metric("lang.parse_us", "us", "programs", "op_p50_ms", _us_per_span("lang.parse")),
    Metric("lang.compile_us", "us", "programs", "op_p50_ms", _us_per_span("lang.compile_term")),
    Metric("lang.eval.ns_per_step", "ns", "programs", "op_tail_ms ops_per_s eval_steps_per_s",
           _ns_per("lang.eval", "lang.eval.steps")),
    Metric("lang.vm.ns_per_step", "ns", "programs", "op_tail_ms ops_per_s vm_steps_per_s",
           _ns_per("lang.vm", "lang.vm.steps")),
    Metric("seq.of_delay.ns_per_cell", "ns", "programs", "op_tail_ms ops_per_s", _of_delay_ns_per_cell),
    Metric("lang.eval.steps", "count", "programs", "op_tail_ms",
           lambda t: t.count("lang.eval.steps"), borrow=False),
    Metric("lang.vm.steps", "count", "programs", "op_tail_ms",
           lambda t: t.count("lang.vm.steps"), borrow=False),
    Metric("lang.timeouts", "count", "programs", "op_tail_ms",
           lambda t: t.count("lang.timeouts"), borrow=False),
    Metric("lang.eval.recursion_errors", "count", "programs", "op_tail_ms",
           lambda t: t.count("lang.eval.recursion_errors"), borrow=False),
    Metric("cli.overhead_us", "us", "programs", "op_p50_ms", _cli_overhead_us),
    Metric("delay.step_ns", "ns", "deep", "eval_steps_per_s", _ns_per("delay.never", "delay.never.steps")),
    Metric("delay.bind.ns_per_step", "ns", "deep", "eval_steps_per_s",
           _ns_per("delay.bind", "delay.bind.steps")),
    Metric("lang.eval.bytes_per_step", "B", "deep", "peak_mem_mb",
           lambda t: t.bytes_per_unit.get("lang.eval.bytes_per_step")),
    Metric("lang.vm.bytes_per_step", "B", "deep", "peak_mem_mb",
           lambda t: t.bytes_per_unit.get("lang.vm.bytes_per_step")),
    Metric("seq.cell_ns", "ns", "chains", "ops_per_s", _ns_per("seq.bottom", "seq.bottom.cells")),
    Metric("seq.shift.ns_per_cell", "ns", "chains", "ops_per_s op_tail_ms",
           _ns_per("seq.shift", "seq.shift.cells")),
    Metric("seq.bind.ns_per_cell", "ns", "chains", "ops_per_s op_tail_ms",
           _ns_per("seq.bind", "seq.bind.cells")),
    Metric("seq.lub.ns_per_cell", "ns", "chains", "ops_per_s op_tail_ms", _ns_per("seq.lub", "seq.lub.cells")),
    Metric("cpo.search.ns_per_cell", "ns", "chains", "ops_per_s op_tail_ms",
           _ns_per("cpo.search", "cpo.search.cells")),
    Metric("seq.to_delay.ns_per_step", "ns", "chains", "ops_per_s", _ns_per("seq.to_delay", "seq.to_delay.steps")),
    Metric("seq.verdict_us", "us", "chains", "ops_per_s", _us_per_span("seq.verdict")),
    Metric("seq.lub.members_built", "count/op", "chains", "op_tail_ms",
           lambda t: _per(t.count("seq.lub.members"), t.spans("seq.lub"))),
    Metric("cpo.pred_calls_per_hit", "ratio", "chains", "op_tail_ms",
           lambda t: _per(t.count("cpo.pred_calls"), t.count("cpo.hit_positions"))),
    Metric("seq.bytes_per_cell", "B", "chains", "peak_mem_mb",
           lambda t: t.bytes_per_unit.get("seq.bytes_per_cell")),
    Metric("reals.ns_per_cell", "ns", "sign", "ops_per_s op_tail_ms", _ns_per("reals.is_positive", "reals.cells")),
    Metric("reals.queries", "count", "sign", "ops_per_s op_tail_ms",
           lambda t: t.count("reals.queries"), borrow=False),
    Metric("reals.queries_per_cell", "ratio", "sign", "ops_per_s op_tail_ms",
           lambda t: _per(t.count("reals.queries"), t.count("reals.cells"))),
    Metric("trace.overhead", "ratio", "all", "none: traced over untraced ops_per_s",
           lambda t: t.overhead, borrow=False),
)


def derive(own: Traced, samples: dict[str, Traced]) -> list[tuple[Metric, float, str]]:
    """Every metric as ``(metric, value, source)``; source is "own" or a workload."""
    out = []
    for m in METRICS:
        v, source = m.value(own), "own"
        if v is None and m.borrow:
            v, source = m.value(samples[m.owner]), m.owner
        out.append((m, 0.0 if v is None else v, source))
    return out
