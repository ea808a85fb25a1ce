"""``tools/bench_pairs.py``'s seed list and summary, on synthetic runs: no
subprocess is started."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "better": "higher", "bound": 0.2},
    {"name": "op_p50_ms", "better": "lower", "bound": 0.2},
]}


def runs(workload, values):
    # one run per (seed, side, {metric: value})
    return [{"workload": workload, "seed": seed, "side": side,
             "result": {"metrics": {m: {"value": v} for m, v in metrics.items()}}}
            for seed, side, metrics in values]


def test_seeds_reads_a_range_or_a_list():
    assert bench_pairs.seeds("411-414") == [411, 412, 413, 414]
    assert bench_pairs.seeds("7") == [7]
    assert bench_pairs.seeds("411,413,415") == [411, 413, 415]


def test_summarise_counts_wins_and_ties_by_each_metrics_direction():
    out = bench_pairs.summarise(runs("deep", [
        (1, "parent", {"ops_per_s": 100, "op_p50_ms": 2.0}),
        (1, "change", {"ops_per_s": 110, "op_p50_ms": 1.5}),
        (2, "parent", {"ops_per_s": 100, "op_p50_ms": 2.0}),
        (2, "change", {"ops_per_s": 100, "op_p50_ms": 2.5}),
        (3, "change", {"ops_per_s": 120, "op_p50_ms": 1.0}),
        (3, "parent", {"ops_per_s": 90, "op_p50_ms": 2.0}),
    ]), SPEC)["deep"]
    ops, p50 = out["ops_per_s"], out["op_p50_ms"]
    assert (ops["change_wins"], ops["ties"], ops["pairs"]) == (2, 1, 3)
    assert (p50["change_wins"], p50["ties"], p50["pairs"]) == (2, 0, 3)
    # delta is the change in the median, whichever direction is better
    assert (ops["parent_median"], ops["change_median"], ops["delta"]) == (100, 110, 0.1)
    assert (p50["parent_median"], p50["change_median"], p50["delta"]) == (2.0, 1.5, -0.25)
    assert ops["within_bound"] and p50["within_bound"]
    assert p50["parent_iqr"] == 0.0


def test_summarise_checks_the_bound_against_the_worse_direction():
    def one(parent, change):
        return bench_pairs.summarise(runs("w", [
            (1, "parent", {"ops_per_s": parent, "op_p50_ms": parent}),
            (1, "change", {"ops_per_s": change, "op_p50_ms": change}),
        ]), SPEC)["w"]

    fell, rose = one(100, 79), one(100, 121)
    assert fell["ops_per_s"]["delta"] == pytest.approx(-0.21)
    assert not fell["ops_per_s"]["within_bound"] and fell["op_p50_ms"]["within_bound"]
    assert rose["ops_per_s"]["within_bound"] and not rose["op_p50_ms"]["within_bound"]
    edge = one(100, 120)  # a change of exactly the bound is within it
    assert edge["op_p50_ms"]["within_bound"]


def test_summarise_keeps_only_complete_pairs_and_present_metrics():
    out = bench_pairs.summarise(runs("w", [
        (1, "parent", {"ops_per_s": 100}),
        (1, "change", {"ops_per_s": 200}),
        (2, "parent", {"ops_per_s": 1}),  # its change run is missing
    ]), SPEC)
    assert list(out["w"]) == ["ops_per_s"]
    assert out["w"]["ops_per_s"]["pairs"] == 1
    assert out["w"]["ops_per_s"]["change_quartiles"] == [200, 200, 200]


def pairs(parent, change):
    # one pair per seed: the parent's and the change's ops_per_s and op_p50_ms
    return runs("w", [(seed, side, {"ops_per_s": v, "op_p50_ms": v})
                      for seed, (p, c) in enumerate(zip(parent, change))
                      for side, v in (("parent", p), ("change", c))])


@pytest.mark.parametrize("gain, met", [
    ([10] * 10, True),  # won 10 of 10, the gap past the parent's IQR
    ([10] * 9 + [-1], True),  # won 9 of 10
    ([10] * 8 + [-1] * 2, False),  # won 8 of 10
    ([10] * 9 + [0], True),  # a tie counts for neither side: 9 of 10
    ([10] * 8 + [0] * 2, False),  # 8 won and 2 ties
    ([1] * 10, False),  # won 10 of 10, but the gap is inside the parent's IQR
], ids=["met", "nine", "eight", "nine-and-a-tie", "eight-and-two-ties", "inside-the-iqr"])
def test_claim_met_needs_nine_of_ten_pairs_and_a_gap_past_the_parents_iqr(gain, met):
    parent = [100, 98, 102, 100, 97, 103, 100, 100, 99, 101]  # median 100, IQR 1.5
    change = [p + g for p, g in zip(parent, gain)]
    medians = bench_pairs.summarise(pairs(parent, change), SPEC)
    assert medians["w"]["ops_per_s"]["parent_iqr"] == 1.5
    higher = bench_pairs.claimed("w:ops_per_s", medians, SPEC)
    assert (higher["workload"], higher["metric"], higher["claim_met"]) == ("w", "ops_per_s", met)
    # a lower-is-better metric is met by the mirror image of the same runs
    mirror = bench_pairs.summarise(pairs([200 - p for p in parent], [200 - c for c in change]), SPEC)
    assert bench_pairs.claimed("w:op_p50_ms", mirror, SPEC)["claim_met"] is met
    assert bench_pairs.claimed("w:op_p50_ms", medians, SPEC)["claim_met"] is False  # the wrong way
    assert bench_pairs.claimed("x:ops_per_s", medians, SPEC) is None
