"""Alternating parent/change pairs of perfbench runs, summed up per metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workloads programs,chains \
        --seeds 411-420 --seconds 12 --out BENCH_40.json --claim programs:op_tail_ms

PARENT_DIR and CHANGE_DIR are two checkouts, for instance two ``git archive``
copies.  For each workload and seed it runs ``perfbench/run.py`` once in each
checkout, one run at a time, under ``PYTHONHASHSEED=0``; the pairs alternate
which side runs first, starting with the parent.  It prints, for every
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles,
how many pairs the change won, and whether the change's median is within
the metric's bound, and per workload and side the operations attempted and
failed.  With ``--out`` it writes every run's final JSON line and the
summary.  With ``--claim W:M`` the summary names that metric as the claim,
with ``claim_met``: the change won at least 9 of every 10 pairs, ties
counting for neither side, and its median is better than the parent's by
more than the parent's IQR.  It exits 1, after writing ``--out``, if any
run was not correct, since the numbers of a wrong run do not count.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HASH_SEED = "0"


def seeds(text: str) -> list[int]:
    # "411-420" or "411,413,415"
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)  # the run imports the checkout's own src
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def summarise(runs: list[dict], spec: dict) -> dict:
    """Per workload and metric: medians, quartiles, wins and the bound check."""
    out = {}
    for w in sorted({r["workload"] for r in runs}):
        out[w] = {}
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            pairs = {}
            for r in runs:
                if r["workload"] == w and name in r["result"]["metrics"]:
                    pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
            both = [p for p in pairs.values() if len(p) == 2]
            if not both:
                continue
            par = [p["parent"] for p in both]
            chg = [p["change"] for p in both]
            wins = sum((p["change"] > p["parent"]) if higher else (p["change"] < p["parent"]) for p in both)
            ties = sum(p["change"] == p["parent"] for p in both)
            pq, cq = quartiles(par), quartiles(chg)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            worse = -delta if higher else delta
            out[w][name] = {
                "parent_median": pq[1], "change_median": cq[1], "delta": round(delta, 4),
                "change_wins": wins, "ties": ties, "pairs": len(both),
                "parent_quartiles": pq, "change_quartiles": cq, "parent_iqr": pq[2] - pq[0],
                "bound": m["bound"], "within_bound": worse <= m["bound"],
            }
    return out


def totals(runs: list[dict]) -> dict:
    """Per workload and side: the runs, the operations attempted and failed,
    and the runs that were not correct."""
    out = {}
    for r in runs:
        t = out.setdefault(r["workload"], {}).setdefault(
            r["side"], {"runs": 0, "attempted": 0, "failed": 0, "incorrect_runs": 0})
        t["runs"] += 1
        t["attempted"] += r["result"]["attempted"]
        t["failed"] += r["result"]["failed"]
        t["incorrect_runs"] += r["result"]["correct"] is not True
    return out


def claimed(text: str, medians: dict, spec: dict) -> dict | None:
    """The summary of the metric that ``W:M`` names, with ``claim_met``, or
    ``None`` if no pair measured it."""
    w, _, m = text.partition(":")
    s = medians.get(w, {}).get(m)
    if s is None:
        return None
    higher = any(x["name"] == m and x["better"] == "higher" for x in spec["end_to_end"])
    gap = s["change_median"] - s["parent_median"]
    met = 10 * s["change_wins"] >= 9 * s["pairs"] and (gap if higher else -gap) > s["parent_iqr"]
    return dict(workload=w, metric=m, **s, claim_met=met)


def write(args, spec: dict, medians: dict, runs: list[dict]) -> None:
    """The ``BENCH_<pr>.json`` document: how the runs were made, the summary
    and every run's final JSON line."""
    doc = {
        "what": f"Final JSON line of each perfbench run: {len(args.seeds)} alternating parent/change "
                f"pairs on each of {args.workloads}, untraced, {args.seconds:g} s.",
        "command": f"PYTHONHASHSEED={HASH_SEED} python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "pythonhashseed": int(HASH_SEED),
        "parent": args.parent_name or args.parent,
        "change": args.change_name or args.change,
        "environment": f"Python {platform.python_version()}, {platform.machine()}, "
                       f"{os.cpu_count()} CPUs; each side run from its own checkout; runs one at a time",
        "pairing": f"seeds {args.seeds[0]}-{args.seeds[-1]} on every workload; within each workload "
                   "the pairs alternate which side runs first, starting with the parent",
        "quartiles": "parent_iqr is the distance between the parent's first and third quartiles "
                     "(statistics.quantiles, method inclusive)",
    }
    if args.claim and (claim := claimed(args.claim, medians, spec)):
        doc["claimed"] = claim
    doc["totals"] = totals(runs)
    doc["medians"] = medians
    doc["runs"] = runs
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", required=True, type=seeds, help="e.g. 411-420 or 411,412")
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--out", help="the BENCH_<pr>.json file to write")
    p.add_argument("--claim", help="WORKLOAD:METRIC, the metric the change claims")
    p.add_argument("--parent-name", default="", help="what the parent side is, e.g. its commit")
    p.add_argument("--change-name", default="", help="what the change side is")
    args = p.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for w in args.workloads.split(","):
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for j, side in enumerate(order):
                result = run_once(sides[side], w, seed, args.seconds)
                runs.append({"workload": w, "seed": seed, "side": side,
                             "ran": "first" if j == 0 else "second", "trace": 0, "result": result})
                print(f"{w} seed {seed} {side}: failed {result['failed']} of {result['attempted']}",
                      file=sys.stderr, flush=True)
                if args.out:
                    write(args, spec, summarise(runs, spec), runs)
    medians = summarise(runs, spec)
    for w, metrics in medians.items():
        print(f"== {w}")
        for name, s in metrics.items():
            pq, cq = s["parent_quartiles"], s["change_quartiles"]
            print(f"{name:18s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {s['delta']:+.2%}  "
                  f"won {s['change_wins']}/{s['pairs']}  {'within' if s['within_bound'] else 'PAST'} bound")
    for w, sides in totals(runs).items():
        for side, t in sides.items():
            print(f"{w} {side}: failed {t['failed']} of {t['attempted']}, "
                  f"{t['incorrect_runs']} of {t['runs']} runs incorrect")
    if args.claim and (claim := claimed(args.claim, medians, spec)):
        print(f"claim {args.claim}: claim_met {str(claim['claim_met']).lower()}")
    if any(r["result"]["correct"] is not True for r in runs):
        print("a run was not correct: its numbers do not count", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
