r"""Fixed questions asked in every end-to-end run, whatever the workload.

``long_run_sample`` times the Church power 3^7 and the looping term Omega
on both ``lang`` back ends, ``tower`` checks 2^2^2^2 on both, and
``depth_probes`` finds the deepest nesting of five
constructs that still answers right.  None depends on the seed, so these
metrics read the same kind of number on every workload.

The probes run at the interpreter's default recursion limit, which the
benchmark never raises, and in this process: a ``RecursionError`` at the
boundary is the measurement, not a failure.  The limits depend on how deep
the caller's stack already is, so the probes are always called from the
same place in ``run.py``.
"""

from __future__ import annotations

import time

import calib
from partiality import cpo, lang, seq
from partiality import delay as D
from partiality.seq import Witness

from workloads import Failure, church, shift_n

# 2^2^2^2 with every numeral written out: 65536 after exactly 131 113 steps
TOWER = " ".join([church(2)] * 4) + r" (\n. suc n) 0"
TOWER_VALUE = 65536
TOWER_STEPS = 131_113
# 3^7 = 2187 (4 392 steps), the long run in each steps-per-second sample
# next to Omega; each run is short enough for its two kernel samples
POWER = f"{church(7)} {church(3)} (\\n. suc n) 0"
POWER_VALUE = 3**7
OMEGA_FUEL = 5_000

BACK_ENDS = {
    "eval_steps_per_s": lambda t: lang.evaluate(t),
    "vm_steps_per_s": lambda t: lang.execute(lang.compile_term(t)),
}


def long_run_sample() -> dict[str, float]:
    """Steps per second of each back end over 3^7 and Omega, one sample.

    Times are at nominal host speed (see ``calib``).
    """
    power = lang.parse(POWER)
    rates = {}
    for name, run in BACK_ENDS.items():
        r, ns_power = calib.timed(lambda: D.run_fuel(run(power), 10**6))
        omega, ns_omega = calib.timed(lambda: D.run_fuel(run(lang.OMEGA), OMEGA_FUEL))
        if r is D.TIMEOUT or r.value != lang.Nat(POWER_VALUE):
            raise Failure(f"{name}: 3^7 gave {r}")
        if omega is not D.TIMEOUT:
            raise Failure(f"{name}: omega gave {omega}")
        rates[name] = (r.steps + OMEGA_FUEL) / ((ns_power + ns_omega) / 1e9)
    return rates


def tower() -> dict[str, float]:
    """The tower on both back ends, checked for value and exact step count.

    Returns each back end's seconds; too long to repeat, so it is a check
    and a logged figure, not a metric.
    """
    t = lang.parse(TOWER)
    secs = {}
    for name, run in BACK_ENDS.items():
        t0 = time.perf_counter_ns()
        r = D.run_fuel(run(t), 2 * TOWER_STEPS)
        secs[name] = (time.perf_counter_ns() - t0) / 1e9
        if r != D.Converged(lang.Nat(TOWER_VALUE), TOWER_STEPS):
            raise Failure(f"{name}: tower gave {r}")
    return secs


# ---------------------------------------------------------------------------
# nesting probes
#
# Each attempt builds its structure afresh at depth ``d`` and returns
# ``(True, None)`` when the answer is right, ``(False, reached)`` on a
# RecursionError, and raises ``Failure`` on a wrong answer.  ``reached`` is a
# hint for the bisection when the attempt can tell how deep it got.


def _delay_bind(d: int):
    x = D.later(D.now(0))
    for _ in range(d):
        x = D.bind(x, lambda v: D.now(v + 1))
    try:
        r = D.run_fuel(x, 1)
    except RecursionError:
        return False, None
    if r != D.Converged(d, 1):
        raise Failure(f"left-nested bind of depth {d} gave {r}")
    return True, None


def _seq_bind(d: int):
    s = seq.unit(0)
    for _ in range(d):
        s = seq.bind(s, lambda v: seq.unit(v + 1))
    try:
        w = seq.converges_within(s, 0)
    except RecursionError:
        return False, None
    if w != Witness(d, 0):
        raise Failure(f"seq bind of depth {d} gave {w}")
    return True, None


def _shift(d: int):
    try:
        w = seq.converges_within(shift_n(seq.unit(7), d), d)
    except RecursionError:
        return False, None
    if w != Witness(7, d):
        raise Failure(f"shift^{d} gave {w}")
    return True, None


def _parse(d: int):
    try:
        t = lang.parse("suc (" * (d - 1) + "suc 0" + ")" * (d - 1))
    except RecursionError:
        return False, None
    for _ in range(d):
        if not isinstance(t, lang.Suc):
            raise Failure(f"parse of suc^{d} 0 is off")
        t = t.arg
    if t != lang.Lit(0):
        raise Failure(f"parse of suc^{d} 0 is off")
    return True, None


def _search(d: int):
    # the search recurses once per stream element it passes; the deepest
    # element the predicate saw before a RecursionError is where it stopped
    seen = [0]

    def pred(x):
        seen[0] = max(seen[0], x)
        return x == d

    index = (d + 1) * (d + 2) // 2
    try:
        w = seq.converges_within(cpo.search(pred, cpo.stream_iterate(0, lambda x: x + 1)), index)
    except RecursionError:
        return False, seen[0]
    if w != Witness(d, index):
        raise Failure(f"search to element {d} gave {w}")
    return True, None


# name -> (attempt, ceiling).  Ceilings keep a probe of a construct that no
# longer overflows within a few seconds; shift and search cost grows with
# the square of the depth.
PROBES = {
    "depth.delay_bind": (_delay_bind, 1 << 16),
    "depth.seq_bind": (_seq_bind, 1 << 16),
    "depth.shift": (_shift, 2048),
    "depth.parse": (_parse, 1 << 16),
    "depth.search": (_search, 1024),
}


def deepest(attempt, ceiling: int) -> int:
    """Largest depth up to ``ceiling`` at which ``attempt`` answers right.

    Gallops up by doubling from 1, then bisects between the last success and
    the first failure, trying a failure's hint first when it gives one.
    """
    lo, d = 0, 1
    while True:
        ok, hint = attempt(d)
        if not ok:
            hi = d
            break
        lo = d
        if d == ceiling:
            return ceiling
        d = min(2 * d, ceiling)
    while hi - lo > 1:
        hinted = hint is not None and lo < hint < hi
        m = hint if hinted else (lo + hi) // 2
        ok, reached = attempt(m)
        if ok:
            lo, hint = m, (m + 1 if hinted else None)
        else:
            hi, hint = m, reached
    return lo


def depth_probes() -> dict[str, int]:
    return {name: deepest(attempt, ceiling) for name, (attempt, ceiling) in PROBES.items()}
