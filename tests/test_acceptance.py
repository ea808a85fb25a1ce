"""End-to-end acceptance gates.

One test per shipping criterion, sample counts and fuel bounds pinned in
the constants below; each prints its own PASS/FAIL line (visible with
``pytest -s``) and fails loudly with the offending cases.
"""

import random
import time
from fractions import Fraction

from partiality import cpo, delay as D, lang, reals, seq
from partiality.seq import Verdict, Witness
from helpers import prefix, rand_delay, rand_kleisli, rand_seq, shift_n


def _report(tag: str, bad: list, extra: str = ""):
    ok = not bad
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}{' ' + extra if extra else ''}")
    assert ok, f"{tag}: {len(bad)} failing cases, first few: {bad[:5]}"


# 1 -------------------------------------------------------------------------

N_ROUNDTRIP = 1000
ROUNDTRIP_BOUND = 64
ROUNDTRIP_BUDGET_S = 10.0


def test_criterion_1_conversion_roundtrips():
    rng = random.Random(101)
    t0 = time.monotonic()
    bad = []
    for i in range(N_ROUNDTRIP):
        s, _, _ = rand_seq(rng)
        rt = seq.of_delay(seq.to_delay(s))
        for n in [rng.randrange(ROUNDTRIP_BOUND + 1) for _ in range(8)] + [0, ROUNDTRIP_BOUND]:
            if rt.at(n) != s.at(n):
                bad.append(("seq", i, n))
                break
        d, _, _ = rand_delay(rng)
        rtd = seq.to_delay(seq.of_delay(d))
        fuel = rng.randrange(ROUNDTRIP_BOUND + 1)
        if D.run_fuel(rtd, fuel) != D.run_fuel(d, fuel):
            bad.append(("delay", i, fuel))
    elapsed = time.monotonic() - t0
    if elapsed >= ROUNDTRIP_BUDGET_S:
        bad.append(("slow", elapsed))
    _report("C1 roundtrips", bad, f"{N_ROUNDTRIP} samples in {elapsed:.2f}s")


# 2 -------------------------------------------------------------------------

N_MONAD = 1000
MONAD_PREFIX = 64


def test_criterion_2_monad_laws_pointwise():
    rng = random.Random(202)
    bad = []
    for i in range(N_MONAD):
        s, _, _ = rand_seq(rng)
        f, g = rand_kleisli(rng), rand_kleisli(rng)
        a = rng.randrange(12)
        if prefix(seq.bind(seq.unit(a), f), MONAD_PREFIX) != prefix(f(a), MONAD_PREFIX):
            bad.append(("left-id", i))
        if prefix(seq.bind(s, seq.unit), MONAD_PREFIX) != prefix(s, MONAD_PREFIX):
            bad.append(("right-id", i))
        lhs = seq.bind(seq.bind(s, f), g)
        rhs = seq.bind(s, lambda x: seq.bind(f(x), g))
        if prefix(lhs, MONAD_PREFIX) != prefix(rhs, MONAD_PREFIX):
            bad.append(("assoc", i))
    _report("C2 monad laws", bad, f"{N_MONAD} triples, prefix {MONAD_PREFIX}")


# 3 -------------------------------------------------------------------------

N_FLAT = 1000
FLAT_FUEL_MAX = 1024


def test_criterion_3_unit_injectivity_and_flat_order():
    rng = random.Random(303)
    bad = []
    for i in range(N_FLAT):
        a, b = rng.randrange(20), rng.randrange(20)
        if a != b and seq.terminates_with_within(seq.unit(a), b, 0) is not Verdict.FALSE:
            bad.append(("eta-inj", i, a, b))
        fuel = rng.randrange(FLAT_FUEL_MAX + 1)
        if seq.leq_within(seq.unit(a), seq.bottom(), fuel) is Verdict.TRUE:
            bad.append(("unit-vs-bottom", i, fuel))
        ka, kb = rng.randrange(10), rng.randrange(10)
        if a != b:
            v = seq.leq_within(
                shift_n(seq.unit(a), ka), shift_n(seq.unit(b), kb), max(ka, kb) + rng.randrange(20)
            )
            if v is not Verdict.FALSE:
                bad.append(("flat-refute", i, a, b, v))
    _report("C3 flat order", bad, f"{N_FLAT} samples, fuel <= {FLAT_FUEL_MAX}")


# 4 -------------------------------------------------------------------------

N_LUB = 1000
LUB_FUEL = 256


def test_criterion_4_lub_matches_brute_force_scan():
    rng = random.Random(404)
    bad = []
    for i in range(N_LUB):
        stage = rng.randrange(9)
        v = rng.randrange(10)
        base = rng.randrange(12)
        slope = rng.randrange(3)

        def conv_index(m, stage=stage, base=base, slope=slope):
            return max(0, base - slope * (m - stage))  # non-increasing along the chain

        def member(m, stage=stage, v=v, conv_index=conv_index):
            return shift_n(seq.unit(v), conv_index(m)) if m >= stage else seq.bottom()

        fuel = rng.randrange(LUB_FUEL + 1)
        got = seq.converges_within(seq.lub(member), fuel)
        want = None
        for n in range(fuel + 1):
            mi, mj = seq.cantor_unpair(n)
            if mi >= stage and mj >= conv_index(mi):
                want = Witness(v, n)
                break
        if got != want:
            bad.append((i, got, want))
        m = rng.randrange(12)
        if seq.leq_within(member(m), seq.lub(member), fuel) is Verdict.FALSE:
            bad.append(("upper-bound", i, m))
    _report("C4 lub oracle", bad, f"{N_LUB} chains, fuel <= {LUB_FUEL}")


# 5 -------------------------------------------------------------------------

N_STABLE = 500
STABLE_FUELS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


def _flips(verdicts):
    seen_final = None
    for v in verdicts:
        if seen_final is not None and v is not seen_final:
            return True
        if v in (Verdict.TRUE, Verdict.FALSE):
            seen_final = v
    return False


def test_criterion_5_verdicts_never_flip_under_more_fuel():
    rng = random.Random(505)
    bad = []
    for i in range(N_STABLE):
        s, _, _ = rand_seq(rng)
        t, _, _ = rand_seq(rng)
        if _flips([seq.leq_within(s, t, F) for F in STABLE_FUELS]):
            bad.append(("leq", i))
        if _flips([seq.bisim_within(s, t, F) for F in STABLE_FUELS]):
            bad.append(("bisim", i))
    _report("C5 verdict stability", bad, f"{N_STABLE} pairs, fuel doubling to {STABLE_FUELS[-1]}")


# 6 -------------------------------------------------------------------------

N_SEARCH = 200
SEARCH_FUEL = 256
SEARCH_NEVER_FUEL = 1000


def test_criterion_6_search_against_linear_scan():
    rng = random.Random(606)
    bad = []
    for i in range(N_SEARCH):
        start = rng.randrange(-5, 6)
        step = rng.randrange(1, 4)
        m = rng.randrange(18)
        hit = start + step * m
        kind = rng.randrange(3)
        if kind == 0:
            q = lambda x, t=hit: x >= t
        elif kind == 1:
            q = lambda x, t=hit: x == t
        else:
            p = rng.choice([2, 3, 5])
            q = lambda x, p=p, r=hit % p: x % p == r
        xs = cpo.stream_iterate(start, lambda x, d=step: x + d)
        want = next(x for x in cpo.stream_prefix(xs, m + 1) if q(x))
        w = seq.converges_within(cpo.search(q, xs), SEARCH_FUEL)
        if w is None or w.value != want:
            bad.append((i, w, want))
    odds = cpo.stream_iterate(1, lambda x: x + 2)
    if seq.converges_within(cpo.search(lambda x: x % 2 == 0, odds), SEARCH_NEVER_FUEL) is not None:
        bad.append(("never-satisfying",))
    _report("C6 search oracle", bad, f"{N_SEARCH} pairs, fuel {SEARCH_FUEL}")


# 7 -------------------------------------------------------------------------

N_SIGN = 200
ZERO_FUEL = 10_000
EQUIV_PAIRS = 50
EQUIV_FUEL = 256


def test_criterion_7_sign_semidecision():
    rng = random.Random(707)
    bad = []
    for i in range(N_SIGN):
        num = rng.choice([n for n in range(-30, 31) if n])
        den = rng.randrange(1, 31)
        q = Fraction(num, den)
        bound = -((-2 * q.denominator) // abs(q.numerator)) + 1  # ceil(2q/|p|) + 1
        w = seq.converges_within(reals.is_positive(reals.const_real(q)), bound)
        if w is None or w.value != (1 if q > 0 else 0):
            bad.append((i, q, w))
    if seq.converges_within(reals.is_positive(reals.const_real(0)), ZERO_FUEL) is not None:
        bad.append(("zero-decided",))
    for i in range(EQUIV_PAIRS):
        q = Fraction(rng.randrange(-4, 5), rng.randrange(1, 30))
        c = rng.choice([Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)])
        f = reals.const_real(q)
        g = lambda n, q=q, c=c: q + c / (n + 1)
        if not reals.equiv_within(f, g, 64):
            bad.append(("not-equivalent", i))
        v = seq.bisim_within(reals.is_positive(f), reals.is_positive(g), EQUIV_FUEL)
        if v is Verdict.FALSE:
            bad.append(("equiv-respect", i, q, c))
    _report("C7 sign semidecision", bad, f"{N_SIGN} rationals; zero at fuel {ZERO_FUEL}")


# 8 -------------------------------------------------------------------------

N_TERMS = 10_000
AGREE_FUEL = 256
OMEGA_FUEL = 10_000
TERMS_BUDGET_S = 120.0


def test_criterion_8_compiler_correctness_in_bulk():
    rng = random.Random(808)
    t0 = time.monotonic()
    bad = []
    for i in range(N_TERMS):
        t = lang.gen_term(rng, size=rng.randrange(2, 13))
        if lang.agree_within(t, AGREE_FUEL) is Verdict.FALSE:
            bad.append((i, t))
    if D.run_fuel(lang.evaluate(lang.OMEGA), OMEGA_FUEL) is not D.TIMEOUT:
        bad.append(("omega-eval",))
    if D.run_fuel(lang.execute(lang.compile_term(lang.OMEGA)), OMEGA_FUEL) is not D.TIMEOUT:
        bad.append(("omega-vm",))
    elapsed = time.monotonic() - t0
    if elapsed >= TERMS_BUDGET_S:
        bad.append(("slow", elapsed))
    _report("C8 compiler correctness", bad, f"{N_TERMS} terms in {elapsed:.1f}s")
