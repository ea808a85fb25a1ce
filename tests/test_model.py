"""A stateful model test of the sequence layer: each sequence or delay is pooled with its
convergence pair, the index (or step count) ``k`` at which it is first done (or ``inf``) and its
value ``v``, which builders compute by arithmetic; rules ask pooled objects in random order."""

from fractions import Fraction
from math import inf

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from partiality import delay as D
from partiality import reals, seq
from partiality.seq import PENDING, ChainViolationError, Done, Verdict, Witness
from helpers import laters_n

VALUES, POINTS = st.integers(0, 3), st.integers(0, 10)
NEAR = st.none() | st.tuples(st.booleans(), st.integers(-2, 2))  # off the witness index, or off the failing one
ASK = st.none() | st.tuples(POINTS, NEAR)  # where a new sequence is asked at once, if it is


def _lub_model(stages):
    # (k, v, fail) of a lub whose members from i on are the sequence held as (i, k, v, fail), up to the
    # next stage; fail is None or (index, first witness, second witness).  The Cantor order meets a stage's
    # first done cell and failure at its first member; the lub fails at the next failure or other value.
    cells = sorted((seq.cantor_pair(i, k), (i, k, v)) for i, k, v, _ in stages if k < inf)
    if not cells:
        return inf, 0, None
    (n, first), *rest = cells
    ends = [(m, first, w) for m, w in rest if w[2] != first[2]]
    ends += [(seq.cantor_pair(i, f[0]), *f[1:]) for i, _, _, f in stages if f]
    return n, first[2], min(ends, default=None)


def _point(k, fail, n, near):
    # `n`, or `near` off the witness index (or the failing one) unless that is too far to pull
    mark = near and (fail[0] if near[0] and fail else k)
    return max(mark + near[1], 0) if near and mark <= 2000 else n


class Pool(RuleBasedStateMachine):
    seqs, delays, lubs = Bundle("seqs"), Bundle("delays"), Bundle("lubs")  # (seq, k, v, fail), (delay, k, v)
    asked = seqs | lubs  # lubs, which hold the failures, are in seqs too and are drawn here half the time

    @rule(target=delays, k=st.sampled_from([None, 0, 1, 2, 3, 4, 5]), v=VALUES)
    def fresh_delay(self, k, v):  # k steps, then v; or never()
        return (D.never(), inf, v) if k is None else (laters_n(D.now(v), k), k, v)

    @rule(target=delays, d=delays)
    def later(self, d):
        return D.later(d[0]), d[1] + 1, d[2]

    @rule(target=delays, d=delays, c=VALUES)
    def delay_map(self, d, c):
        return D.map(d[0], lambda a: a + c), d[1], d[2] + c

    @rule(target=delays, d=delays, e=delays)
    def delay_bind(self, d, e):
        return D.bind(d[0], lambda a: D.map(e[0], lambda b: 10 * a + b)), d[1] + e[1], 10 * d[2] + e[2]

    @rule(target=delays, s=seqs)
    def to_delay(self, s):
        return seq.to_delay(s[0]), s[1], s[2]

    def _built(self, held, ask):  # asked at once unless ask is None: what is composed later may be part pulled
        if ask:
            self.ask(held, *ask)
        return held

    @rule(target=seqs, v=st.none() | VALUES, ask=ASK)
    def unit(self, v, ask):  # or bottom()
        return self._built((seq.bottom(), inf, 0, None) if v is None else (seq.unit(v), 0, v, None), ask)

    @rule(target=seqs, d=delays, ask=ASK)
    def of_delay(self, d, ask):
        return self._built((seq.of_delay(d[0]), d[1], d[2], None), ask)

    @rule(target=seqs, s=seqs, ask=ASK)
    def shift(self, s, ask):
        return self._built((seq.shift(s[0]), s[1] + 1, s[2], None), ask)

    @rule(target=seqs, s=seqs, ask=ASK)
    def unshift(self, s, ask):
        s, k, v, fail = s
        u = seq.unshift(s)  # s itself when it is done at index 0
        return self._built((u, max(k - 1, 0), v, fail if u is s else None), ask)

    @rule(target=seqs, s=seqs, c=VALUES, ask=ASK)
    def map(self, s, c, ask):
        return self._built((seq.map(s[0], lambda a: a + c), s[1], s[2] + c, None), ask)

    @rule(target=seqs, s=seqs, t=seqs, joined=st.booleans(), ask=ASK)
    def bind(self, s, t, joined, ask):  # or the same through join of a map
        (s, k, v, _), (t, j, w, _) = s, t
        f = lambda a: seq.map(t, lambda b: 10 * a + b)
        return self._built((seq.join(seq.map(s, f)) if joined else seq.bind(s, f), k + j, 10 * v + w, None), ask)

    @rule(target=seqs, s=seqs, ask=ASK)
    def from_fn(self, s, ask):
        return self._built((seq.from_fn(s[0].at), s[1], s[2], None), ask)

    @rule(target=seqs, p=st.integers(-4, 4), q=st.integers(1, 4), const=st.booleans(), ask=ASK)
    def is_positive(self, p, q, const, ask):  # with x = a/c in lowest terms, cell n >= 1 is done once n|a| > 2c
        x = Fraction(p, q)  # const_real's closed form, or the query loop on a function giving the same object
        k = 2 * x.denominator // abs(x.numerator) + 1 if p else inf
        f = reals.const_real(x) if const else lambda n: x
        return self._built((reals.is_positive(f), k, int(p > 0), None), ask)

    @initialize(targets=(seqs, lubs), v=VALUES, w=VALUES, b=st.integers(1, 3))
    def two_units(self, v, w, b):  # so that `asked` never draws from an empty bundle
        return self.lub_of_two_stages((seq.unit(v), 0, v, None), (seq.unit(w), 0, w, None), b, None)

    @rule(targets=(seqs, lubs), s=asked, b=st.integers(0, 3), ask=ASK)
    def lub(self, s, b, ask):  # members below b are bottom() itself, passed a diagonal at a time
        family = lambda i: s[0] if i >= b else seq.bottom()
        return self._built((seq.lub(family), *_lub_model([(b, *s[1:])])), ask)

    @rule(targets=(seqs, lubs), s=asked, t=asked, b=st.integers(1, 3), ask=ASK)
    def lub_of_two_stages(self, s, t, b, ask):  # a chain only if s and t do not disagree
        family = lambda i: s[0] if i < b else t[0]
        return self._built((seq.lub(family), *_lub_model([(0, *s[1:]), (b, *t[1:])])), ask)

    @rule(s=asked, n=POINTS, near=NEAR)
    def ask(self, s, n, near):
        # to_delay first, of what earlier pulls left; it and converges_within stop at the done cell, before a failure
        s, k, v, fail = s
        i = _point(k, fail, n, near)
        raised = fail[1:] if fail and i >= fail[0] else None
        assert D.run_fuel(seq.to_delay(s), i) == (D.Converged(v, k) if k <= i else D.TIMEOUT)
        assert seq.converges_within(s, i) == (Witness(v, k) if k <= i else None)
        try:
            got = seq.ismon_prefix(s, i + 1), s.at(i)
        except ChainViolationError as e:
            got = e.first, e.second
        assert got == (raised or (True, Done(v) if i >= k else PENDING))

    @rule(s=asked, t=asked, fuel=POINTS)
    def leq_and_bisim(self, s, t, fuel):
        def model(s, t, fuel):  # the same object, or s is bottom(), is a structural TRUE
            if s[0] is t[0] or s[0] is seq.bottom():
                return Verdict.TRUE
            return Verdict.UNKNOWN if max(s[1], t[1]) > fuel else Verdict.TRUE if s[2] == t[2] else Verdict.FALSE

        leq, back = model(s, t, fuel), model(t, s, fuel)
        assert seq.leq_within(s[0], t[0], fuel) is leq
        assert leq is Verdict.UNKNOWN or seq.leq_within(s[0], t[0], fuel + 100) is leq  # final
        want = next(w for w in (Verdict.FALSE, Verdict.UNKNOWN, Verdict.TRUE) if w in (leq, back))
        assert seq.bisim_within(s[0], t[0], fuel) is want


MODEL = settings(derandomize=True, deadline=None, max_examples=100, stateful_step_count=40, report_multiple_bugs=False)


def test_the_sequence_layer_follows_its_convergence_model():
    run_state_machine_as_test(Pool, settings=MODEL)
