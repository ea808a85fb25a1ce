"""The partiality monad's own laws, checked on seeded chains.

The paper builds the monad from ``now``, ``never`` and the least upper bound
``⊔`` of an increasing sequence.  These laws are what make ``seq.lub`` the
least upper bound and ``cpo.lfp`` the least fixed point, rather than merely
some merge:

* upper bound: every member is below ``⊔ fam``;
* least: ``⊔ fam`` is below every upper bound;
* continuity of bind: ``(⊔ fam) >>= f ≈ ⊔ (i ↦ fam(i) >>= f)``;
* a constant chain: ``⊔ (i ↦ s) ≈ s``;
* the fixed-point equation: ``lfp(phi)(a) ≈ phi(lfp(phi))(a)``;
* ``of_delay`` is a monad morphism, cell for cell.

Verdicts are three-valued, so a law could pass by staying ``UNKNOWN``.  Each
check runs at the least fuel that its oracle says can settle it, no check may
be ``FALSE``, and the number of ``TRUE`` ones is pinned.  A check is vacuous
when one side can never converge (a silent member, an all-bottom family, a
search with no hit); those are only required not to be ``FALSE``.

The oracle is the diagonal order: member ``i`` of a family first done at its
index ``lift`` gives the lub's cell ``cantor_pair(i, lift)``, and the lub is
done from the least such cell.  These laws stay out of the CLI's ``laws``
suites, whose output is pinned.
"""

import random
from collections import Counter

import pytest

from partiality import cpo, seq
from partiality import delay as D
from partiality.seq import PENDING, Done, Verdict
from helpers import laters_n, prefix, rand_delay, shift_n

MEMBERS = 8  # members checked against the lub, per family
TABLE = 64  # members described per family, more than any scan here reaches

_SILENT = (
    lambda: seq.of_delay(D.never()),
    lambda: seq.shift(seq.of_delay(D.never())),
    lambda: seq.from_fn(lambda n: PENDING),
)


def _member(v, lift, how):
    # done from index `lift` with `v`, built one of three ways; None is bottom()
    if lift is None:
        return seq.bottom()
    if how == 0:
        return shift_n(seq.unit(v), lift)
    if how == 1:
        return seq.of_delay(laters_n(D.now(v), lift))
    return seq.from_fn(lambda n: Done(v) if n >= lift else PENDING)


def _search_phi(q):
    # the one-step unrolling that `cpo.search` takes the least fixed point of
    def phi(f):
        return lambda s: seq.unit(s.head) if q(s.head) else f(s.tail)

    return phi


class Chain:
    """A seeded family with its oracle: ``lifts[i]`` is the index member
    ``i`` is first done at, with ``value``, or ``None`` if it never is."""

    def __init__(self, value, lifts, family, search=None):
        self.value, self.lifts, self.family = value, lifts, family
        self.search = search  # (predicate, stream, hit index or None) for a search family
        self.witness = self.lub_witness()

    def lub_witness(self, extra=0):
        """The lub's first done index, with every member shifted by ``extra``."""
        cells = [seq.cantor_pair(i, lift + extra) for i, lift in enumerate(self.lifts) if lift is not None]
        return min(cells, default=None)


def _prefix_chain(rng):
    # bottom() members, then members done with one value at random lifts
    v, stage, salt = rng.randrange(9), rng.randrange(7), rng.randrange(3)
    lifts = [None] * stage + [rng.randrange(6) for _ in range(TABLE - stage)]
    return Chain(v, lifts, lambda i: _member(v, lifts[i], (i + salt) % 3))


def _tower_chain(rng):
    # shift towers whose height moves by `slope` a member, floored at 0
    v, base, slope, salt = rng.randrange(9), rng.randrange(9), rng.randrange(-3, 4), rng.randrange(3)
    lifts = [max(0, base + slope * i) for i in range(TABLE)]
    return Chain(v, lifts, lambda i: _member(v, lifts[i], (i + salt) % 3))


def _silent_chain(rng):
    # every member silent: bottom() itself or a sequence that is pending everywhere
    hows = [rng.randrange(len(_SILENT) + 1) for _ in range(TABLE)]
    family = lambda i: seq.bottom() if hows[i] == len(_SILENT) else _SILENT[hows[i]]()
    return Chain(rng.randrange(9), [None] * TABLE, family)


def _search_chain(rng):
    # the unrollings of a search over an arithmetic stream; member i is
    # bottom() up to the hit and done at index 0 after it
    a, d = rng.randrange(-5, 6), rng.choice((1, 2, 3, -1))
    k = rng.randrange(12) if rng.random() < 0.85 else None
    q = (lambda x: False) if k is None else (lambda x, t=a + k * d: x == t)
    phi, xs = _search_phi(q), cpo.stream_iterate(a, lambda x: x + d)
    lifts = [None if k is None or i <= k else 0 for i in range(TABLE)]
    value = None if k is None else a + k * d
    return Chain(value, lifts, lambda i: cpo.iterate(phi, i)(xs), (q, xs, k))


def _chains(n, seed):
    rng = random.Random(seed)
    kinds = (_prefix_chain, _tower_chain, _silent_chain, _search_chain)
    return [kinds[i % len(kinds)](rng) for i in range(n)]


CHAINS = _chains(400, 20261019)


# --- the laws: each yields (verdict, vacuous) per check ----------------------


def law_upper_bound(c, rng):
    lub = seq.lub(c.family)
    for i in range(MEMBERS):
        if c.lifts[i] is None:
            yield seq.leq_within(c.family(i), lub, 2 * TABLE), True
            continue
        fuel = max(c.lifts[i], c.witness)
        yield seq.leq_within(c.family(i), lub, fuel), False
    if c.witness is not None:
        # and the lub keeps that value at every later index, past runs and members
        n = 2 * c.witness + 2 * TABLE
        assert prefix(lub, n) == [PENDING] * c.witness + [Done(c.value)] * (n - c.witness)


def law_least(c, rng):
    r = rng.randrange(5)
    if c.witness is None:
        yield seq.leq_within(seq.lub(c.family), shift_n(seq.unit(rng.randrange(9)), r), 2 * TABLE), True
        return
    # any sequence done with the chain's value bounds it, a member included
    yield seq.leq_within(seq.lub(c.family), shift_n(seq.unit(c.value), r), max(c.witness, r)), False
    i = next(i for i, lift in enumerate(c.lifts) if lift is not None)
    yield seq.leq_within(seq.lub(c.family), c.family(i), max(c.witness, c.lifts[i])), False


def law_bind_continuity(c, rng):
    kf, silent = rng.randrange(4), rng.random() < 0.1
    f = (lambda x: seq.bottom()) if silent else (lambda x: shift_n(seq.unit((x, "f")), kf))
    left = seq.bind(seq.lub(c.family), f)
    right = seq.lub(lambda i: seq.bind(c.family(i), f))
    if c.witness is None or silent:
        yield seq.bisim_within(left, right, 2 * TABLE), True
        return
    yield seq.bisim_within(left, right, max(c.witness + kf, c.lub_witness(kf))), False


def law_constant_chain(c, rng):
    j = rng.randrange(MEMBERS)
    lift = c.lifts[j]
    s = c.family(j) if lift is None else _member(c.value, lift, rng.randrange(3))
    lub = seq.lub(lambda i: s)
    if lift is None:
        yield seq.bisim_within(lub, s, 2 * TABLE), True
        return
    yield seq.bisim_within(lub, s, seq.cantor_pair(0, lift)), False


def law_fixed_point(c, rng):
    if c.search is None:
        return
    q, xs, k = c.search
    phi = _search_phi(q)
    fix = cpo.lfp(phi)
    left, right = fix(xs), phi(fix)(xs)
    if k is None:
        yield seq.bisim_within(left, right, 2 * TABLE), True
        return
    # the hit at element k is cell (k + 1, 0) of the left's table, (k, 0) of the right's
    yield seq.bisim_within(left, right, seq.cantor_pair(k + 1, 0)), False
    assert prefix(cpo.search(q, xs), 2 * TABLE) == prefix(left, 2 * TABLE)  # the same fixed point


def law_of_delay_morphism(_c, rng):
    # one draw per chain: of_delay(now a) = unit a, and of_delay(d >>= g) = of_delay d >>= of_delay ∘ g, cell for cell
    a = rng.randrange(9)
    yield (Verdict.TRUE if prefix(seq.of_delay(D.now(a)), 8) == prefix(seq.unit(a), 8) else Verdict.FALSE), False
    d, steps, _ = rand_delay(rng)
    kg, silent = rng.randrange(5), rng.random() < 0.1
    g = (lambda x: D.never()) if silent else (lambda x: laters_n(D.now(x * 2 + 1), kg))
    n = 2 * TABLE if steps is None or silent else steps + kg + 8
    cells = prefix(seq.of_delay(D.bind(d, g)), n)
    same = cells == prefix(seq.bind(seq.of_delay(d), lambda x: seq.of_delay(g(x))), n)
    yield (Verdict.TRUE if same else Verdict.FALSE), cells[-1] is PENDING


# pinned counts of non-vacuous TRUE checks over CHAINS
PINNED = {
    law_upper_bound: 1405,
    law_least: 570,
    law_bind_continuity: 254,
    law_constant_chain: 180,
    law_fixed_point: 85,
    law_of_delay_morphism: 711,
}


@pytest.mark.parametrize("law", list(PINNED), ids=lambda law: law.__name__[4:])
def test_law_holds_and_settles(law):
    rng = random.Random(law.__name__)
    checks = [check for c in CHAINS for check in law(c, rng)]
    vacuous = [v for v, vac in checks if vac]
    settled = Counter(v for v, vac in checks if not vac)
    assert Verdict.FALSE not in vacuous
    assert settled == {Verdict.TRUE: PINNED[law]}
