"""Shared randomized generators with known shapes, used as test oracles, a
CLI call that reports what it printed, the memory peak of a call, and an
interrupt raised at a chosen opcode."""

import contextlib
import gc
import io
import random
import sys
import tracemalloc

from partiality import cli, seq
from partiality import delay as D


def shift_n(s, k):
    for _ in range(k):
        s = seq.shift(s)
    return s


def laters_n(d, k):
    for _ in range(k):
        d = D.later(d)
    return d


def rand_delay(rng: random.Random):
    """A delay with a known outcome: (delay, steps, value) or (delay, None, None)."""
    if rng.random() < 0.15:
        return D.never(), None, None
    k = rng.randrange(33)
    v = rng.randrange(16)
    return laters_n(D.now(v), k), k, v


def rand_seq(rng: random.Random):
    """A sequence with a known outcome: (seq, index, value) or (seq, None, None)."""
    kind = rng.randrange(5)
    if kind == 0:
        return seq.bottom(), None, None
    v = rng.randrange(16)
    k = rng.randrange(33)
    if kind == 1:
        return shift_n(seq.unit(v), k), k, v
    if kind == 2:
        d, dk, dv = rand_delay(rng)
        s = seq.of_delay(d)
        return s, dk, dv
    if kind == 3:
        j = rng.randrange(8)
        s = seq.bind(shift_n(seq.unit(v), k), lambda a, j=j: shift_n(seq.unit(a + 1), j))
        return s, k + j, v + 1
    s = seq.unshift(seq.shift(shift_n(seq.unit(v), k)))
    return s, k, v


def rand_kleisli(rng: random.Random):
    k = rng.randrange(5)
    which = rng.randrange(4)
    if which == 0:
        return lambda x, k=k: shift_n(seq.unit(x + 1), k)
    if which == 1:
        return lambda x, k=k: shift_n(seq.unit(x * 2), k)
    if which == 2:
        c = rng.randrange(9)
        return lambda x, k=k, c=c: shift_n(seq.unit(c), k)
    return lambda x: seq.bottom()


def prefix(s, n):
    return [s.at(i) for i in range(n)]


def run_main(argv):
    """``cli.main(argv)`` as (exit code, stdout, stderr); only argparse's
    ``SystemExit`` is turned into a code, any other exception propagates.
    It is the one way the tests call the CLI in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def peak(fn):
    """The tracemalloc peak of ``fn()``, in bytes.  A ``gc.collect()`` first
    empties the free lists, which would hide some allocations."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def interrupt_at(n, *functions):
    """Within the block, the ``n``-th opcode run in a frame of one of
    ``functions`` raises ``KeyboardInterrupt``, once.  Counted with
    ``sys.settrace`` and ``f_trace_opcodes``, so the same calls are
    interrupted at the same point on every run.  Yields a one-item list that
    says whether the interrupt was raised."""
    codes = {f.__code__ for f in functions}
    seen, fired = [0], [False]

    def opcodes(frame, event, arg):
        if event == "opcode" and not fired[0]:
            seen[0] += 1
            if seen[0] == n:
                fired[0] = True
                raise KeyboardInterrupt
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code in codes and not fired[0]:
            frame.f_trace_opcodes = True
            return opcodes
        return None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        yield fired
    finally:
        sys.settrace(before)
