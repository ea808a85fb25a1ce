"""The package's immutable records against frozen dataclasses as their oracle.

Every layer, value, term and instruction is a slotted record whose methods
are generated once per class: ``__init__`` when the class is made, the others
on first use.  Each class has a frozen dataclass twin here
with the same name and fields, written out below; ``==``, hash values and
repr bytes must match the twins' on terms, their machine code and the
values and layers their runs give.
"""

import ast
import copy
import os
import pickle
import random
import subprocess
import sys
from dataclasses import make_dataclass
from unittest import mock

import pytest

from partiality import delay as D
from partiality import lang as L
from partiality import seq
from partiality._record import Record

FIELDS = {
    D.Now: ("value",),
    D.Later: ("rest",),
    D.Converged: ("value", "steps"),
    seq.Done: ("value",),
    seq.Witness: ("value", "index"),
    L.Var: ("index",),
    L.Lam: ("body",),
    L.App: ("fn", "arg"),
    L.Lit: ("n",),
    L.Suc: ("arg",),
    L.Nat: ("n",),
    L.Closure: ("body", "env"),
    L.PushLit: ("n",),
    L.PushVar: ("index",),
    L.PushClo: ("code",),
    L.Apply: (),
    L.Add1: (),
    L.Ret: (),
    L.VmClosure: ("code", "env"),
}
TWINS = {cls: make_dataclass(cls.__name__, fields, frozen=True) for cls, fields in FIELDS.items()}


def twin(x):
    """``x`` with every record in it, through tuples, replaced by its twin."""
    ty = type(x)
    if ty in TWINS:
        return TWINS[ty](*(twin(getattr(x, f)) for f in FIELDS[ty]))
    if ty is tuple:
        return tuple(twin(y) for y in x)
    return x


def classes(x):
    """The record classes anywhere in ``x``."""
    ty = type(x)
    if ty in FIELDS:
        yield ty
        for f in FIELDS[ty]:
            yield from classes(getattr(x, f))
    elif ty is tuple:
        for y in x:
            yield from classes(y)


def sightings(t, fuel=40):
    """The records a term leads to: itself, its code, and what both back
    ends, their first layers and a sequence view of the interpreter give."""
    code = L.compile_term(t)
    s = seq.of_delay(L.evaluate(t))
    return [
        t,
        code,
        L.run(t, fuel),
        L.run_code(code, fuel),
        L.evaluate(t).observe(),
        L.execute(code).observe(),
        seq.converges_within(s, fuel),
        s.at(fuel),
    ]


def test_records_match_their_dataclass_twins():
    rng = random.Random(18)
    terms = [L.gen_term(rng, rng.randrange(1, 12)) for _ in range(2000)]
    seen, equal, unequal = set(), 0, 0
    prev = sightings(terms[-1])
    for t in terms:
        here = sightings(t)
        again = sightings(L.parse(L.show(t)))  # equal values, other objects
        twins = [twin(x) for x in here]
        for x, tx in zip(here, twins):
            assert repr(x) == repr(tx)
            assert hash(x) == hash(tx)
            seen.update(classes(x))
        for others in (again, prev):
            for x, tx in zip(here, twins):
                for y in others:
                    ty = twin(y)
                    assert (x == y) is (tx == ty)
                    assert (x != y) is (tx != ty)
                    equal += x == y
                    unequal += x != y
        prev = here
    assert seen == set(FIELDS)
    assert equal > 10_000 and unequal > 10_000


def samples():
    """One record of each class, with fields that are values."""
    omega = L.OMEGA
    code = L.compile_term(omega)
    return [
        D.Now(L.Nat(3)),
        D.Later(D.never()),
        D.Converged(L.Nat(3), 2),
        seq.Done("a"),
        seq.Witness(5, 7),
        L.Var(0),
        L.Lam(L.Var(0)),
        omega,
        L.Lit(2),
        L.Suc(L.Lit(2)),
        L.Nat(3),
        L.Closure(omega.fn.body, (L.Nat(1), L.Nat(2))),
        L.PushLit(1),
        L.PushVar(0),
        code[0],
        L.Apply(),
        L.Add1(),
        L.Ret(),
        L.VmClosure(code, (L.Nat(1),)),
    ]


@pytest.mark.parametrize("x", samples(), ids=lambda x: type(x).__name__)
def test_a_record_is_immutable_and_slotted(x):
    assert type(x) in FIELDS and isinstance(x, Record)
    fields = FIELDS[type(x)]
    assert type(x).__match_args__ == fields
    assert not hasattr(x, "__dict__")
    tx = twin(x)
    assert x.__eq__(tx) is NotImplemented and tx.__eq__(x) is NotImplemented
    assert x == mock.ANY and x != tx
    assert hash(x) == hash(tx)
    before = repr(x)
    assert before == repr(tx)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == before


@pytest.mark.parametrize("x", samples(), ids=lambda x: type(x).__name__)
def test_a_record_round_trips_through_copy_and_pickle(x):
    assert x.__reduce__() == (type(x), tuple(getattr(x, f) for f in FIELDS[type(x)]))
    if type(x) is D.Later:
        return  # its field is a Delay, which is equal only to itself
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x
        assert hash(y) == hash(x) and repr(y) == repr(x)


@pytest.mark.parametrize(
    "x, name", [(L.STUCK, "STUCK"), (seq.PENDING, "PENDING"), (D.TIMEOUT, "TIMEOUT")], ids=["STUCK", "PENDING", "TIMEOUT"]
)
def test_a_singleton_is_itself_after_copy_and_pickle(x, name):
    assert repr(x) == name
    pickled = [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in (copy.copy(x), copy.deepcopy(x), *pickled):
        assert y is x


def test_a_copied_stuck_answer_is_still_stuck():
    r = D.Converged(L.STUCK, 3)
    for y in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert y == r and y.value is L.STUCK
        assert L.render_value(y.value) == "stuck"


def test_match_reads_fields_by_position():
    match L.parse(r"(\x. suc x) 4"):
        case L.App(L.Lam(L.Suc(L.Var(i))), L.Lit(n)):
            assert (i, n) == (0, 4)
        case _:
            pytest.fail("no match")


def test_a_record_keeps_the_methods_its_class_defines():
    class Shown(Record):
        __slots__ = ("a", "b")

        def __repr__(self):
            return "shown"

    class Keyed(Record):
        __slots__ = ("key", "note")

        def __eq__(self, other):
            return type(other) is Keyed and self.key == other.key

        def __hash__(self):
            return hash(self.key) + 1

    class Made(Record):
        __slots__ = ("a", "b")

        def __init__(self, a):
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", -a)

    own = {name: Keyed.__dict__[name] for name in ("__eq__", "__hash__")}
    x = Shown(1, b=[2])
    assert repr(x) == "shown" and x == Shown(1, [2]) and x != Shown(1, [3])
    with pytest.raises(TypeError):
        hash(x)  # the hash of the fields, as with a frozen dataclass
    # methods written on first use for other classes, and for Keyed's repr
    for y in samples():
        assert y == y and not y != y
        hash(y)
        repr(y)
    k = Keyed(1, "a")
    assert repr(k) == f"{Keyed.__qualname__}(key=1, note='a')" and repr(x) == "shown"
    assert k == Keyed(1, "b") and k != Keyed(2, "a") and k != D.Now(1)
    assert hash(k) == hash(Keyed(1, "b")) == hash(1) + 1
    # the base's methods, as super() reaches them, compare and hash all fields
    assert Record.__eq__(k, Keyed(1, "b")) is False and Record.__hash__(k) == hash((1, "a"))
    assert k == Keyed(1, "b") and hash(k) == hash(1) + 1
    assert {name: Keyed.__dict__[name] for name in own} == own
    # Made keeps its own __init__, and the other methods are written for its fields on first use
    m = Made(2)
    assert (m.a, m.b) == (2, -2) and Made.__match_args__ == ("a", "b")
    assert m == Made(2) and m != Made(3) and hash(m) == hash((2, -2))
    assert repr(m) == f"{Made.__qualname__}(a=2, b=-2)"
    assert all(name in Made.__dict__ for name in ("__eq__", "__hash__", "__repr__"))


def test_a_record_class_derives_from_record_itself():
    class A(Record):
        __slots__ = ("a",)

    class Mixin:
        __slots__ = ()

    # a subclass of A would take its fields from its own __slots__ only
    for bases in [(A,), (Mixin, A), (A, Mixin)]:
        with pytest.raises(TypeError, match="^record class B derives from record class .*A, whose fields"):
            type("B", bases, {"__slots__": ("b",)})
    assert type("B", (Mixin, Record), {"__slots__": ("b",)})(2).b == 2


def test_a_self_containing_record_prints_as_a_dataclass_does():
    items, twin_items = [], []
    x, tx = D.Now(items), TWINS[D.Now](twin_items)
    items.append(x)
    twin_items.append(tx)
    assert repr(x) == repr(tx) == "Now(value=[...])"


BIG = 10**4400  # past the 4 300 digits that repr writes out
BIG_TEXT = "1" + "0" * 4400


@pytest.mark.parametrize(
    "x, want",
    [
        (L.Nat(BIG), f"Nat(n={BIG_TEXT})"),
        (L.Lit(-BIG), f"Lit(n=-{BIG_TEXT})"),
        (L.PushLit(BIG), f"PushLit(n={BIG_TEXT})"),
        (D.Converged(BIG, 3), f"Converged(value={BIG_TEXT}, steps=3)"),
        (D.Converged(L.Nat(BIG), 3), f"Converged(value=Nat(n={BIG_TEXT}), steps=3)"),
        (seq.Witness("x", BIG), f"Witness(value='x', index={BIG_TEXT})"),
    ],
    ids=["Nat", "Lit", "PushLit", "Converged", "Converged-Nat", "Witness"],
)
def test_an_int_field_of_any_size_prints_in_full(x, want):
    assert repr(x) == want


def test_fields_compare_as_tuple_items_do():
    # identical fields are equal before `==` is asked, as in a tuple
    nan = float("nan")
    assert D.Now(nan) == D.Now(nan) and (nan,) == (nan,)
    assert D.Now(nan) != D.Now(float("nan"))


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(L.__file__))
    check = "import sys, partiality.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_the_cli_import_writes_each_records_init_and_no_other_method():
    # __eq__, __hash__ and __repr__ are written on first use, not at import
    src = os.path.dirname(os.path.dirname(L.__file__))
    check = (
        "import partiality.cli\n"
        "from partiality._record import Record\n"
        "todo, found = [Record], []\n"
        "while todo:\n"
        "    for cls in todo.pop().__subclasses__():\n"
        "        todo.append(cls)\n"
        "        code = cls.__init__.__code__\n"
        "        written = sorted({'__eq__', '__hash__', '__repr__'} & set(cls.__dict__))\n"
        "        params = code.co_varnames[1 : code.co_argcount]\n"
        "        found.append((cls.__module__, cls.__qualname__, written, params, cls.__slots__))\n"
        "print(repr(sorted(found)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True)
    found = ast.literal_eval(out.stdout)
    names = {(cls.__module__, cls.__qualname__): fields for cls, fields in FIELDS.items()}
    assert len(found) == len(FIELDS) + 1  # and seq._Failure
    assert {(m, q) for m, q, *_ in found} >= set(names)
    for module, qualname, written, params, slots in found:
        assert written == [], qualname
        assert params == slots == names.get((module, qualname), slots), qualname
