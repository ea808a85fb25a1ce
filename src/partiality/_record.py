"""Immutable records, a frozen dataclass's semantics built cheaper, markers,
and integers read from and written as decimal text of any length.

A record class's ``__init__`` is written when the class is made; its
``__eq__``, ``__hash__`` and ``__repr__`` are written the first time each is
called, so importing the package compiles one method per record class."""

import re
from _thread import get_ident

_shown = set()  # (id, thread) of each record whose repr is being built


class Record:
    """The base of the package's immutable records.

    A subclass declares only ``__slots__``, its fields in order, and gets the
    methods of a frozen dataclass with those fields.  It derives from
    ``Record`` itself: deriving from another record class is a ``TypeError``,
    since its fields would be only the subclass's own.  ``__init_subclass__``
    writes ``__init__`` when the class is made.  ``__eq__``, ``__hash__`` and
    ``__repr__`` are written for a class the first time each is called on one
    of its records, by the base's own method of that name, and installed on
    the class.  A method the subclass defines itself is never replaced.
    ``==`` holds between records of the same class whose fields are pairwise
    identical or equal, and is ``NotImplemented`` across classes; the hash is
    that of the tuple of fields; the repr reads ``Name(field=value, ...)``,
    and ``...`` for a record met again inside its own repr; an ``int`` field
    too long for ``repr`` (past 4 300 digits) is written out by
    ``_int_text``.  A record has no ``__dict__``, and assigning or deleting a
    field is an ``AttributeError``.
    ``__init__`` stores each field through its slot descriptor, and
    ``__repr__`` keeps its own recursion guard: both cost less than the
    ``object.__setattr__`` and the wrapper a frozen dataclass uses.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        for base in cls.__bases__:
            if base is not Record and issubclass(base, Record):
                raise TypeError(f"record class {cls.__qualname__} derives from record class "
                                f"{base.__qualname__}, whose fields it would drop")
        cls.__match_args__ = cls.__slots__
        _write(cls, "__init__")

    def __eq__(self, other):
        return _write(self.__class__, "__eq__")(self, other)

    def __hash__(self):
        return _write(self.__class__, "__hash__")(self)

    def __repr__(self):
        return _write(self.__class__, "__repr__")(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)


def _write(cls, name: str):
    """Compile the method ``name`` for the fields of the record class ``cls``,
    install it on ``cls`` unless the class defines its own, and return it."""
    fields = cls.__match_args__
    ns = {"_get_ident": get_ident, "_shown": _shown, "_show": _show}
    if name == "__init__":  # each field stored through its slot descriptor
        ns.update((f"_set_{f}", getattr(cls, f).__set__) for f in fields)
        source = (
            f"def __init__(self, {', '.join(fields)}):\n"
            + ("".join(f"    _set_{f}(self, {f})\n" for f in fields) or "    pass\n")
        )
    elif name == "__eq__":
        source = (
            "def __eq__(self, other):\n"
            "    if other.__class__ is not self.__class__:\n"
            "        return NotImplemented\n"
            + "".join(
                f"    if self.{f} is not other.{f} and not self.{f} == other.{f}:\n"
                f"        return False\n"
                for f in fields
            )
            + "    return True\n"
        )
    elif name == "__hash__":
        source = f"def __hash__(self):\n    return hash(({''.join(f'self.{f}, ' for f in fields)}))\n"
    else:
        shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
        shown_long = ", ".join(f"{f}={{_show(self.{f})}}" for f in fields)
        source = (
            "def __repr__(self):\n"
            "    key = id(self), _get_ident()\n"
            "    if key in _shown:\n"
            "        return '...'\n"
            "    _shown.add(key)\n"
            "    try:\n"
            f"        return f'{{self.__class__.__qualname__}}({shown})'\n"
            "    except ValueError:\n"
            f"        return f'{{self.__class__.__qualname__}}({shown_long})'\n"
            "    finally:\n"
            "        _shown.discard(key)\n"
        )
    exec(source, ns)
    method = ns[name]
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    if name not in cls.__dict__:
        setattr(cls, name, method)
    return method


class Marker:
    """A named singleton (``PENDING``, ``TIMEOUT``, ``STUCK``) that prints as its
    name.  ``__reduce__`` gives the name and the instance's ``__module__`` the
    module that holds it, so ``copy`` and every pickle protocol return it."""

    def __init__(self, name: str, module: str):
        self._name, self.__module__ = name, module

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self) -> str:
        return self._name


# Python converts an int to or from decimal text of at most 4 300 digits by
# default, so a longer one goes through text a chunk of _DIGITS digits at a time.
_DIGITS = 4000
_CHUNK = 10**_DIGITS
_INT = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")  # the decimal text `int` reads


def _int_text(n: int) -> str:
    """``str(n)``, for an int of any size."""
    if abs(n) < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(str(r).zfill(_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _show(v) -> str:
    """``repr(v)``, with an int of any size written out in full."""
    return _int_text(v) if type(v) is int else repr(v)


def _read_int(text: str) -> int:
    """``int(text)``, for decimal text of any length; text that is not
    decimal goes to ``int``, which raises its own error."""
    if len(text) <= _DIGITS or (m := _INT.fullmatch(text)) is None:
        return int(text)
    sign, digits = m[1], m[2].replace("_", "")
    head = len(digits) % _DIGITS or _DIGITS
    n = int(digits[:head])
    for i in range(head, len(digits), _DIGITS):
        n = n * _CHUNK + int(digits[i : i + _DIGITS])
    return -n if sign == "-" else n
