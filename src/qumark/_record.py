"""The one frozen-record idiom behind the package's value types.

A record could be a frozen dataclass, but importing dataclasses pulls in
inspect, ast, dis and tokenize, and decorating a class runs generated code.
Every CLI run is a fresh interpreter that pays both before its first line
of work, and an owner audit starts one per suspect.

A record is its annotations, in order, plus a class-level value for each
field that has a default, plus a _check method for its invariants. Only a
record that transforms its arguments writes its own __init__, and that too
takes exactly the record's fields, so every record's repr is a call that
rebuilds it.
"""

from __future__ import annotations

_MISSING = object()


class Record:
    """Immutable value whose fields are its class annotations, in order.

    __init__ binds positional and then keyword arguments to the fields,
    takes a field left out from the class attribute of that name, stores
    them and calls _check, which raises on a broken invariant. A missing,
    unknown, repeated or surplus argument raises TypeError. A subclass with
    an __init__ of its own stores its fields with vars(self).update(...),
    since assignment and deletion raise AttributeError. Records are equal
    when they are of the same class and their field tuples are equal, and
    hash by that tuple; a subclass that defines its own __eq__ is
    unhashable. repr shows Name(field=value, ...). Pickling and copying
    store and restore the instance dict without running __init__ again.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields += tuple(cls.__annotations__)
        cls.__match_args__ = cls._fields

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for name in fields[len(args) :]:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                value = getattr(cls, name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
            values[name] = value
        for name in kwargs:
            problem = "got multiple values for" if name in values else "got an unexpected"
            raise TypeError(f"{cls.__qualname__}() {problem} argument {name!r}")
        vars(self).update(values)
        self._check()

    def _check(self) -> None:
        """Raise if the stored fields break an invariant of the record."""

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
