"""The base of the term classes of `lam` and `crs`: slotted nodes that
stay frozen.

A subclass declares its fields, in order, as both `__slots__` and
`__match_args__`, and its `__init__` stores each field through the
slot descriptor's `__set__`, bound once at module level.  That builds
a node at slot cost, where a frozen dataclass sets each field through
`object.__setattr__`.  Assigning or deleting a field raises
`dataclasses.FrozenInstanceError`, as on a frozen dataclass; copy and
pickle rebuild a node through its constructor, and `repr` prints the
dataclass text without recursion, since terms grow deeper than the
recursion limit.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        # `Name(field=value, ...)` with tuples of children as Python
        # prints them, in one walk: the stack holds nodes and tuples still
        # to print, and text, with every other field value already repr'd
        out: list[str] = []
        todo: list = [self]
        while todo:
            s = todo.pop()
            if type(s) is str:
                out.append(s)
                continue
            if type(s) is tuple:
                out.append("(")
                todo.append(",)" if len(s) == 1 else ")")
                fields = [("", c) for c in s]
            else:
                out.append(type(s).__qualname__ + "(")
                todo.append(")")
                fields = [(f + "=", getattr(s, f)) for f in s.__match_args__]
            for i in reversed(range(len(fields))):
                label, v = fields[i]
                todo.append(v if type(v) is tuple or isinstance(v, Frozen) else repr(v))
                todo.append(label)
                if i:
                    todo.append(", ")
        return "".join(out)
