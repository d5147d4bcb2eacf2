"""The base of the term classes of `lam` and `crs`: slotted nodes that
stay frozen, compared, hashed, printed and copied in one walk each.

A subclass declares its fields, in order, as both `__slots__` and
`__match_args__`, and its `__init__` stores each field through the
slot descriptor's `__set__`, bound once at module level.  That builds
a node at slot cost, where a frozen dataclass sets each field through
`object.__setattr__`.  Assigning or deleting a field raises
`dataclasses.FrozenInstanceError`, as on a frozen dataclass.

Terms grow deeper than the recursion limit, so `==`, `hash`, `repr`,
deepcopy and pickle each walk the fields with an explicit stack: a term
field is walked, a tuple field item by item, and any other value is
compared, hashed or printed as itself.  Equality is structural and
checks the exact type of each node, so terms of different classes are
never equal, and a term compared with a non-term gives NotImplemented.
`repr` prints the dataclass text.  `copy.copy` makes a new node with
the same fields; deepcopy and pickle go through a flat post-order list
of the term's distinct nodes, which `_rebuild` turns back into an equal
term that shares what the original shares.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if not isinstance(other, Frozen):
            return NotImplemented
        todo: list = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if isinstance(a, Frozen):
                if type(a) is not type(b):
                    return False
                for f in a.__match_args__:
                    todo.append((getattr(a, f), getattr(b, f)))
            elif type(a) is tuple:
                if type(b) is not tuple or len(a) != len(b):
                    return False
                todo += zip(a, b)
            elif a != b:
                return False
        return True

    def __hash__(self) -> int:
        # the hash of the node classes, tuple lengths and other values met
        # in pre-order, last field first; equal terms hash equal
        out: list = []
        todo: list = [self]
        while todo:
            s = todo.pop()
            if isinstance(s, Frozen):
                out.append(type(s))
                for f in s.__match_args__:
                    todo.append(getattr(s, f))
            elif type(s) is tuple:
                out.append(len(s))
                todo += s
            else:
                out.append(s)
        return hash(tuple(out))

    def __copy__(self) -> Frozen:
        # a new node with the same fields, as copy.copy of a dataclass
        return type(self)(*[getattr(self, f) for f in self.__match_args__])

    def __reduce__(self) -> tuple:
        # _rebuild's program for this term: its distinct nodes, tuples and
        # other values in post-order, where a class builds a node of its
        # fields, n >= 0 a tuple of n items, ~i the i-th node built again,
        # and None the next of `values`
        ops: list = []
        values: list = []
        built: dict[int, int] = {}      # id of a node listed -> its number
        todo: list = [(self, False)]
        while todo:
            s, done = todo.pop()
            if done:
                if type(s) is tuple:
                    ops.append(len(s))
                else:
                    built[id(s)] = len(built)
                    ops.append(type(s))
            elif isinstance(s, Frozen):
                if id(s) in built:
                    ops.append(~built[id(s)])
                else:
                    todo.append((s, True))
                    for f in reversed(s.__match_args__):
                        todo.append((getattr(s, f), False))
            elif type(s) is tuple:
                todo.append((s, True))
                for c in reversed(s):
                    todo.append((c, False))
            else:
                ops.append(None)
                values.append(s)
        return _rebuild, (ops, values)

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


def _rebuild(ops: list, values: list) -> Frozen:
    """The term of a program that `Frozen.__reduce__` wrote, in one loop."""
    stack: list = []
    built: list[Frozen] = []
    values_left = iter(values)
    for op in ops:
        if op is None:
            stack.append(next(values_left))
        elif type(op) is int:
            if op < 0:
                stack.append(built[~op])
            else:
                k = len(stack) - op
                stack[k:] = [tuple(stack[k:])]
        else:
            k = len(stack) - len(op.__match_args__)
            node = op(*stack[k:])
            stack[k:] = [node]
            built.append(node)
    return stack[0]
