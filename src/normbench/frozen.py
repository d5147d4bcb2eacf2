"""The base of the term classes of `lam` and `crs`: slotted nodes that
stay frozen, and the one walk over a term's distinct nodes that the
per-node folds use.

A subclass declares its fields, in order, as both `__slots__` and
`__match_args__`, and its `__init__` stores each field through the
slot descriptor's `__set__`, bound once at module level.  That builds
a node at slot cost, where a frozen dataclass sets each field through
`object.__setattr__`.  Assigning or deleting a field raises
`dataclasses.FrozenInstanceError`, as on a frozen dataclass.

Terms grow deeper than the recursion limit and share subterms, so each
walk uses an explicit stack, and the per-node folds run over one of
them, `distinct_nodes`, at the cost of the distinct nodes: `hash`, a
Merkle hash that sharing does not change, and the folds of `lam`, `crs`
and `encode`.  The children of a node are the terms among its fields
and among the items of its tuple fields; any other value is compared,
hashed or printed as itself.  Equality walks two terms in pairs,
entering each pair of nodes once, and checks the exact type of each
node, so terms of different classes are never equal, and a term
compared with a non-term gives NotImplemented.  `repr` prints the
dataclass text.  `copy.copy` makes a new node with the same fields;
deepcopy and pickle go through a flat post-order list of the term's
distinct nodes, which `_rebuild` turns back into an equal term that
shares what the original shares.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Container, Iterator


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if not isinstance(other, Frozen):
            return NotImplemented
        entered: set[tuple[int, int]] = set()  # ids of the node pairs walked
        todo: list = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if isinstance(a, Frozen):
                if type(a) is not type(b):
                    return False
                if (id(a), id(b)) not in entered:
                    entered.add((id(a), id(b)))
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
        # each distinct node's hash is that of its class and its fields,
        # with every term in them replaced by its hash
        hashes: dict[int, int] = {}
        for s in distinct_nodes(self):
            key = [type(s)]
            for f in s.__match_args__:
                v = getattr(s, f)
                if isinstance(v, Frozen):
                    v = hashes[id(v)]
                elif type(v) is tuple:
                    v = tuple([hashes[id(c)] if isinstance(c, Frozen) else c for c in v])
                key.append(v)
            hashes[id(s)] = hash(tuple(key))
        return hashes[id(self)]

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


def distinct_nodes(t: Frozen, known: Container[int] = ()) -> Iterator[Frozen]:
    """Each term object reachable from t once, children before parents.
    An object whose id is in `known` is neither entered nor yielded: a
    fold that kept its value from an earlier walk reads it there."""
    seen: set[int] = set()
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:               # the node below: its children are done
            yield todo.pop()
        elif (i := id(s)) not in seen and i not in known:
            seen.add(i)
            todo.append(s)
            todo.append(None)
            for f in s.__match_args__:
                v = getattr(s, f)
                if isinstance(v, Frozen):
                    todo.append(v)
                elif type(v) is tuple:
                    for c in v:
                        if isinstance(c, Frozen):
                            todo.append(c)


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
