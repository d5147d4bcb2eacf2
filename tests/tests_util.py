"""Shared helpers for the test suite."""

import dataclasses

from hypothesis import strategies as st

from make_corpus import random_closed  # noqa: F401  (shared with the corpus builder)
from normbench import crs
from normbench.lam import Abs, App, Var


@st.composite
def closed_terms(draw, depth=4, env=()):
    """Hypothesis strategy for closed lambda terms."""
    kinds = ["abs", "app"] + (["var"] * 2 if env else [])
    kind = draw(st.sampled_from(kinds)) if depth > 1 else ("var" if env else "abs")
    if kind == "var":
        return Var(draw(st.sampled_from(env)))
    if kind == "abs":
        b = draw(st.sampled_from(["x", "y", "z", "w"]))
        return Abs(b, draw(closed_terms(depth=depth - 1, env=env + (b,))))
    return App(draw(closed_terms(depth=depth - 1, env=env)),
               draw(closed_terms(depth=depth - 1, env=env)))


def same_structure(a, b):
    """Exact structural equality, as the dataclass == decides it, without
    recursion: same types, field by field, tuples and lists item by item."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b):
            return False
        if dataclasses.is_dataclass(a):
            todo.extend((getattr(a, f.name), getattr(b, f.name))
                        for f in dataclasses.fields(a))
        elif isinstance(a, (tuple, list)):
            if len(a) != len(b):
                return False
            todo.extend(zip(a, b))
        elif a != b:
            return False
    return True


def nat_term(n):
    from normbench.crs import Node

    t = Node("zero")
    for _ in range(n):
        t = Node("succ", (t,))
    return t


def random_system(rng):
    """Random orthogonal system: each function cases on the root constructor
    of its first argument, and some cases are left out (stuck terms)."""
    g = rng.randrange(2, 5)
    constructors = {}
    for i in range(g):
        constructors[f"c{i}"] = 0 if i == 0 else rng.randrange(0, 3)
    h = rng.randrange(1, 3)
    functions = {f"f{i}": rng.randrange(1, 3) for i in range(h)}
    sig = crs.Signature(constructors, functions)

    def random_rhs(vars_, depth):
        if depth <= 0:
            return crs.Var(rng.choice(vars_)) if vars_ else crs.Node("c0")
        choices = ["var"] * (3 if vars_ else 0) + ["con"] * 3 + ["fun"] * 2
        kind = rng.choice(choices)
        if kind == "var":
            return crs.Var(rng.choice(vars_))
        if kind == "con":
            name = rng.choice(list(constructors))
            return crs.Node(name, tuple(random_rhs(vars_, depth - 1)
                                        for _ in range(constructors[name])))
        name = rng.choice(list(functions))
        return crs.Node(name, tuple(random_rhs(vars_, depth - 1)
                                    for _ in range(functions[name])))

    rules = []
    for fname, ar in functions.items():
        for ci, car in constructors.items():
            if rng.random() < 0.25:
                continue  # leave a stuck case now and then
            head_vars = [f"v{k}" for k in range(car)]
            rest_vars = [f"w{k}" for k in range(ar - 1)]
            lhs = (crs.Node(ci, tuple(crs.Var(v) for v in head_vars)),
                   *(crs.Var(w) for w in rest_vars))
            rhs = random_rhs(head_vars + rest_vars, rng.randrange(1, 3))
            rules.append(crs.Rule(fname, lhs, rhs))
    return crs.validate_system(sig, rules)


def random_closed_term(rng, sig, depth):
    """Random closed term over sig, nested at most depth deep."""
    fnames = list(sig.functions)
    cnames = list(sig.constructors)
    if depth <= 0:
        return crs.Node("c0")
    if rng.random() < 0.5:
        name = rng.choice(fnames)
        ar = sig.functions[name]
    else:
        name = rng.choice(cnames)
        ar = sig.constructors[name]
    return crs.Node(name, tuple(random_closed_term(rng, sig, depth - 1)
                                for _ in range(ar)))
