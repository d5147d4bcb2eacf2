"""The package holds no recursive function and leaves the interpreter's
recursion limit alone: term depth grows with the input, so every walk
over a term is an explicit-stack loop."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

from normbench import crs, lam
from normbench.frozen import distinct_nodes
from normbench.lam import Abs, App, Var

SRC = Path(__file__).resolve().parents[1] / "src" / "normbench"


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Function -> the functions of the module it may call, by name.

    Functions are keyed by their dotted path in the module, nested defs
    and methods included.  A call `f(...)` may reach every function that
    is not a method and is named f; a call `self.f(...)` or `cls.f(...)`
    every method named f.  Calls inside a nested def belong to the nested
    def; calls inside a lambda to the function around it.
    """
    funcs: dict[str, ast.AST] = {}
    plain: dict[str, set[str]] = {}
    methods: dict[str, set[str]] = {}
    todo = [(tree, "", False)]
    while todo:
        node, prefix, in_class = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = prefix + child.name
                funcs[key] = child
                (methods if in_class else plain).setdefault(child.name, set()).add(key)
                todo.append((child, key + ".", False))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, prefix + child.name + ".", True))
            else:
                todo.append((child, prefix, in_class))
    graph: dict[str, set[str]] = {}
    for key, fn in funcs.items():
        callees: set[str] = set()
        todo = list(ast.iter_child_nodes(fn))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    callees |= plain.get(node.func.id, set())
                elif (isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id in ("self", "cls")):
                    callees |= methods.get(node.func.attr, set())
            todo.extend(ast.iter_child_nodes(node))
        graph[key] = callees
    return graph


def recursive_functions(source: str) -> list[str]:
    """The functions of a module that can reach themselves in its call graph."""
    graph = _call_graph(ast.parse(source))
    found = []
    for start in graph:
        seen: set[str] = set()
        todo = list(graph[start])
        while todo:
            f = todo.pop()
            if f == start:
                found.append(start)
                break
            if f not in seen:
                seen.add(f)
                todo.extend(graph[f])
    return sorted(found)


def test_finds_direct_mutual_and_nested_recursion():
    source = '''
def direct(n):
    return direct(n - 1)

def ping(n):
    return pong(n)

def pong(n):
    return ping(n)

def outer(t):
    def walk(t):
        yield from walk(t)
    return list(walk(t))

class C:
    def m(self):
        return self.m()

def loop(n):
    while n:
        n -= 1
'''
    assert recursive_functions(source) == ["C.m", "direct", "outer.walk", "ping", "pong"]


def test_no_recursive_function_in_the_package():
    found = {path.name: recursive_functions(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 8
    assert {name: fs for name, fs in found.items() if fs} == {}


def test_import_leaves_the_recursion_limit_alone():
    code = ("import sys; before = sys.getrecursionlimit(); import normbench; "
            "print(before, sys.getrecursionlimit())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    before, after = out.stdout.split()
    assert before == after


def test_free_set_shared_walks_a_deep_chain():
    # \v0. (\v1. (... v0 w) w) w, 10^5 binders deep, in one walk
    depth = 100_000
    assert depth > sys.getrecursionlimit()
    t = App(Var("v0"), Var("w"))
    for i in reversed(range(depth)):
        t = App(Abs(f"v{i % 7}", t), Var("w"))
    assert lam._free_set_shared(t, {}) == {"w"}
    assert lam._free_set_shared(Abs("w", t), {}) == frozenset()


def test_size_at_depth_and_at_dag_cost():
    # lam.size of a 10^5-deep chain at the default limit, and of a DAG
    # whose unfolding doubles with each of its 20 levels
    depth = 100_000
    assert depth > sys.getrecursionlimit()
    t = Var("x")
    for i in range(depth):
        t = App(Abs("y", t), Var("z")) if i % 2 else Abs("y", t)
    assert lam.size(t) == 1 + depth // 2 + 3 * (depth // 2)
    d = Var("x")
    for _ in range(20):
        d = App(d, d)
    assert lam.size(d) == 2 ** 21 - 1



def _children(s):
    return ([c for c in s.children if isinstance(c, crs.Node)] if type(s) is crs.Node
            else [s.body] if type(s) is Abs else [s.fun, s.arg] if type(s) is App else [])


def test_distinct_nodes_yields_each_object_once_children_first():
    # shared subterms of both kinds, a chain 10^5 deep at the default
    # limit, and a node with foreign values among its children
    depth = 100_000
    assert depth > sys.getrecursionlimit()
    x, y = Var("x"), Abs("y", Var("y"))
    z = crs.Node("z")
    chain = crs.Node("s", (z, z))
    for i in range(depth):
        chain = crs.Node("s", (chain, z)) if i % 2 else crs.Node("s", (chain,))
    for t, expected in ((App(App(x, y), App(y, x)), 6),
                        (crs.Node("f", (z, "z", 1, (), chain)), depth + 3),
                        (chain, depth + 2)):
        order = list(distinct_nodes(t))
        assert len(order) == len({id(s) for s in order}) == expected
        place = {id(s): i for i, s in enumerate(order)}
        assert order[-1] is t
        assert all(place[id(c)] < place[id(s)] for s in order for c in _children(s))
    # an object whose id is known is neither entered nor yielded
    assert [type(s) for s in distinct_nodes(App(App(x, y), y), {id(y)})] == [Var, App, App]


def test_term_equality_and_hash_at_depth():
    # == and hash of both kinds of term, 10^5 deep, at the default limit:
    # structural, exact-type, and equal terms hash equal
    from normbench import crs
    depth = 100_000
    assert depth > sys.getrecursionlimit()

    def lam_chain(leaf):
        t = Var(leaf)
        for i in range(depth):
            t = App(Abs(f"v{i % 3}", t), Var("w")) if i % 2 else Abs("v", t)
        return t

    def crs_chain(leaf):
        t = crs.Node(leaf)
        for i in range(depth):
            t = crs.Node("s", (t, crs.Var("x"))) if i % 2 else crs.Node("s", (t,))
        return t

    for chain in (lam_chain, crs_chain):
        a, b, c = chain("z"), chain("z"), chain("y")
        assert a == b and hash(a) == hash(b)
        assert a != c and not a == c
        assert {a: 1}[b] == 1
    a, b = lam_chain("z"), lam_chain("z")
    assert Abs("x", a) != Abs("y", b) and App(a, Var("x")) != App(b, Var("y"))
    assert lam.Var("x") != crs.Var("x") and crs.Node("x") != lam.Var("x")
    assert Abs("x", Var("x")) != App(Var("x"), Var("x"))
    assert crs.Node("f", (crs.Var("x"),)) != crs.Node("f", (crs.Var("x"), crs.Var("x")))
    assert hash(crs.Node("f")) == hash(crs.Node("f", ()))


def test_copy_and_pickle_at_depth():
    # pickle and deepcopy of both kinds of term, 10^5 deep, at the
    # default limit, give an equal term
    from normbench import crs
    depth = 100_000
    assert depth > sys.getrecursionlimit()
    a = crs.Node("z")
    for _ in range(depth):
        a = crs.Node("s", (a,))
    b = Var("x")
    for _ in range(depth):
        b = App(b, Var("y"))
    for t in (a, b):
        for other in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert type(other) is type(t) and other == t


def test_repr_at_depth():
    # repr of both kinds of term, 10^5 deep, at the default limit: the
    # dataclass text, as the shallow pins in test_frozen.py read it
    from normbench import crs
    depth = 100_000
    assert depth > sys.getrecursionlimit()
    t = crs.Node("z")
    for _ in range(depth):
        t = crs.Node("s", (t,))
    assert repr(t) == ("Node(symbol='s', children=(" * depth
                       + "Node(symbol='z', children=())" + ",))" * depth)
    t = Var("x")
    for _ in range(depth):
        t = App(Abs("x", t), Var("y"))
    assert repr(t) == ("App(fun=Abs(binder='x', body=" * depth + "Var(name='x')"
                       + "), arg=Var(name='y'))" * depth)


def test_deep_inputs_load_and_print():
    # crs.reduce loads its input in one walk, at depth 10^5: succ^n(zero)
    # under a function, and a spine of n nested function nodes; the graph
    # engine prints its deep result from its records
    from normbench import crs, graphs
    depth = 100_000
    assert depth > sys.getrecursionlimit()
    sig = crs.Signature({"zero": 0, "succ": 1}, {"f": 1})
    system = crs.CrsSystem(sig, [crs.Rule("f", (crs.Var("x"),), crs.Var("x"))])
    nat = spine = crs.Node("zero")
    for _ in range(depth):
        nat, spine = crs.Node("succ", (nat,)), crs.Node("f", (spine,))
    out = crs.reduce(system, crs.Node("f", (nat,)))
    assert (out.kind, out.steps) == ("constructor", 1) and out.term == nat
    out = crs.reduce(system, spine, depth)
    assert (out.kind, out.steps) == ("constructor", depth) and out.term == crs.Node("zero")
    g = graphs.graph_reduce(crs.Node("f", (nat,)), system)
    assert graphs.unfold_to_str(g, depth + 1) == crs.term_to_str(nat)
