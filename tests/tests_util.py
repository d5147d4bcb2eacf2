"""Shared helpers for the test suite."""

import dataclasses
import importlib.util
import pathlib
import sys
from typing import Iterator, Optional

from hypothesis import strategies as st

from make_corpus import church_two, random_closed, two_tower  # noqa: F401  (corpus builder)
from normbench import crs, lam
from normbench.lam import Abs, App, Term, Var


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


# --- the multi-pass rule check: the reference for CrsSystem's compile ----------

def is_pattern(t, sig):
    """Built from constructors and variables."""
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, crs.Node):
            if not sig.is_constructor(s.symbol):
                return False
            todo.extend(s.children)
    return True


def reference_validate(sig, rules):
    """The rule check as separate walks over each rule side: raises on the
    first invalid rule, checking its head, then each pattern's arities,
    pattern-ness and linearity in turn, then its right side's arities and
    variables; then on the first overlapping pair of a head in rule order."""
    for idx, rule in enumerate(rules):
        if not sig.is_function(rule.head):
            raise crs.InvalidRule(f"rule {idx}: head {rule.head!r} is not a function symbol")
        if len(rule.lhs) != sig.arity(rule.head):
            raise crs.ArityMismatch(rule.head, sig.arity(rule.head), len(rule.lhs))
        seen = set()
        for p in rule.lhs:
            crs._check_arities(p, sig)
            if not is_pattern(p, sig):
                raise crs.InvalidRule(f"rule {idx}: lhs argument is not a pattern")
            for v in crs.variables(p):
                if v in seen:
                    raise crs.NonLinearLhs(idx, v)
                seen.add(v)
        crs._check_arities(rule.rhs, sig)
        extra = set(crs.variables(rule.rhs)) - seen
        if extra:
            raise crs.InvalidRule(f"rule {idx}: rhs variables {sorted(extra)} not bound in lhs")
    roots = [rule.lhs[0].symbol if rule.lhs and isinstance(rule.lhs[0], crs.Node) else None
             for rule in rules]
    by_head = {}
    for idx, rule in enumerate(rules):
        by_head.setdefault(rule.head, []).append(idx)
    for idxs in by_head.values():
        for a, i in enumerate(idxs):
            for j in idxs[a + 1:]:
                if roots[i] is not None and roots[j] is not None and roots[i] != roots[j]:
                    continue
                if all(crs._patterns_compatible(p, q) for p, q in zip(rules[i].lhs, rules[j].lhs)):
                    raise crs.OverlapError(i, j)


# --- the from-the-root step relation: the reference for the engines ------------

def term_size(t):
    """Number of nodes of a crs term."""
    n = 0
    todo = [t]
    while todo:
        s = todo.pop()
        n += 1
        if isinstance(s, crs.Node):
            todo.extend(s.children)
    return n


def leaf_count(t):
    """Number of variable occurrences of a lambda term."""
    n = 0
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Var):
            n += 1
        elif isinstance(s, Abs):
            todo.append(s.body)
        else:
            todo.append(s.fun)
            todo.append(s.arg)
    return n


def match_args(patterns, args):
    """Plain left-linear matching: a variable binds whatever it meets."""
    subst = {}
    todo = list(zip(patterns, args))
    while todo:
        pp, tt = todo.pop()
        if isinstance(pp, crs.Var):
            subst[pp.name] = tt
            continue
        if not isinstance(tt, crs.Node) or tt.symbol != pp.symbol:
            return None
        todo.extend(zip(pp.children, tt.children))
    return subst


def apply_subst(t, subst):
    """t with each variable that subst binds replaced by its binding."""
    results = []
    todo = [("go", t)]
    while todo:
        op, node = todo.pop()
        if op == "go":
            if isinstance(node, crs.Var):
                results.append(subst.get(node.name, node))
            elif node.children:
                todo.append(("mk", node))
                for c in reversed(node.children):
                    todo.append(("go", c))
            else:
                results.append(node)
        else:
            k = len(node.children)
            kids = results[-k:]
            del results[-k:]
            results.append(crs.Node(node.symbol, tuple(kids)))
    return results[0]


def candidates(system, head, first_arg):
    """The rules of head that can fire at a node with this first argument,
    in rule order, from the system's first-argument index."""
    root = first_arg.symbol if isinstance(first_arg, crs.Node) else None
    index = system._index
    return [system.rules[r] for r in index.get((head, root)) or index.get((head, None), ())]


def match_at(system, t):
    """The unique rule instance firing at the root of t, if any: a plain
    match whose bindings are all constructor terms (the CBV condition)."""
    if not isinstance(t, crs.Node) or not system.signature.is_function(t.symbol):
        return None
    hits = []
    first = t.children[0] if t.children else None
    for rule in candidates(system, t.symbol, first):
        subst = match_args(rule.lhs, t.children)
        if subst is not None and all(crs.is_constructor_term(v, system.signature)
                                     for v in subst.values()):
            hits.append((rule, subst))
    assert len(hits) <= 1, f"orthogonality violated at {t.symbol}"
    return hits[0] if hits else None


def redexes(system, t):
    """Redex occurrences (path, rule, subst) in leftmost-innermost order:
    post-order, children left to right."""
    stack = [[t, 0]]      # a node and the index of its next child
    path = []             # the index of each stack node but the root
    while stack:
        frame = stack[-1]
        node, i = frame
        if isinstance(node, crs.Node) and i < len(node.children):
            frame[1] = i + 1
            path.append(i)
            stack.append([node.children[i], 0])
            continue
        stack.pop()
        hit = match_at(system, node)
        if hit is not None:
            yield tuple(path), hit[0], hit[1]
        if path:
            path.pop()


def crs_replace_at(t, path, new):
    spine = []
    for i in path:
        spine.append(t)
        t = t.children[i]
    for node, i in zip(reversed(spine), reversed(path)):
        new = crs.Node(node.symbol, node.children[:i] + (new,) + node.children[i + 1:])
    return new


def rewrite_step(system, t):
    """One leftmost-innermost rewrite step, or None if t is normal."""
    hit = next(redexes(system, t), None)
    if hit is None:
        return None
    path, rule, subst = hit
    return crs_replace_at(t, path, apply_subst(rule.rhs, subst))


def reference_random_reduce(system, t, budget, rng, max_nodes=None):
    """reduce's random policy spelled out as the from-the-root loop: list
    every redex with `redexes` and fire the one at rng.randrange of their
    number.  Returns the outcome and the on_step calls as (rule, subst,
    term), or None once the term passes max_nodes nodes."""
    calls = []
    steps = 0
    while True:
        hits = list(redexes(system, t))
        if not hits:
            kind = "constructor" if crs.is_constructor_term(t, system.signature) else "stuck"
            return crs.CrsOutcome(kind, t, steps), calls
        if steps >= budget:
            return crs.CrsOutcome("exhausted", t, steps), calls
        path, rule, subst = hits[rng.randrange(len(hits))]
        t = crs_replace_at(t, path, apply_subst(rule.rhs, subst))
        calls.append((rule, subst, t))
        steps += 1
        if max_nodes is not None and term_size(t) > max_nodes:
            return None


def two_pass_parse_term(text, sig):
    """The reference for crs.parse_term: a first pass reads every bare
    atom as a variable and `x()` as a node, a second rebuilds the term
    with each variable whose name sig declares turned into a node."""
    toks = crs._TOKEN_RE.findall(text)
    n = len(toks)
    pos = 0
    open_ = []
    while True:
        if pos >= n:
            raise crs.CrsParseError("unexpected end of term")
        name = toks[pos]
        if not crs.IDENT_RE.fullmatch(name):
            raise crs.CrsParseError(f"expected identifier, got {name!r}")
        pos += 1
        if pos < n and toks[pos] == "(":
            pos += 1
            if pos < n and toks[pos] != ")":
                open_.append((name, []))
                continue
            if pos >= n:
                raise crs.CrsParseError("expected ')'")
            pos += 1
            t = crs.Node(name, ())
        else:
            t = crs.Var(name)
        while open_:
            name, kids = open_[-1]
            kids.append(t)
            if pos < n and toks[pos] == ",":
                pos += 1
                break
            if pos >= n or toks[pos] != ")":
                raise crs.CrsParseError("expected ')'")
            pos += 1
            open_.pop()
            t = crs.Node(name, tuple(kids))
        else:
            break
    if pos != n:
        raise crs.CrsParseError(f"trailing input: {toks[pos:]!r}")
    out = []
    todo = [t]
    while todo:
        s = todo.pop()
        if s is None:
            s = todo.pop()
            k = len(s.children)
            kids = tuple(out[-k:])
            del out[-k:]
            out.append(crs.Node(s.symbol, kids))
        elif isinstance(s, crs.Var):
            declared = sig.is_constructor(s.name) or sig.is_function(s.name)
            out.append(crs.Node(s.name) if declared else s)
        elif s.children:
            todo += (s, None, *reversed(s.children))
        else:
            out.append(s)
    return out[0]


# --- the substituting weak step relations: the reference for lam.reduce ----

Path = tuple[int, ...]


def is_value(t: Term) -> bool:
    """Values are variables and abstractions."""
    return isinstance(t, (Var, Abs))


def cbv_redexes(t: Term) -> Iterator[Path]:
    """Paths of weak CBV redexes, in leftmost (pre-order) order.

    A path lists child indices from the root: 0 = function, 1 = argument.
    Traversal never enters an abstraction body.
    """
    path: list[int] = []
    # applications still to visit: the node, its parent's depth, its index
    todo: list[tuple[App, int, int]] = [(t, 0, -1)] if isinstance(t, App) else []
    while todo:
        node, depth, i = todo.pop()
        del path[depth:]
        if i >= 0:
            path.append(i)
        if isinstance(node.fun, Abs) and is_value(node.arg):
            yield tuple(path)
        depth = len(path)
        if isinstance(node.arg, App):
            todo.append((node.arg, depth, 1))
        if isinstance(node.fun, App):
            todo.append((node.fun, depth, 0))


def subterm_at(t: Term, path: Path) -> Term:
    for i in path:
        assert isinstance(t, App)
        t = t.fun if i == 0 else t.arg
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    spine = []
    for i in path:
        assert isinstance(t, App)
        spine.append(t)
        t = t.fun if i == 0 else t.arg
    for node, i in zip(reversed(spine), reversed(path)):
        new = App(new, node.arg) if i == 0 else App(node.fun, new)
    return new


def contract(redex: Term) -> Term:
    assert isinstance(redex, App) and isinstance(redex.fun, Abs) and is_value(redex.arg)
    return lam.substitute(redex.fun.body, redex.fun.binder, redex.arg)


def cbv_step(t: Term, rng=None) -> Optional[Term]:
    """One weak CBV step, or None if t is normal.

    The default policy fires the leftmost redex; passing a random.Random
    picks uniformly among all redexes (diamond: same count either way).
    """
    if rng is None:
        path = next(cbv_redexes(t), None)
        if path is None:
            return None
    else:
        paths = list(cbv_redexes(t))
        if not paths:
            return None
        path = paths[rng.randrange(len(paths))]
    return replace_at(t, path, contract(subterm_at(t, path)))


def cbn_step(t: Term) -> Optional[Term]:
    """The unique weak call-by-name (head) step, or None."""
    spine = []
    while isinstance(t, App) and not isinstance(t.fun, Abs):
        spine.append(t.arg)
        t = t.fun
    if not isinstance(t, App):
        return None
    out = lam.substitute(t.fun.body, t.fun.binder, t.arg)
    for a in reversed(spine):
        out = App(out, a)
    return out


def reference_cbv_reduce(t: Term, budget: int, rng) -> lam.ReductionOutcome:
    """lam.reduce's random CBV policy as the substituting loop: iterate
    cbv_step under rng until t is normal or budget steps are taken."""
    steps = 0
    while steps < budget:
        nxt = cbv_step(t, rng)
        if nxt is None:
            return lam.ReductionOutcome("normal", t, steps)
        t = nxt
        steps += 1
    kind = "normal" if next(cbv_redexes(t), None) is None else "exhausted"
    return lam.ReductionOutcome(kind, t, steps)


# --- the generic graph matcher: the reference for graphs' record matcher ----

def reference_function_free(g, v, sig, memo, counter):
    """No function label at or below v, by a walk over g's dicts: memo
    keeps what earlier walks found, counter gains one per node visited."""
    hit = memo.get(v)
    if hit is not None:
        return hit
    todo = [v]
    trail = []
    ok = True
    while todo:
        u = todo.pop()
        if u in memo:
            if not memo[u]:
                ok = False
                break
            continue
        counter[0] += 1
        lab = g.label[u]
        if lab is not None and sig.is_function(lab):
            ok = False
            break
        trail.append(u)
        todo.extend(g.succ[u])
    if ok:
        for u in trail:
            memo[u] = True
    memo[v] = ok
    return ok


def reference_try_match(g, grule, anchor, sig, ffree, counter):
    """The generic matcher: walk the rule graph from the left root with a
    stack, binding rule nodes to graph nodes; phi or None."""
    rg = grule.graph
    phi = {}
    todo = [(grule.left, anchor)]
    while todo:
        rn, gn = todo.pop()
        counter[0] += 1
        bound = phi.get(rn)
        if bound is not None:
            if bound != gn:
                return None
            continue
        lab = rg.label[rn]
        if lab is None:
            if not reference_function_free(g, gn, sig, ffree, counter):
                return None
            phi[rn] = gn
            continue
        if g.label[gn] != lab:
            return None
        phi[rn] = gn
        todo.extend(zip(rg.succ[rn], g.succ[gn]))
    return phi

def bench_workloads():
    """bench/workloads.py, for the systems of the benchmark's families."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
