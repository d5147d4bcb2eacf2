"""Shared helpers for the test suite."""

import dataclasses
import hashlib
import importlib.util
import pathlib
import sys
from typing import Iterator, NamedTuple, Optional

from hypothesis import strategies as st

from make_corpus import church_two, random_closed, two_tower  # noqa: F401  (corpus builder)
from normbench import crs, encode, graphs, lam, scott
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
    """Exact structural equality without recursion: same types;
    dataclasses such as the outcomes field by field, `fires` included
    although their == skips it; tuples and lists item by item; anything
    else by its ==, which on terms is a walk of its own that compares
    exact types and fields."""
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


def check_arities(t, sig):
    """Raise for the first node of t, in pre-order with the children taken
    last to first, whose symbol sig does not declare with its number of
    children."""
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, crs.Node):
            crs._check_node(s, sig)
            todo.extend(s.children)


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
            check_arities(p, sig)
            if not is_pattern(p, sig):
                raise crs.InvalidRule(f"rule {idx}: lhs argument is not a pattern")
            for v in crs.variables(p):
                if v in seen:
                    raise crs.NonLinearLhs(idx, v)
                seen.add(v)
        check_arities(rule.rhs, sig)
        extra = set(crs.variables(rule.rhs)) - seen
        if extra:
            raise crs.InvalidRule(f"rule {idx}: rhs variables {sorted(extra)} not bound in lhs")
    pair = reference_first_overlap(rules)[0]
    if pair is not None:
        raise crs.OverlapError(*pair)


def reference_first_overlap(rules):
    """The first overlapping pair that a scan of every pair of rules meets,
    heads by first appearance, then (i, j) in rule order, or None; and the
    scan's work: one unit per pair of rules tried and one per pair of
    pattern nodes compared.  A pair whose first patterns are rooted at
    different constructors costs its one unit."""
    roots = [rule.lhs[0].symbol if rule.lhs and isinstance(rule.lhs[0], crs.Node) else None
             for rule in rules]
    by_head = {}
    for idx, rule in enumerate(rules):
        by_head.setdefault(rule.head, []).append(idx)
    work = 0
    for idxs in by_head.values():
        for a, i in enumerate(idxs):
            for j in idxs[a + 1:]:
                work += 1
                if roots[i] is not None and roots[j] is not None and roots[i] != roots[j]:
                    continue
                todo = list(zip(rules[i].lhs, rules[j].lhs))
                while todo:
                    p, q = todo.pop()
                    work += 1
                    if isinstance(p, crs.Node) and isinstance(q, crs.Node):
                        if p.symbol != q.symbol:
                            break
                        todo.extend(zip(p.children, q.children))
                else:
                    return (i, j), work
    return None, work


def staircase(k):
    """k rules f(...) -> d over k arguments: rule i holds a in argument i,
    b in argument i + 1 (mod k) and variables elsewhere, so rules 0 and 2
    are the least overlapping pair.  A match tree that copied each rule
    with a variable into every branch would be exponential here."""
    rules = []
    for i in range(k):
        pats = [crs.Var(f"x{j}") for j in range(k)]
        pats[i], pats[(i + 1) % k] = crs.Node("a"), crs.Node("b")
        rules.append(crs.Rule("f", tuple(pats), crs.Node("d")))
    return rules


def default_staircase(n):
    """(system, term): f over n + 1 arguments and n rules, rule i with T
    in argument i, c_i in the last and variables elsewhere, and
    f(U, T, .., T, c_{n-1}), which rule n - 1 rewrites.  No two rules
    overlap, but each switch's rows with a variable wait in its default,
    so a matcher that copied them into every branch is exponential."""
    sig = crs.Signature({"T": 0, "U": 0, **{f"c{i}": 0 for i in range(n)}}, {"f": n + 1})
    rules = [crs.Rule("f", tuple(crs.Node("T") if j == i else crs.Var(f"x{j}") for j in range(n))
                      + (crs.Node(f"c{i}"),), crs.Var(f"x{(i + 1) % n}")) for i in range(n)]
    t = crs.Node("f", (crs.Node("U"),) + (crs.Node("T"),) * (n - 1) + (crs.Node(f"c{n - 1}"),))
    return crs.validate_system(sig, rules), t


# --- per-occurrence registration: the reference for the encoders' table ---------

def canonical_form(t: Term) -> str:
    """Alpha-invariant print: binders become relative indices, free names stay."""
    out: list[str] = []
    env: dict[str, list[int]] = {}
    depth = 0
    todo: list[tuple[str, object]] = [("go", t)]
    while todo:
        op, arg = todo.pop()
        if op == "lit":
            out.append(arg)
            continue
        if op == "unbind":
            env[arg].pop()
            depth -= 1
            continue
        if isinstance(arg, Var):
            lvls = env.get(arg.name)
            out.append(f"@{depth - 1 - lvls[-1]}" if lvls else f"!{arg.name}")
        elif isinstance(arg, Abs):
            out.append("\\.")
            env.setdefault(arg.binder, []).append(depth)
            depth += 1
            todo.append(("unbind", arg.binder))
            todo.append(("go", arg.body))
        else:
            out.append("(")
            todo.append(("lit", ")"))
            todo.append(("go", arg.arg))
            todo.append(("lit", " "))
            todo.append(("go", arg.fun))
    return "".join(out)


class ReferenceRegistry:
    """The encoders' registry as a walk per registration: each call prints
    the canonical form of its abstraction, and a new constructor walks it
    again for its free variables."""

    def __init__(self):
        self.by_name = {}
        self._by_key = {}

    def register(self, t):
        key = canonical_form(t)
        name = self._by_key.get(key)
        if name is not None:
            return self.by_name[name]
        name = "lam_" + hashlib.sha256(key.encode()).hexdigest()[:10]
        if name in self.by_name:
            raise encode.EncodeError(f"constructor name collision on {name}")
        con = encode.AbsConstructor(name, t.binder, t.body, lam.free_vars(t))
        self.by_name[name] = con
        self._by_key[key] = name
        return con


def abstraction_occurrences(t):
    """Every abstraction occurrence of t, in a breadth-first walk of its
    unfolded tree."""
    out = []
    todo = [t]
    i = 0
    while i < len(todo):
        s = todo[i]
        i += 1
        if isinstance(s, Abs):
            out.append(s)
            todo.append(s.body)
        elif isinstance(s, App):
            todo.append(s.fun)
            todo.append(s.arg)
    return out


def lam_is_closed(t: Term) -> bool:
    return not lam.free_vars(t)


def crs_is_closed(t: crs.Term) -> bool:
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, crs.Var):
            return False
        todo.extend(s.children)
    return True


def reference_encode_cbv(m):
    """(term, system, registry) of the CBV image, every abstraction
    occurrence of m registered by its own walks."""
    if not lam_is_closed(m):
        raise encode.OpenTermError(f"free variables: {lam.free_vars(m)}")
    reg = ReferenceRegistry()
    for sub in abstraction_occurrences(m):
        reg.register(sub)
    return (*encode._phi_image(m, reg), reg)


def reference_encode_cbn(m):
    """(term, system, registry, admin rule) of the CBN image, every
    abstraction occurrence of m registered by its own walks."""
    if not lam_is_closed(m):
        raise encode.OpenTermError(f"free variables: {lam.free_vars(m)}")
    reg = ReferenceRegistry()
    identity = reg.register(Abs("z", Var("z")))
    for sub in abstraction_occurrences(m):
        reg.register(sub)
    term, system, admin = encode._psi_image(m, reg, identity)
    return term, system, reg, admin


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


def random_patterns_system(rng):
    """(signature, rules) of random linear left sides full of variables
    and with the same right side, so that only overlap can be at fault."""
    sig = crs.Signature({"a": 0, "b": 0, "s": 1, "p": 2}, {"f": 2, "g": 1, "h": 3, "k": 0})
    fresh = iter(range(10**6))

    def pattern(depth):
        if not depth or rng.random() < 0.35:
            return crs.Var(f"x{next(fresh)}")
        c = rng.choice(list(sig.constructors))
        return crs.Node(c, tuple(pattern(depth - 1) for _ in range(sig.constructors[c])))

    heads = rng.choices(list(sig.functions), k=rng.randrange(1, 9))
    return sig, [crs.Rule(h, tuple(pattern(3) for _ in range(sig.functions[h])), crs.Node("a"))
                 for h in heads]


def backtracking_system(rng):
    """Random orthogonal system whose match trees backtrack.  Each head
    takes two or three arguments, and its left sides are nested
    constructor patterns with variables, each drawn at random and kept
    if it overlaps no left side kept before.  The first one drawn has a
    variable first, so it waits in the default of the root switch while
    the rows with a constructor there read on.  Right sides build
    function nodes over the rule's variables, half of them over some
    left side whose variables are filled in, so that a built node goes
    some way down a branch before it fails or matches."""
    sig = crs.Signature({"c0": 0, "c1": 1, "c2": 2},
                        {f"f{i}": rng.randrange(2, 4) for i in range(rng.randrange(1, 3))})
    fresh = iter(range(10**6))

    def pattern(depth):
        if not depth or rng.random() < 0.3:
            return crs.Var(f"x{next(fresh)}")
        c = rng.choice(list(sig.constructors))
        return crs.Node(c, tuple(pattern(depth - 1) for _ in range(sig.constructors[c])))

    lefts = []
    for head, ar in sig.functions.items():
        for k in range(rng.randrange(6, 14)):
            lhs = (pattern(0 if k == 0 else 2),) + tuple(pattern(2) for _ in range(ar - 1))
            try:
                crs.validate_system(sig, [crs.Rule(h, ps, crs.Node("c0"))
                                          for h, ps in lefts + [(head, lhs)]])
            except crs.OverlapError:
                continue
            lefts.append((head, lhs))

    def rhs(names, depth):
        kind = rng.choice(["var", "con", "fun", "fun"] if depth else ["var"])
        if kind == "var":
            return crs.Var(rng.choice(names)) if names else crs.Node("c0")
        if kind == "fun" and rng.random() < 0.5:
            head, lhs = rng.choice(lefts)
            return crs.Node(head, tuple(
                apply_subst(p, {x: rhs(names, depth - 1) for x in crs.variables(p)})
                for p in lhs))
        table = sig.constructors if kind == "con" else sig.functions
        name = rng.choice(list(table))
        return crs.Node(name, tuple(rhs(names, depth - 1) for _ in range(table[name])))

    return crs.validate_system(sig, [
        crs.Rule(head, lhs, rhs([x for p in lhs for x in crs.variables(p)], rng.randrange(1, 3)))
        for head, lhs in lefts])


def random_value(rng, sig, depth):
    """A random constructor term over sig, at most depth deep; sig has a
    nullary constructor."""
    name = rng.choice([c for c, ar in sig.constructors.items() if ar == 0 or depth > 0])
    return crs.Node(name, tuple(random_value(rng, sig, depth - 1)
                                for _ in range(sig.constructors[name])))


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


def match_at(system, t):
    """The unique rule instance firing at the root of t, if any: a plain
    match, tried with every rule of the head, whose bindings are all
    constructor terms (the CBV condition)."""
    if not isinstance(t, crs.Node) or not system.signature.is_function(t.symbol):
        return None
    hits = []
    for rule in system.rules:
        if rule.head != t.symbol:
            continue
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


def tree_backtracks(system, t):
    """How many times the walk of the match tree of t's head, t a
    function node over constructor terms, goes back to a default after a
    branch it took fails (CrsSystem._match's walk)."""
    node, slots, back, n = system._trees[t.symbol], list(t.children), [], 0
    while True:
        while type(node) is list:
            sub = node[1].get(slots[node[0]].symbol)
            if sub is None:
                node = node[2]
            else:
                if node[2] is not None:
                    back.append((node[2], len(slots)))
                slots += slots[node[0]].children
                node = sub
        if node is not None or not back:
            return n
        node, k = back.pop()
        del slots[k:]
        n += 1


def run_backtracks(system, t, budget, max_nodes=400):
    """How many times the matches of the leftmost run of t, up to budget
    steps or until the term passes max_nodes nodes, backtrack
    (tree_backtracks), as (at load, at build): the matches of the function
    nodes over constructor terms in t, which the engines match as they
    load it, and in each contractum, which they match as they build it."""
    sig = system.signature

    def count(s):
        n, todo = 0, [s]
        while todo:
            u = todo.pop()
            if sig.is_function(u.symbol) and all(crs.is_constructor_term(c, sig)
                                                 for c in u.children):
                n += tree_backtracks(system, u)
            todo += u.children
        return n

    loaded, built = count(t), 0
    for _ in range(budget):
        hit = next(redexes(system, t), None)
        if hit is None or term_size(t) > max_nodes:
            break
        path, rule, subst = hit
        new = apply_subst(rule.rhs, subst)
        built += count(new)
        t = crs_replace_at(t, path, new)
    return loaded, built


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


def reference_free_set(t: Term) -> set[str]:
    """Free variables of a lambda term, walking its unfolding: the
    reference for lam._free_set_shared, which visits each object once."""
    free: set[str] = set()
    bound: dict[str, int] = {}
    todo: list[tuple[str, object]] = [("go", t)]
    while todo:
        op, arg = todo.pop()
        if op == "go":
            if isinstance(arg, Var):
                if bound.get(arg.name, 0) == 0:
                    free.add(arg.name)
            elif isinstance(arg, Abs):
                bound[arg.binder] = bound.get(arg.binder, 0) + 1
                todo.append(("unbind", arg.binder))
                todo.append(("go", arg.body))
            else:
                todo.append(("go", arg.arg))
                todo.append(("go", arg.fun))
        else:
            bound[arg] -= 1
    return free


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


def fixpoint_family(n: int) -> tuple[list[Term], int]:
    """The Scott compiler's fixed-point terms H1..Hn, built by a fresh
    builder, and their bound 2n: Hi V1..Vn reduces to
    Vi (\\x. H1 V1..Vn x) .. (\\x. Hn V1..Vn x) in at most 2n steps."""
    return scott._fixpoint_family(scott._Built(), n)


# --- rule graphs and the generic graph machine: the reference for graphs ----

@dataclasses.dataclass
class GraphRule:
    """Labelled graph with left and right roots.

    Every path from the left root is a left path: the left root is a
    function symbol and everything below it is a constructor or unlabelled,
    and an unlabelled node, a variable, has no children.  Unlabelled nodes
    reachable from the right root are also reachable from the left root,
    and the left root is not: a replacement cannot hold the node it
    replaces.  rule_to_graph_rule gives such graphs for the rules of a
    CrsSystem.
    """

    graph: graphs.TermGraph
    left: int
    right: int


def add_tree(g, t, varnode):
    """Add a tree for t to g, children before their parent, and return its
    root.  One node per symbol occurrence; a variable gets one unlabelled
    node per name, looked up in and recorded into varnode."""
    results = []
    todo = [(False, t)]
    while todo:
        done, node = todo.pop()
        if isinstance(node, crs.Var):
            v = varnode.get(node.name)
            if v is None:
                v = varnode[node.name] = g.new_node(None)
            results.append(v)
        elif not done:
            todo.append((True, node))
            todo.extend((False, c) for c in reversed(node.children))
        else:
            k = len(node.children)
            kids = tuple(results[-k:]) if k else ()
            if k:
                del results[-k:]
            v = g.new_node(node.symbol)
            g.set_children(v, kids)
            results.append(v)
    return results[0]


def rule_to_graph_rule(rule):
    """Trees of both sides, sharing exactly the variable nodes."""
    g = graphs.TermGraph()
    varnode = {}
    left = add_tree(g, crs.Node(rule.head, rule.lhs), varnode)
    return GraphRule(g, left, add_tree(g, rule.rhs, varnode))


# kinds of step of a rule graph's match program: a constructor node of
# the left side, and a variable
LABEL, BIND = 0, 1


class RuleGraphCompile(NamedTuple):
    """A rule graph compiled by walks over the graph.

    A match fills `slots` slots with graph nodes, the anchor in slot 0.
    A step (kind, parent, i, arg) takes the i-th child of the node in
    slot parent, which for LABEL must carry the label arg and for BIND
    be function-free, and fills the next slot; the steps visit the left
    side depth first, last child first.  The copies are the right-only
    nodes in ascending node order, with their labels and kids; a kid,
    and the right root, is a slot, or slots + k for the k-th copy.  plan
    lists the copies that a firing decides, as (reference, reference of
    the parent copy or -1 at the right root, index there), children
    before their parent, and plan_work counts the replacement and the
    child slots of those copies."""

    match: tuple[tuple[int, int, int, Optional[str]], ...]
    slots: int
    labels: tuple[str, ...]
    kids: tuple[tuple[int, ...], ...]
    right: int
    plan: tuple[tuple[int, int, int], ...]
    plan_work: int


def reference_compile_rule(gr):
    """The compile of a rule graph whose left side is a tree, by walks
    over the graph: the match program from the left root, the copies by
    reachability from the right root, in ascending node order.  The plan
    leaves out a copy shared within the right side.  Returns the
    RuleGraphCompile and the rule node of each slot."""
    rg = gr.graph
    slot = {gr.left: 0}                 # the left side's nodes
    match = []
    todo = [(c, 0, i) for i, c in enumerate(rg.succ[gr.left])]
    while todo:
        rn, parent, i = todo.pop()
        slot[rn] = s = len(slot)
        lab = rg.label[rn]
        if lab is None:
            match.append((BIND, parent, i, None))
        else:
            match.append((LABEL, parent, i, lab))
            todo.extend((c, s, j) for j, c in enumerate(rg.succ[rn]))
    fresh = [v for v in sorted(reachable(rg, gr.right)) if v not in slot]
    labels = tuple(rg.label[v] for v in fresh)
    n = len(slot)
    ref = dict(slot)
    ref.update((v, n + k) for k, v in enumerate(fresh))
    kids = tuple(tuple(ref[c] for c in rg.succ[v]) for v in fresh)
    right = ref[gr.right]
    copies = [0] * len(fresh)           # in-edges of each copy from copies
    for kr in kids:
        for r in kr:
            if r >= n:
                copies[r - n] += 1
    # pre-order from the right root, last child first, then reversed
    plan = []
    plan_work = 1
    todo = [(right, -1, 0)] if right >= n else []
    while todo:
        entry = todo.pop()
        plan.append(entry)
        r = entry[0]
        kr = kids[r - n]
        plan_work += len(kr)
        for j, c in enumerate(kr):
            if c >= n and copies[c - n] == 1:
                todo.append((c, r, j))
    plan.reverse()
    return RuleGraphCompile(tuple(match), n, labels, kids, right, tuple(plan),
                            plan_work), tuple(slot)


def slot_nodes(gr):
    """The rule node in each of the system's slots for the rule of gr
    (crs._match_program): the arguments left to right, then the children
    of each constructor slot in slot order."""
    rg = gr.graph
    nodes = list(rg.succ[gr.left])
    i = 0
    while i < len(nodes):
        if rg.label[nodes[i]] is not None:
            nodes += rg.succ[nodes[i]]
        i += 1
    return nodes


def reference_template(gr, sig):
    """The graph build template of gr's rule in the system's slot order,
    from reference_compile_rule through a slot mapping: a slot of the
    rule-graph compile goes to the system slot of the same rule node, and
    its k-th copy to the system's slot count plus k.  Also returns the
    mapped match program: the (slot, label) steps in slot order and the
    set of variable slots."""
    cr, ref_slots = reference_compile_rule(gr)
    nodes = slot_nodes(gr)
    n = len(nodes)
    pos = {rn: s for s, rn in enumerate(nodes)}

    def ref(r):
        return pos[ref_slots[r]] if r < cr.slots else n + r - cr.slots

    copies = []
    for lab, kr in zip(cr.labels, cr.kids):
        kr = tuple(map(ref, kr))
        copies.append((lab, kr, sig.is_function(lab),
                       tuple(j for j, c in enumerate(kr) if c >= n)))
    steps = sorted((pos[ref_slots[m + 1]], lab)
                   for m, (kind, _, _, lab) in enumerate(cr.match) if kind == LABEL)
    variables = {pos[ref_slots[m + 1]] for m, step in enumerate(cr.match) if step[0] == BIND}
    return graphs.Template(tuple(copies), ref(cr.right), cr.plan_work), (steps, variables)


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


def reference_find_redex(g, grules, sig, rng=None, counter=None):
    """find_redex with every rule graph of the head tried by the generic
    matcher; (rule graph, phi) or None, or with rng the hit at
    rng.randrange of their number in post-order."""
    counter = [0] if counter is None else counter
    ffree = {}
    found = []
    for v in graphs._post_order(g, g.root):
        counter[0] += 1
        lab = g.label[v]
        if lab is None or not sig.is_function(lab):
            continue
        hits = []
        for gr in grules:
            if gr.graph.label[gr.left] == lab:
                phi = reference_try_match(g, gr, v, sig, ffree, counter)
                if phi is not None:
                    hits.append((gr, phi))
        assert len(hits) <= 1
        if hits:
            if rng is None:
                return hits[0]
            found.append(hits[0])
    return found[rng.randrange(len(found))] if found else None


def reference_build_phase(g, rule, phi):
    """Copy the right-only nodes, found by reachability on the rule graph,
    in ascending order; (replacement, nodes that gained an in-edge)."""
    rg = rule.graph
    left_nodes = reachable(rg, rule.left)
    fresh = [v for v in sorted(reachable(rg, rule.right)) if v not in left_nodes]
    copy = {v: g.new_node(rg.label[v]) for v in fresh}
    touched = []
    for v in fresh:
        kids = tuple(copy[c] if c in copy else phi[c] for c in rg.succ[v])
        g.set_children(copy[v], kids)
        touched.extend(kids)
    replacement = copy[rule.right] if rule.right in copy else phi[rule.right]
    touched.append(replacement)
    return replacement, touched


def reference_redirect(g, anchor, replacement):
    """Point every in-edge of anchor, found by a scan of succ, and the
    root if it is anchor, at replacement."""
    in_edges = [(u, i) for u, kids in g.succ.items() for i, c in enumerate(kids) if c == anchor]
    for parent, idx in in_edges:
        kids = list(g.succ[parent])
        kids[idx] = replacement
        g.set_children(parent, tuple(kids))
    if g.root == anchor:
        g.root = replacement


def reachable(g, start):
    """The nodes of TermGraph g reachable from start, start included."""
    seen = {start}
    todo = [start]
    while todo:
        for c in g.succ[todo.pop()]:
            if c not in seen:
                seen.add(c)
                todo.append(c)
    return seen


def reference_collect(g):
    """Delete every node unreachable from the root."""
    live = reachable(g, g.root)
    dead = [v for v in g.label if v not in live]
    for v in dead:
        for c in g.succ[v]:
            if c in live:
                g.refs[c] -= 1
    for v in dead:
        del g.label[v], g.succ[v], g.refs[v]


def reference_graph_reduce(g, grules, sig, budget, rng=None):
    """graph_reduce spelled out as a loop of whole-graph passes with the
    generic matcher and the reachability build: find the redex from the
    root, then build, redirect every in-edge (found by a scan of succ)
    with set_children, collect everything unreachable, and check
    constructor-sharedness on the whole graph after every step.  Returns
    the visits of each search as work."""
    sizes = [g.node_count()]
    work = []
    steps = 0
    while steps < budget:
        counter = [0]
        hit = reference_find_redex(g, grules, sig, rng=rng, counter=counter)
        work.append(counter[0])
        if hit is None:
            return "normal", steps, sizes, work
        rule, phi = hit
        replacement, _ = reference_build_phase(g, rule, phi)
        reference_redirect(g, phi[rule.left], replacement)
        reference_collect(g)
        steps += 1
        sizes.append(g.node_count())
        assert graphs.is_constructor_shared(g, sig)
    kind = "normal" if reference_find_redex(g, grules, sig) is None else "exhausted"
    return kind, steps, sizes, work


def bench_workloads():
    """bench/workloads.py, for the systems of the benchmark's families."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
