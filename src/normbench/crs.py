"""Orthogonal constructor term rewriting with call-by-value firing.

A system is a signature (constructors and function symbols with arities)
plus left-linear, pairwise non-overlapping rules whose left-hand sides are
function symbols applied to constructor patterns.  A redex only fires when
the matching substitution binds every variable to a constructor term, so
redexes are never nested and the step count to normal form does not depend
on the position policy.

`reduce` runs the leftmost-innermost policy on an innermost evaluation
machine: arguments are evaluated to constructor values left to right,
then their node is matched once, and a firing continues with the rule's
right-hand side under the match, so a step costs the same whatever the
size of the term.  Its step event is local: a hook receives the rule,
its match and a `state()` that builds the whole term only when called.
`redexes`, `replace_at` and `rewrite_step` are the from-the-root step
relation, kept as the reference: the random policy and the tests use it.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Literal, Optional, Union


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Node:
    symbol: str
    children: tuple["Term", ...] = ()


Term = Union[Var, Node]


class CrsError(Exception):
    """Base class for system validation failures."""


class OverlapError(CrsError):
    def __init__(self, i: int, j: int):
        super().__init__(f"rules {i} and {j} have unifiable left-hand sides")
        self.rules = (i, j)


class NonLinearLhs(CrsError):
    def __init__(self, rule: int, var: str):
        super().__init__(f"rule {rule}: variable {var!r} occurs twice in the lhs")
        self.rule = rule
        self.var = var


class ArityMismatch(CrsError):
    def __init__(self, symbol: str, expected: int, got: int):
        super().__init__(f"symbol {symbol!r} has arity {expected}, applied to {got} arguments")
        self.symbol = symbol


class UnknownSymbol(CrsError):
    def __init__(self, symbol: str):
        super().__init__(f"symbol {symbol!r} is not declared")
        self.symbol = symbol


class InvalidRule(CrsError):
    pass


@dataclass
class Signature:
    """Constructor and function symbols with arities, in declaration order."""

    constructors: dict[str, int]
    functions: dict[str, int]

    def __post_init__(self):
        dup = set(self.constructors) & set(self.functions)
        if dup:
            raise CrsError(f"symbols declared both constructor and function: {sorted(dup)}")
        for name, ar in list(self.constructors.items()) + list(self.functions.items()):
            if ar < 0:
                raise CrsError(f"negative arity for {name!r}")

    def arity(self, symbol: str) -> int:
        if symbol in self.constructors:
            return self.constructors[symbol]
        if symbol in self.functions:
            return self.functions[symbol]
        raise UnknownSymbol(symbol)

    def is_constructor(self, symbol: str) -> bool:
        return symbol in self.constructors

    def is_function(self, symbol: str) -> bool:
        return symbol in self.functions


@dataclass(frozen=True)
class Rule:
    head: str
    lhs: tuple[Term, ...]
    rhs: Term


def term_size(t: Term) -> int:
    n = 0
    todo = [t]
    while todo:
        s = todo.pop()
        n += 1
        if isinstance(s, Node):
            todo.extend(s.children)
    return n


def count_symbol(t: Term, symbol: str) -> int:
    """Number of occurrences of `symbol` in t."""
    n = 0
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Node):
            if s.symbol == symbol:
                n += 1
            todo.extend(s.children)
    return n


def variables(t: Term) -> list[str]:
    """Variable names in left-to-right occurrence order (with repeats)."""
    out: list[str] = []
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Var):
            out.append(s.name)
        else:
            todo.extend(reversed(s.children))
    return out


def is_closed(t: Term) -> bool:
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Var):
            return False
        todo.extend(s.children)
    return True


def is_constructor_term(t: Term, sig: Signature) -> bool:
    """Built from constructors only (the values of CBV rewriting)."""
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Var) or not sig.is_constructor(s.symbol):
            return False
        todo.extend(s.children)
    return True


def is_pattern(t: Term, sig: Signature) -> bool:
    """Built from constructors and variables."""
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Node):
            if not sig.is_constructor(s.symbol):
                return False
            todo.extend(s.children)
    return True


def contains_function(t: Term, sig: Signature) -> bool:
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Node):
            if sig.is_function(s.symbol):
                return True
            todo.extend(s.children)
    return False


def _check_arities(t: Term, sig: Signature) -> None:
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Node):
            ar = sig.arity(s.symbol)
            if ar != len(s.children):
                raise ArityMismatch(s.symbol, ar, len(s.children))
            todo.extend(s.children)


def _patterns_compatible(p: Term, q: Term) -> bool:
    # Both linear with disjoint variables, so unifiability is a structural
    # compatibility check: variables match anything.
    todo = [(p, q)]
    while todo:
        p, q = todo.pop()
        if isinstance(p, Var) or isinstance(q, Var):
            continue
        if p.symbol != q.symbol:
            return False
        todo.extend(zip(p.children, q.children))
    return True


class CrsSystem:
    """A validated orthogonal constructor rewrite system."""

    def __init__(self, signature: Signature, rules: list[Rule]):
        self.signature = signature
        self.rules = tuple(rules)
        self._validate()
        self._index: dict[tuple[str, Optional[str]], list[Rule]] = {}
        for rule in self.rules:
            root = None
            if rule.lhs and isinstance(rule.lhs[0], Node):
                root = rule.lhs[0].symbol
            self._index.setdefault((rule.head, root), []).append(rule)

    def _validate(self) -> None:
        sig = self.signature
        for idx, rule in enumerate(self.rules):
            if not sig.is_function(rule.head):
                raise InvalidRule(f"rule {idx}: head {rule.head!r} is not a function symbol")
            if len(rule.lhs) != sig.arity(rule.head):
                raise ArityMismatch(rule.head, sig.arity(rule.head), len(rule.lhs))
            seen: set[str] = set()
            for p in rule.lhs:
                _check_arities(p, sig)
                if not is_pattern(p, sig):
                    raise InvalidRule(f"rule {idx}: lhs argument is not a pattern")
                for v in variables(p):
                    if v in seen:
                        raise NonLinearLhs(idx, v)
                    seen.add(v)
            _check_arities(rule.rhs, sig)
            extra = set(variables(rule.rhs)) - seen
            if extra:
                raise InvalidRule(f"rule {idx}: rhs variables {sorted(extra)} not bound in lhs")
        by_head: dict[str, list[int]] = {}
        for idx, rule in enumerate(self.rules):
            by_head.setdefault(rule.head, []).append(idx)
        for idxs in by_head.values():
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    ra, rb = self.rules[idxs[a]], self.rules[idxs[b]]
                    if all(_patterns_compatible(p, q) for p, q in zip(ra.lhs, rb.lhs)):
                        raise OverlapError(idxs[a], idxs[b])

    def candidates(self, head: str, first_arg: Optional[Term]) -> list[Rule]:
        root = first_arg.symbol if isinstance(first_arg, Node) else None
        out = self._index.get((head, root), [])
        if root is not None:
            out = out + self._index.get((head, None), [])
        return out


def validate_system(signature: Signature, rules: list[Rule]) -> CrsSystem:
    """Validated system, or a CrsError naming the offending rule(s)."""
    return CrsSystem(signature, rules)


def _match_args(patterns: tuple[Term, ...], args: Iterable[Term]) -> Optional[dict[str, Term]]:
    # Plain left-linear matching: a variable binds whatever it meets.
    subst: dict[str, Term] = {}
    todo = list(zip(patterns, args))
    while todo:
        pp, tt = todo.pop()
        if isinstance(pp, Var):
            subst[pp.name] = tt
            continue
        if not isinstance(tt, Node) or tt.symbol != pp.symbol:
            return None
        todo.extend(zip(pp.children, tt.children))
    return subst


def match_pattern(p: Term, t: Term) -> Optional[dict[str, Term]]:
    """Match a pattern against a constructor term; t must be function-free."""
    return _match_args((p,), (t,))


def apply_subst(t: Term, subst: dict[str, Term]) -> Term:
    results: list[Term] = []
    todo: list[tuple[str, Term]] = [("go", t)]
    while todo:
        op, node = todo.pop()
        if op == "go":
            if isinstance(node, Var):
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
            results.append(Node(node.symbol, tuple(kids)))
    return results[0]


def _match_rule(rule: Rule, args: tuple[Term, ...],
                sig: Signature) -> Optional[dict[str, Term]]:
    # CBV condition: every binding must be a constructor term.
    subst = _match_args(rule.lhs, args)
    if subst is None or not all(is_constructor_term(v, sig) for v in subst.values()):
        return None
    return subst


Path = tuple[int, ...]


def match_at(sys: CrsSystem, t: Term) -> Optional[tuple[Rule, dict[str, Term]]]:
    """The unique rule instance firing at the root of t, if any."""
    if not isinstance(t, Node) or not sys.signature.is_function(t.symbol):
        return None
    hits = []
    first = t.children[0] if t.children else None
    for rule in sys.candidates(t.symbol, first):
        subst = _match_rule(rule, t.children, sys.signature)
        if subst is not None:
            hits.append((rule, subst))
    assert len(hits) <= 1, f"orthogonality violated at {t.symbol}"
    return hits[0] if hits else None


def redexes(sys: CrsSystem, t: Term) -> Iterator[tuple[Path, Rule, dict[str, Term]]]:
    """Redex occurrences in leftmost-innermost order: post-order, children
    left to right.  The reference walk behind the random policy."""
    stack: list[list] = [[t, 0]]      # a node and the index of its next child
    path: list[int] = []              # the index of each stack node but the root
    while stack:
        frame = stack[-1]
        node, i = frame
        if isinstance(node, Node) and i < len(node.children):
            frame[1] = i + 1
            path.append(i)
            stack.append([node.children[i], 0])
            continue
        stack.pop()
        hit = match_at(sys, node)
        if hit is not None:
            yield tuple(path), hit[0], hit[1]
        if path:
            path.pop()


def replace_at(t: Term, path: Path, new: Term) -> Term:
    spine = []
    for i in path:
        spine.append(t)
        t = t.children[i]
    for node, i in zip(reversed(spine), reversed(path)):
        new = Node(node.symbol, node.children[:i] + (new,) + node.children[i + 1:])
    return new


def _random_redex(sys: CrsSystem, t: Term, rng) -> Optional[tuple[Path, Rule, dict[str, Term]]]:
    hits = list(redexes(sys, t))
    return hits[rng.randrange(len(hits))] if hits else None


def rewrite_step(sys: CrsSystem, t: Term, rng=None) -> Optional[Term]:
    """One rewrite step (leftmost-innermost by default) or None if normal."""
    hit = next(redexes(sys, t), None) if rng is None else _random_redex(sys, t, rng)
    if hit is None:
        return None
    path, rule, subst = hit
    return replace_at(t, path, apply_subst(rule.rhs, subst))


NormalKind = Literal["constructor", "stuck", "exhausted"]


@dataclass(frozen=True)
class CrsOutcome:
    kind: NormalKind
    term: Term
    steps: int


def reduce(sys: CrsSystem, t: Term, budget: int = 10_000, rng=None,
           on_step=None) -> CrsOutcome:
    """Reduce to normal form or until the step budget is exhausted.

    A normal form is classified "constructor" when it contains no function
    symbol and "stuck" otherwise (the error case of the simulation).  The
    leftmost-innermost policy (no rng) runs an innermost evaluation
    machine that matches each node once; with an rng, every step walks
    the term with `redexes` and fires a redex picked uniformly.

    `on_step(rule, subst, state)` is invoked after each firing, with the
    rule and the match it fired under.  `state()` returns the whole term
    after the step and is valid only during the call.  The machine builds
    that term only when `state()` is called, so a hook that does not call
    it keeps a step at constant cost; the random policy passes the term
    it already has.
    """
    if not is_closed(t):
        raise CrsError("reduction input must be closed")
    if rng is None:
        return _reduce_innermost(sys, t, budget, on_step)
    steps = 0
    while steps < budget:
        hit = _random_redex(sys, t, rng)
        if hit is None:
            break
        path, rule, subst = hit
        t = replace_at(t, path, apply_subst(rule.rhs, subst))
        if on_step is not None:
            on_step(rule, subst, lambda: t)
        steps += 1
    else:
        if next(redexes(sys, t), None) is not None:
            return CrsOutcome("exhausted", t, steps)
    kind: NormalKind = "constructor" if is_constructor_term(t, sys.signature) else "stuck"
    return CrsOutcome(kind, t, steps)


def _reduce_innermost(sys: CrsSystem, t: Term, budget: int, on_step) -> CrsOutcome:
    # Innermost evaluation machine, children left to right.  A frame
    # [node, env, kids, values] holds the evaluated children of node so
    # far and whether all of them are values (constructor terms); env is
    # the substitution of the rule whose rhs the node belongs to, None
    # for a node of the input.  A rhs variable evaluates at once to its
    # binding, a value, which is never walked again.  A node is checked
    # once, when its last child is done: a constructor over values is a
    # value; a function symbol over values is matched against its
    # candidate rules and fires, the control becoming the rule's rhs
    # under the match; anything else is normal, and no ancestor of it can
    # fire.  Post-order firing is leftmost-innermost: everything left of
    # the fired node is normal and unchanged, and its bindings are values.
    cons = sys.signature.constructors
    steps = 0
    stack: list[list] = []
    term, env = t, None
    while True:
        while True:
            if type(term) is Var:
                val = env[term.name]
                if not stack:
                    return CrsOutcome("constructor", val, steps)
                stack[-1][2].append(val)
                break
            stack.append([term, env, [], True])
            if not term.children:
                break
            term = term.children[0]
        while True:
            node, env, kids, values = stack[-1]
            if len(kids) < len(node.children):
                term = node.children[len(kids)]
                break
            stack.pop()
            hit = None
            if values and node.symbol not in cons:
                for rule in sys.candidates(node.symbol, kids[0] if kids else None):
                    subst = _match_args(rule.lhs, kids)
                    if subst is not None:
                        hit = rule, subst
                        break
            if hit is not None:
                if steps >= budget:
                    return CrsOutcome("exhausted",
                                      _fill(stack, Node(node.symbol, tuple(kids))), steps)
                steps += 1
                rule, env = hit
                term = rule.rhs
                if on_step is not None:
                    on_step(rule, env, partial(_state, stack, term, env))
                break
            if all(map(operator.is_, kids, node.children)):
                val = node
            else:
                val = Node(node.symbol, tuple(kids))
            values = values and node.symbol in cons
            if not stack:
                return CrsOutcome("constructor" if values else "stuck", val, steps)
            parent = stack[-1]
            parent[2].append(val)
            if not values:
                parent[3] = False


def _fill(stack: list[list], focus: Term) -> Term:
    # The whole term of a machine state: focus in the hole of the frames,
    # whose children not yet evaluated are instantiated under their env.
    for node, env, kids, _ in reversed(stack):
        rest = node.children[len(kids) + 1:]
        if env is not None:
            rest = tuple(apply_subst(c, env) for c in rest)
        focus = Node(node.symbol, (*kids, focus, *rest))
    return focus


def _state(stack: list[list], rhs: Term, env: dict[str, Term]) -> Term:
    # The whole term right after a firing: the rule's rhs under its match
    # in the hole of the frames.
    return _fill(stack, apply_subst(rhs, env))


# --- text format ---------------------------------------------------------------

IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_']*")
_TOKEN_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_']*|[(),]|\S")


class CrsParseError(ValueError):
    pass


def parse_term(text: str) -> Term:
    """Parse `name` or `name(t1, ..., tn)`; every atom comes back as a Node."""
    toks = _TOKEN_RE.findall(text)
    n = len(toks)
    pos = 0
    open_: list[tuple[str, list[Term]]] = []    # applications being read
    while True:
        if pos >= n:
            raise CrsParseError("unexpected end of term")
        name = toks[pos]
        if not IDENT_RE.fullmatch(name):
            raise CrsParseError(f"expected identifier, got {name!r}")
        pos += 1
        if pos < n and toks[pos] == "(":
            pos += 1
            if pos < n and toks[pos] != ")":
                open_.append((name, []))
                continue                        # read its first argument
            if pos >= n:
                raise CrsParseError("expected ')'")
            pos += 1
        t: Term = Node(name, ())
        while open_:                            # t ends an argument
            name, kids = open_[-1]
            kids.append(t)
            if pos < n and toks[pos] == ",":
                pos += 1
                break                           # read the next argument
            if pos >= n or toks[pos] != ")":
                raise CrsParseError("expected ')'")
            pos += 1
            open_.pop()
            t = Node(name, tuple(kids))
        else:
            break
    if pos != n:
        raise CrsParseError(f"trailing input: {toks[pos:]!r}")
    return t


def _classify_atoms(t: Term, sig: Signature) -> Term:
    # Nullary nodes whose symbol is undeclared become variables.
    out: list[Term] = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:                   # the node below, once its children are done
            s = todo.pop()
            k = len(s.children)
            kids = tuple(out[-k:])
            del out[-k:]
            out.append(Node(s.symbol, kids))
        elif type(s) is Var:
            out.append(s)
        elif s.children:
            todo.append(s)
            todo.append(None)
            todo.extend(reversed(s.children))
        elif sig.is_constructor(s.symbol) or sig.is_function(s.symbol):
            out.append(s)
        else:
            out.append(Var(s.symbol))
    return out[0]


def term_to_str(t: Term) -> str:
    parts: list[str] = []
    todo: list[tuple[str, object]] = [("go", t)]
    while todo:
        op, arg = todo.pop()
        if op == "lit":
            parts.append(arg)
        elif isinstance(arg, Var):
            parts.append(arg.name)
        else:
            parts.append(arg.symbol)
            if arg.children:
                todo.append(("lit", ")"))
                for i, c in enumerate(reversed(arg.children)):
                    todo.append(("go", c))
                    if i < len(arg.children) - 1:
                        todo.append(("lit", ", "))
                todo.append(("lit", "("))
    return "".join(parts)


@dataclass
class CrsFile:
    system: CrsSystem
    term: Optional[Term] = None
    comments: list[str] = field(default_factory=list)


def parse_system(text: str) -> CrsFile:
    """Parse the declaration format: constructor/function/rule/term lines."""
    constructors: dict[str, int] = {}
    functions: dict[str, int] = {}
    raw_rules: list[tuple[str, str]] = []
    term_src: Optional[str] = None
    comments: list[str] = []
    body = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            comments.append(stripped[1:].strip())
            continue
        if "#" in stripped:
            stripped = stripped[: stripped.index("#")].strip()
        if stripped:
            body.append(stripped)
    for stmt in " ".join(body).split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        m = re.fullmatch(r"(constructor|function)\s+([a-zA-Z][a-zA-Z0-9_']*)\s*/\s*(\d+)", stmt)
        if m:
            kind, name, ar = m.group(1), m.group(2), int(m.group(3))
            table = constructors if kind == "constructor" else functions
            if name in constructors or name in functions:
                raise CrsParseError(f"symbol {name!r} declared twice")
            table[name] = ar
            continue
        m = re.fullmatch(r"rule\s+(.*?)\s*->\s*(.*)", stmt, re.DOTALL)
        if m:
            raw_rules.append((m.group(1), m.group(2)))
            continue
        m = re.fullmatch(r"term\s+(.*)", stmt, re.DOTALL)
        if m:
            if term_src is not None:
                raise CrsParseError("multiple term declarations")
            term_src = m.group(1)
            continue
        raise CrsParseError(f"cannot parse declaration: {stmt!r}")
    sig = Signature(constructors, functions)
    rules = []
    for lhs_src, rhs_src in raw_rules:
        lhs = _classify_atoms(parse_term(lhs_src), sig)
        if not isinstance(lhs, Node) or isinstance(lhs, Var):
            raise CrsParseError(f"rule lhs must be a function application: {lhs_src!r}")
        rhs = _classify_atoms(parse_term(rhs_src), sig)
        rules.append(Rule(lhs.symbol, lhs.children, rhs))
    system = CrsSystem(sig, rules)
    term = None
    if term_src is not None:
        term = _classify_atoms(parse_term(term_src), sig)
        if not is_closed(term):
            raise CrsParseError(f"term declaration uses undeclared symbols: {term_src!r}")
        _check_arities(term, sig)
    return CrsFile(system, term, comments)


def system_to_str(sys: CrsSystem, term: Optional[Term] = None,
                  comments: Optional[list[str]] = None) -> str:
    lines = []
    for c in comments or []:
        lines.append(f"# {c}")
    for name, ar in sys.signature.constructors.items():
        lines.append(f"constructor {name}/{ar};")
    for name, ar in sys.signature.functions.items():
        lines.append(f"function {name}/{ar};")
    for rule in sys.rules:
        lhs = term_to_str(Node(rule.head, rule.lhs))
        lines.append(f"rule {lhs} -> {term_to_str(rule.rhs)};")
    if term is not None:
        lines.append(f"term {term_to_str(term)};")
    return "\n".join(lines) + "\n"
