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
right-hand side under the match.  The random policy keeps the term's
redexes in an indexed list in leftmost-innermost order and fires one
picked uniformly; a firing replaces its entry by the redexes it made.
Either way a step costs the same whatever the size of the term.  The step
event is local: a hook receives the rule, its match and a `state()` that
builds the whole term only when called.

A system is taken in once: `parse_term` reads a term under its
signature, so an undeclared atom is a variable as it is read, and
`CrsSystem` validates the rules and builds the first-argument index
(`first_arg_index`) that `graphs.compile_rules` builds with too.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Literal, Optional, Union


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
        roots = self._validate()
        self._index = first_arg_index(zip((r.head for r in self.rules), roots, self.rules))

    def _validate(self) -> list[Optional[str]]:
        # Raises on the first invalid rule, then on the first overlapping
        # pair of a head in rule order; returns each first pattern's root.
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
        roots = [rule.lhs[0].symbol if rule.lhs and isinstance(rule.lhs[0], Node) else None
                 for rule in self.rules]
        by_head: dict[str, list[int]] = {}
        for idx, rule in enumerate(self.rules):
            by_head.setdefault(rule.head, []).append(idx)
        for idxs in by_head.values():
            for a, i in enumerate(idxs):
                for j in idxs[a + 1:]:
                    if roots[i] is not None and roots[j] is not None and roots[i] != roots[j]:
                        continue                # the first patterns clash at the root
                    if all(_patterns_compatible(p, q)
                           for p, q in zip(self.rules[i].lhs, self.rules[j].lhs)):
                        raise OverlapError(i, j)
        return roots

    def candidates(self, head: str, first_arg: Optional[Term]) -> list[Rule]:
        """The rules of head that can fire at a node with this first
        argument, in rule order."""
        root = first_arg.symbol if isinstance(first_arg, Node) else None
        return self._index.get((head, root)) or self._index.get((head, None), [])


def first_arg_index(rules: Iterable[tuple[str, Optional[str], object]]) -> dict:
    """Rules keyed by (head, root of the first argument), from (head, root
    of the first pattern or None, rule) triples in rule order.  Key (head,
    c) holds, in rule order, the rules whose first pattern is rooted at c
    or is a variable; (head, None) those with a variable, and every rule
    of a nullary head.  A node tries its first argument's key, else None."""
    by_head: dict[str, list[tuple[Optional[str], object]]] = {}
    for head, root, rule in rules:
        by_head.setdefault(head, []).append((root, rule))
    index: dict[tuple[str, Optional[str]], list] = {}
    for head, entries in by_head.items():
        for key in {None, *(root for root, _ in entries)}:
            index[head, key] = [rule for root, rule in entries if root is None or root == key]
    return index


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
    machine that matches each node once.  With an rng, a step fires
    `reds[rng.randrange(len(reds))]`, where `reds` lists every redex in
    leftmost-innermost order and each firing updates it where it changed.

    `on_step(rule, subst, state)` is invoked after each firing, with the
    rule and the match it fired under.  `state()` returns the whole term
    after the step and is valid only during the call.  Both policies build
    that term only when `state()` is called, so a hook that does not call
    it keeps a step at constant cost.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if not is_closed(t):
        raise CrsError("reduction input must be closed")
    if rng is None:
        return _reduce_innermost(sys, t, budget, on_step)
    return _reduce_random(sys, t, budget, rng, on_step)


def _match_node(sys: CrsSystem, symbol: str, kids) -> Optional[tuple[Rule, dict[str, Term]]]:
    # The rule instance firing at a function node whose arguments are values.
    for rule in sys.candidates(symbol, kids[0] if kids else None):
        subst = _match_args(rule.lhs, kids)
        if subst is not None:
            return rule, subst
    return None


def _reduce_random(sys: CrsSystem, t: Term, budget: int, rng, on_step) -> CrsOutcome:
    # The random policy over an indexed redex list.  A node that is not a
    # value is a mutable frame [symbol, kids, parent frame, index there,
    # number of kids that are frames, match]; values stay Nodes.  reds
    # holds the redex frames in post-order, left to right since redexes
    # are never nested.  Firing reds[k] changes the list only at k: it
    # becomes the redexes of the contractum or, when that is a value, the
    # first function ancestor that value-ness reaches through constructor
    # nodes, if that now matches.  A node becomes a value once, so this
    # climb is O(1) amortised.
    cons = sys.signature.constructors
    reds: list[list] = []
    root = _frames(sys, t, None, reds)
    steps = 0
    while reds:
        if steps >= budget:
            return CrsOutcome("exhausted", _unframe(root), steps)
        k = rng.randrange(len(reds))
        frame = reds[k]
        rule, subst = frame[5]
        block: list[list] = []
        val = _frames(sys, rule.rhs, subst, block)
        parent, i = frame[2], frame[3]
        while True:                     # val takes the slot, and a value climbs
            if parent is None:
                root = val
                break
            parent[1][i] = val
            if type(val) is list:
                val[2], val[3] = parent, i
                break
            parent[4] -= 1
            if parent[4]:
                break
            if parent[0] not in cons:
                parent[5] = _match_node(sys, parent[0], parent[1])
                if parent[5] is not None:
                    block.append(parent)
                break
            val, parent, i = Node(parent[0], tuple(parent[1])), parent[2], parent[3]
        reds[k:k + 1] = block
        steps += 1
        if on_step is not None:
            on_step(rule, subst, partial(_unframe, root))
    return CrsOutcome("constructor" if type(root) is Node else "stuck", _unframe(root), steps)


def _frames(sys: CrsSystem, t: Term, env: Optional[dict[str, Term]], reds: list[list]):
    # t under env (None for a closed term) as a value or a frame of the
    # random policy, children first; its redexes are appended to reds in
    # post-order.
    cons = sys.signature.constructors
    out: list = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        if type(s) is Var:
            out.append(env[s.name])
            continue
        if s is not None:
            if s.children:
                todo += (s, None, *reversed(s.children))
                continue
            kids = []
        else:                           # the node below, once its children are done
            s = todo.pop()
            n = len(out) - len(s.children)
            kids = out[n:]
            del out[n:]
        pending = [i for i, c in enumerate(kids) if type(c) is list]
        if not pending and s.symbol in cons:
            out.append(s if all(map(operator.is_, kids, s.children))
                       else Node(s.symbol, tuple(kids)))
            continue
        frame = [s.symbol, kids, None, 0, len(pending), None]
        for i in pending:
            kids[i][2], kids[i][3] = frame, i
        if not pending:
            frame[5] = _match_node(sys, s.symbol, kids)
            if frame[5] is not None:
                reds.append(frame)
        out.append(frame)
    return out[0]


def _unframe(t) -> Term:
    # The term of a value or frame of the random policy.
    out: list[Term] = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:                   # the frame below, once its children are done
            s = todo.pop()
            n = len(out) - len(s[1])
            kids = tuple(out[n:])
            del out[n:]
            out.append(Node(s[0], kids))
        elif type(s) is list:
            todo += (s, None, *reversed(s[1]))
        else:
            out.append(s)
    return out[0]


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
                hit = _match_node(sys, node.symbol, kids)
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


def parse_term(text: str, sig: Signature) -> Term:
    """Parse `name` or `name(t1, ..., tn)`; an atom (`x` or `x()`) whose
    name sig does not declare comes back as a Var, in the same pass."""
    cons, funs = sig.constructors, sig.functions
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
        t: Term = Node(name, ()) if name in cons or name in funs else Var(name)
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
        lhs = parse_term(lhs_src, sig)
        if not isinstance(lhs, Node):
            raise CrsParseError(f"rule lhs must be a function application: {lhs_src!r}")
        rules.append(Rule(lhs.symbol, lhs.children, parse_term(rhs_src, sig)))
    # the term is read before the rules are validated, so that a syntax
    # error comes first; its arities are checked after
    term = None
    if term_src is not None:
        term = parse_term(term_src, sig)
        if not is_closed(term):
            raise CrsParseError(f"term declaration uses undeclared symbols: {term_src!r}")
    system = CrsSystem(sig, rules)
    if term is not None:
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
