"""Orthogonal constructor term rewriting with call-by-value firing.

A system is a signature (constructors and function symbols with arities)
plus left-linear, pairwise non-overlapping rules whose left-hand sides are
function symbols applied to constructor patterns.  A redex only fires when
the matching substitution binds every variable to a constructor term, so
redexes are never nested and the step count to normal form does not depend
on the position policy.

`reduce` runs one loop for both position policies over an indexed
list of the term's redexes: leftmost-innermost fires the list's
leftmost entry, the random policy one picked uniformly, and a firing
replaces its entry by the redexes it made.  Each rule is compiled once,
when its system is built, into a match program that fills numbered
slots and a plan that builds its right-hand side from the slots; the
input goes through the same plan builder.  Either way a step costs the
size of its rule whatever the size of the term.  The outcome counts
the firings of each rule; a caller that needs more can hook each step,
which receives the rule, its match and a `state()` that builds the whole
term only when called.

A system is taken in once: `parse_term` reads a term under its
signature, so an undeclared atom is a variable as it is read, and
`CrsSystem` compiles the rules, which is what checks them (see
`CrsSystem` for which fault a rule with several reports), and builds
the first-argument index.  Graph reduction runs the same index and
match programs, and keeps its build templates on the system.
"""

from __future__ import annotations

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


def contains_function(t: Term, sig: Signature) -> bool:
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Node):
            if sig.is_function(s.symbol):
                return True
            todo.extend(s.children)
    return False


def _check_node(s: Node, sig: Signature) -> None:
    ar = sig.arity(s.symbol)
    if ar != len(s.children):
        raise ArityMismatch(s.symbol, ar, len(s.children))


def _check_arities(t: Term, sig: Signature) -> None:
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Node):
            _check_node(s, sig)
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
    """A validated orthogonal constructor rewrite system.

    Construction compiles every rule, and the compile is the check.
    Rules are checked in order, and a rule raises at its first fault:
    its head (a function symbol of the right arity), then its left side
    slot by slot in match-program order (the arguments left to right,
    then the children of each constructor node in that order: an
    undeclared symbol, a wrong arity, a function symbol, or a second
    occurrence of a variable), then its unbound right-side variables,
    then its right side in pre-order (an undeclared symbol or a wrong
    arity).  Once every rule compiles, the first overlapping pair is
    reported: heads by first appearance, then (i, j) in rule order.
    """

    def __init__(self, signature: Signature, rules: list[Rule]):
        self.signature = sig = signature
        self.rules = tuple(rules)
        # each rule's match program and right-side plan
        self._programs: list[tuple] = []
        self._plans: list[list[tuple]] = []
        for idx, rule in enumerate(self.rules):
            program = _match_program(idx, rule, sig)
            extra = set(variables(rule.rhs)) - program[1].keys()
            if extra:
                raise InvalidRule(f"rule {idx}: rhs variables {sorted(extra)} not bound in lhs")
            self._programs.append(program)
            self._plans.append(_plan(rule.rhs, sig, program[1]))
        roots = [rule.lhs[0].symbol if rule.lhs and isinstance(rule.lhs[0], Node) else None
                 for rule in self.rules]
        self._index = _first_arg_index(zip((r.head for r in self.rules), roots))
        # each rule's graph build template, compiled by graphs on first use
        self._graph_templates: list = [None] * len(self.rules)
        by_head: dict[str, list[int]] = {}
        for idx, rule in enumerate(self.rules):
            by_head.setdefault(rule.head, []).append(idx)
        for head, idxs in by_head.items():
            for i in idxs:
                # the later rules that share an index bucket with i
                bucket = idxs if roots[i] is None else self._index[head, roots[i]]
                lhs = self.rules[i].lhs
                for j in bucket[bucket.index(i) + 1:]:
                    if all(_patterns_compatible(p, q) for p, q in zip(lhs, self.rules[j].lhs)):
                        raise OverlapError(i, j)

    def _match(self, frame: list) -> Optional[tuple[list, int, list[Term]]]:
        # (frame, rule position, slots) of the rule firing at a function
        # node frame whose arguments are values, or None
        index, programs = self._index, self._programs
        symbol, kids = frame[0], frame[1]
        for r in index.get((symbol, kids[0].symbol if kids else None)) \
                or index.get((symbol, None), ()):
            slots = kids[:]
            for s, c in programs[r][0]:
                t = slots[s]
                if t.symbol != c:
                    break
                slots += t.children
            else:
                return frame, r, slots
        return None


_RuleIndex = dict[tuple[str, Optional[str]], list[int]]


def _first_arg_index(keys: Iterable[tuple[str, Optional[str]]]) -> _RuleIndex:
    """Rule positions keyed by (head, root of the first argument), from
    each rule's (head, root of its first pattern or None) in rule order.
    Key (head, c) holds, in rule order, the rules whose first pattern is
    rooted at c or is a variable; (head, None) those with a variable,
    and every rule of a nullary head.  A node tries its first argument's
    key, else None."""
    by_head: dict[str, list[tuple[Optional[str], int]]] = {}
    for pos, (head, root) in enumerate(keys):
        by_head.setdefault(head, []).append((root, pos))
    index: _RuleIndex = {}
    for head, entries in by_head.items():
        for key in {None, *(root for root, _ in entries)}:
            index[head, key] = [pos for root, pos in entries if root is None or root == key]
    return index


def validate_system(signature: Signature, rules: list[Rule]) -> CrsSystem:
    """Validated system, or a CrsError naming the offending rule(s)."""
    return CrsSystem(signature, rules)


def _match_program(idx: int, rule: Rule,
                   sig: Signature) -> tuple[list[tuple[int, str]], dict[str, int]]:
    # (steps, slot_of) of rule idx's left side, checked against sig in
    # the walk that numbers the slots.  A match starts with the slots
    # holding the arguments; a step (slot, c) requires the term in that
    # slot to be rooted at c and appends its children as the next slots.
    # slot_of names the slot that binds each variable.
    if rule.head not in sig.functions:
        raise InvalidRule(f"rule {idx}: head {rule.head!r} is not a function symbol")
    ar = sig.functions[rule.head]
    if len(rule.lhs) != ar:
        raise ArityMismatch(rule.head, ar, len(rule.lhs))
    cons = sig.constructors
    steps = []
    slot_of = {}
    pats = list(rule.lhs)               # the pattern of each slot, grown as steps add slots
    for s, p in enumerate(pats):
        if type(p) is Var:
            if p.name in slot_of:
                raise NonLinearLhs(idx, p.name)
            slot_of[p.name] = s
        elif cons.get(p.symbol) != len(p.children):
            _check_node(p, sig)         # raises, unless p is a function node
            raise InvalidRule(f"rule {idx}: lhs argument is not a pattern")
        else:
            steps.append((s, p.symbol))
            pats += p.children
    return steps, slot_of


# ops of a plan: push a slot, push a closed value, build a constructor
# over values, a function node over values, or a node with frame children
_SLOT, _CONST, _CONS, _FUN, _NODE = range(5)


def _plan(t: Term, sig: Signature, slot_of: dict[str, int]) -> list[tuple]:
    # The ops that build t in post-order, its variables read from the
    # slots that slot_of names; every node is checked against sig, and a
    # variable slot_of lacks raises.  An op is (kind, symbol, arity,
    # positions of the frame children) for a built node, (_SLOT, slot,
    # 0, ()) or (_CONST, term, 0, ()).  Each subterm is classed once,
    # from its children's classes: 0 closed and function-free, pushed
    # whole; 1 function-free, a value; 2 holding a function node, a frame.
    cons, funs = sig.constructors, sig.functions
    ops: list[tuple] = []
    classes: list[int] = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:                   # the node below, once its children are done
            s = todo.pop()
            k = len(s.children)
            n = len(classes) - k
            kids = classes[n:]
            del classes[n:]
            top = max(kids)
            if top == 2:
                op = (_NODE, s.symbol, k, [i for i, c in enumerate(kids) if c == 2])
            elif s.symbol in funs:
                op, top = (_FUN, s.symbol, k, ()), 2
            elif top == 0:
                del ops[len(ops) - k:]  # the children's _CONST ops
                op = (_CONST, s, 0, ())
            else:
                op = (_CONS, s.symbol, k, ())
        elif type(s) is Var:
            if s.name not in slot_of:
                raise CrsError("reduction input must be closed")
            op, top = (_SLOT, slot_of[s.name], 0, ()), 1
        else:
            ar = cons.get(s.symbol)
            if ar is None:
                ar = funs.get(s.symbol)
            if ar != len(s.children):
                _check_node(s, sig)     # raises
            if s.children:
                todo += (s, None, *reversed(s.children))
                continue
            op, top = ((_FUN, s.symbol, 0, ()), 2) if s.symbol in funs else ((_CONST, s, 0, ()), 0)
        ops.append(op)
        classes.append(top)
    return ops


def _build(sys: CrsSystem, plan: list[tuple], slots, reds: list[tuple]):
    # Run a plan over the slots: the value or frame it builds.  A frame
    # [symbol, kids, parent frame, index there, number of kids that are
    # frames] is a node that is not a value; values are Nodes.  A
    # function node over values that matches is appended to reds as its
    # match, (frame, rule position, slots), in post-order.
    out: list = []
    for op, arg, k, pending in plan:
        if op == _SLOT:
            out.append(slots[arg])
        elif op == _CONST:
            out.append(arg)
        else:
            n = len(out) - k
            kids = out[n:]
            del out[n:]
            if op == _CONS:
                out.append(Node(arg, tuple(kids)))
                continue
            frame = [arg, kids, None, 0, len(pending)]
            if op == _FUN:
                hit = sys._match(frame)
                if hit is not None:
                    reds.append(hit)
            for i in pending:
                kids[i][2], kids[i][3] = frame, i
            out.append(frame)
    return out[0]


NormalKind = Literal["constructor", "stuck", "exhausted"]


@dataclass(frozen=True)
class CrsOutcome:
    kind: NormalKind
    term: Term
    steps: int
    fires: tuple[int, ...] = field(default=(), compare=False)  # per rule position


def reduce(sys: CrsSystem, t: Term, budget: int = 10_000, rng=None,
           on_step=None) -> CrsOutcome:
    """Reduce to normal form or until the step budget is exhausted.

    A normal form is classified "constructor" when it contains no function
    symbol and "stuck" otherwise (the error case of the simulation).  The
    input must be closed and well-formed under the system's signature:
    otherwise CrsError, UnknownSymbol or ArityMismatch is raised.

    One loop serves both policies.  It keeps the term's redexes in an
    indexed list in leftmost-innermost (post-order) order, stored
    reversed, and fires the last entry (leftmost-innermost) or, with an
    rng, the entry that `reds[rng.randrange(len(reds))]` would be in
    post-order.  A firing builds the rule's right side from its plan and
    changes the list only at that entry: it becomes the redexes of the
    contractum or, when that is a value, the first function ancestor
    that value-ness reaches through constructor nodes, if that now
    matches.  A node becomes a value once, so this climb is O(1)
    amortised, and a step costs the size of its rule whatever the size
    of the term.  The outcome's `fires` counts the firings of each rule
    position; it takes no part in the outcome's equality.

    `on_step(rule, subst, state)` is invoked after each firing, with the
    rule and the match it fired under.  `state()` returns the whole term
    after the step and is valid only during the call; the term is built
    only when `state()` is called, so a hook that does not call it keeps
    a step at constant cost.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    sig, rules, plans, programs = sys.signature, sys.rules, sys._plans, sys._programs
    cons = sig.constructors
    reds: list[tuple] = []
    root = _build(sys, _plan(t, sig, {}), (), reds)
    reds.reverse()
    steps = 0
    fires = [0] * len(rules)
    while reds:
        if steps >= budget:
            return CrsOutcome("exhausted", _unframe(root), steps, tuple(fires))
        k = len(reds) - 1
        if rng is not None:
            k -= rng.randrange(k + 1)
        frame, r, slots = reds[k]
        block: list[tuple] = []
        val = _build(sys, plans[r], slots, block)
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
                hit = sys._match(parent)
                if hit is not None:
                    block.append(hit)
                break
            val, parent, i = Node(parent[0], tuple(parent[1])), parent[2], parent[3]
        block.reverse()
        reds[k:k + 1] = block
        steps += 1
        fires[r] += 1
        if on_step is not None:
            on_step(rules[r], {x: slots[s] for x, s in programs[r][1].items()},
                    partial(_unframe, root))
    return CrsOutcome("constructor" if type(root) is Node else "stuck", _unframe(root), steps,
                      tuple(fires))


def _unframe(t) -> Term:
    # The term of a value or frame.
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


# --- text format ---------------------------------------------------------------

IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_']*")
_TOKEN_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_']*|[(),]|\S")


class CrsParseError(ValueError):
    pass


def parse_term(text: str, sig: Signature) -> Term:
    """Parse `name` or `name(t1, ..., tn)`; a bare atom `x` whose name sig
    does not declare comes back as a Var, in the same pass.  `x()` is a
    node whatever its declaration, so validation reports it."""
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
            t: Term = Node(name, ())
        else:
            t = Node(name, ()) if name in cons or name in funs else Var(name)
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
