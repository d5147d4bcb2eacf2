"""Orthogonal constructor term rewriting with call-by-value firing.

A system is a signature (constructors and function symbols with arities)
plus left-linear, pairwise non-overlapping rules whose left-hand sides are
function symbols applied to constructor patterns.  A redex only fires when
the matching substitution binds every variable to a constructor term, so
redexes are never nested and the step count to normal form does not depend
on the position policy.

`reduce` runs one loop for both position policies over an indexed
list of the term's redexes, stored reversed: leftmost-innermost fires
the list's last entry, the random policy one picked uniformly, and a
firing replaces its entry by the redexes it made.  Each rule is compiled once,
when its system is built, into a match program that fills numbered
slots and a register template that builds its right-hand side with one
fetch per node; the input is compiled to a template too.  Either way a
step costs the size of its rule whatever the size of the term.  The
outcome counts the firings of each rule; a caller that needs more can
hook each step, which receives the rule, its match and a `state()` that
builds the whole term only when called.

A system is taken in once: `parse_term` reads a term under its
signature, so an undeclared atom is a variable as it is read, and
`CrsSystem` compiles the rules, which is what checks them (see
`CrsSystem` for which fault a rule with several reports), and builds
the first-argument index.  Graph reduction runs the same index and
match programs, and keeps its build templates on the system.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Iterable, Literal, Optional, Union

from .frozen import Frozen


class Var(Frozen):
    __slots__ = __match_args__ = ("name",)
    name: str

    def __init__(self, name: str):
        _var_name(self, name)


class Node(Frozen):
    __slots__ = __match_args__ = ("symbol", "children")
    symbol: str
    children: tuple["Term", ...]

    def __init__(self, symbol: str, children: tuple["Term", ...] = ()):
        _node_symbol(self, symbol)
        _node_children(self, children)


_var_name = Var.name.__set__
_node_symbol, _node_children = Node.symbol.__set__, Node.children.__set__

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
    arity).  Once every rule compiles, overlap is decided head by head
    in one pass over the left sides, which splits them on their
    constructors (`_first_overlap`), and the first overlapping pair is
    reported: heads by first appearance, then the least (i, j) in rule
    order, the pair a scan of every pair in that order meets first.
    """

    def __init__(self, signature: Signature, rules: list[Rule]):
        self.signature = sig = signature
        self.rules = tuple(rules)
        # each rule's match program and right-side register template
        self._programs: list[tuple] = []
        self._templates: list[tuple] = []
        for idx, rule in enumerate(self.rules):
            steps, slot_of, nslots = _match_program(idx, rule, sig)
            self._programs.append((steps, slot_of))
            self._templates.append(_compile_term(rule.rhs, sig, slot_of, nslots, idx))
        roots = [rule.lhs[0].symbol if rule.lhs and isinstance(rule.lhs[0], Node) else None
                 for rule in self.rules]
        self._index = _first_arg_index(zip((r.head for r in self.rules), roots))
        # each rule's graph build template, compiled by graphs on first use
        self._graph_templates: list = [None] * len(self.rules)
        pair = _first_overlap([(rule.head, rule.lhs) for rule in self.rules])[0]
        if pair is not None:
            raise OverlapError(*pair)

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


def _first_overlap(rules: Iterable[tuple[Optional[str], tuple[Term, ...]]]
                   ) -> tuple[Optional[tuple[int, int]], int]:
    """The first pair of (head, left side) rules whose heads are equal and
    whose left sides unify, or None, with the work spent: a unit per row
    of each group split, per pattern node it expands, per pair of rows
    compared and per step of a comparison.  Heads go by first
    appearance, and in a head the least pair (i, j) in rule order is the
    first.

    The left sides of a head are the rows of a pattern matrix, split as
    in Maranget, "Warnings for pattern matching" (JFP 2007): a group of
    rows splits on the first column that holds a constructor, into one
    group per constructor there, whose rows take its children as columns
    in its place.  A row with a variable in that column leaves the
    split: it is compared with each other row of the group, on the
    columns after it, rather than copied into every group, which can
    copy it exponentially often.  Left sides are linear, so two rows
    unify exactly when they agree wherever both hold a constructor.

    A row is None when it holds no constructor, else (number of variable
    columns before its first constructor, that constructor, the row
    after it), so a row drops columns in O(1).  When constructors tell
    the rules apart at every split, as in every encoder image, each row
    is in one group at a time and the check is linear in the size of the
    left sides; a pair of rows is compared at most once.  A group whose
    first two rows form no pair less than one found is dropped."""
    by_head: dict[Optional[str], list[tuple[int, Optional[tuple]]]] = {}
    for idx, (head, lhs) in enumerate(rules):
        by_head.setdefault(head, []).append((idx, _columns(lhs, None)))
    work = 0
    for group in by_head.values():
        best: Optional[tuple[int, int]] = None
        groups = [group] if len(group) > 1 else []
        while groups:
            group = groups.pop()
            if best is not None and (group[0][0], group[1][0]) >= best:
                continue
            work += len(group)
            k = min((row[0] for _, row in group if row is not None), default=None)
            split: dict[str, list] = {}
            var = False
            for i, row in group:
                if row is not None and row[0] == k:
                    kids = row[1].children
                    work += len(kids)
                    split.setdefault(row[1].symbol, []).append((i, _columns(kids, row[2])))
                else:
                    var = True
            groups += [sub for sub in split.values() if len(sub) > 1]
            if not var:
                continue
            # (i, row after column k, with a variable there?)
            after = [(i, row[2], False) if row is not None and row[0] == k
                     else (i, row and (row[0] - k - 1, row[1], row[2]), True)
                     for i, row in group]
            for v, rv, var_v in after:
                if not var_v:
                    continue
                for j, rj, var_j in after:  # the pairs of v in increasing order
                    pair = (j, v) if j < v else (v, j)
                    if best is not None and pair >= best:
                        break
                    if j == v or j < v and var_j:
                        continue
                    unify, steps = _rows_unify(rv, rj)
                    work += 1 + steps
                    if unify:
                        best = pair
                        break
        if best is not None:
            return best, work
    return None, work


def _columns(pats: tuple[Term, ...], rest: Optional[tuple]) -> Optional[tuple]:
    # the row of the columns pats followed by the row rest
    for p in reversed(pats):
        if type(p) is Node:
            rest = (0, p, rest)
        elif rest is not None:
            rest = (rest[0] + 1, rest[1], rest[2])
    return rest


def _rows_unify(a: Optional[tuple], b: Optional[tuple]) -> tuple[bool, int]:
    # whether rows a and b agree wherever both hold a constructor, and
    # the number of constructors compared
    steps = 0
    while a is not None and b is not None:
        steps += 1
        if a[0] < b[0]:                 # a's constructor meets a variable of b
            a, b = a[2], (b[0] - a[0] - 1, b[1], b[2])
        elif b[0] < a[0]:
            a, b = (a[0] - b[0] - 1, a[1], a[2]), b[2]
        elif a[1].symbol != b[1].symbol:
            return False, steps
        else:
            a, b = _columns(a[1].children, a[2]), _columns(b[1].children, b[2])
    return True, steps


_RuleIndex = dict[tuple[str, Optional[str]], list[int]]


def _first_arg_index(keys: Iterable[tuple[str, Optional[str]]]) -> _RuleIndex:
    """Rule positions keyed by (head, root of the first argument), from
    each rule's (head, root of its first pattern or None) in rule order.
    Key (head, c) holds, in rule order, the rules whose first pattern is
    rooted at c or is a variable; (head, None) those with a variable,
    and every rule of a nullary head.  A node tries its first argument's
    key, else None.  Built in one pass, and a key's list by merging the
    positions of its root with those of a variable."""
    own: _RuleIndex = {}                # the positions of each key's root alone
    for pos, (head, root) in enumerate(keys):
        own.setdefault((head, None), [])
        own.setdefault((head, root), []).append(pos)
    return {(head, root): pos if root is None else sorted(pos + own[head, None])
            for (head, root), pos in own.items()}


def validate_system(signature: Signature, rules: list[Rule]) -> CrsSystem:
    """Validated system, or a CrsError naming the offending rule(s)."""
    return CrsSystem(signature, rules)


def _match_program(idx: int, rule: Rule,
                   sig: Signature) -> tuple[list[tuple[int, str]], dict[str, int], int]:
    # (steps, slot_of, number of slots) of rule idx's left side, checked
    # against sig in the walk that numbers the slots.  A match starts with
    # the slots holding the arguments; a step (slot, c) requires the term
    # in that slot to be rooted at c and appends its children as the next
    # slots.  slot_of names the slot that binds each variable.
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
    return steps, slot_of, len(pats)


# the kinds of node a template builds: a value, a function frame over
# values, a frame with frame children
_VALUE, _FUN, _NODE = range(3)


def _compile_term(t: Term, sig: Signature, slot_of: dict[str, int], nslots: int,
                  idx: Optional[int] = None) -> tuple:
    # The register template (consts, nodes, right) of t, rule idx's right
    # side, whose variables read the slots slot_of names among a match's
    # nslots; with idx None, a reduction's input.  The registers are the
    # slots, consts (the closed function-free subterms, shared whole),
    # then the result of each entry (symbol, kind, get, positions of the
    # frame children) of nodes, t's nodes in post-order; get fetches the
    # children, earlier results counted from the end, in one call (a
    # tuple, or a list if fewer than two).  Classes: 0 closed and
    # function-free, 1 a value, 2 a frame.  Unbound variables raise, else
    # the first node in pre-order with an undeclared symbol or a wrong arity.
    cons, funs = sig.constructors, sig.functions
    consts: list[Term] = []
    nodes: list[tuple] = []
    unbound: set[str] = set()
    fault: Optional[Node] = None
    out: list[tuple] = []               # (class, register) of each done subterm
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:                   # the node below, once its children are done
            s = todo.pop()
            n = len(out) - len(s.children)
            kids = out[n:]
            del out[n:]
            top = max(kids, default=(0,))[0]
            if top == 0 and s.symbol not in funs:   # the children's consts give way to s
                del consts[len(consts) - len(kids):]
                consts.append(s)
                out.append((0, nslots + len(consts) - 1))
                continue
            j = len(nodes)              # node k's result, out's -1 - k, is k - j from the end
            refs = [r if r >= 0 else -1 - r - j for _, r in kids]
            get = itemgetter(*refs) if len(refs) > 1 else \
                itemgetter(slice(refs[0], refs[0] + 1 or None) if refs else slice(0))
            kind = _NODE if top == 2 else _FUN if s.symbol in funs else _VALUE
            pending = tuple(i for i, (c, _) in enumerate(kids) if c == 2) if top == 2 else ()
            nodes.append((s.symbol, kind, get, pending))
            out.append((1 if kind == _VALUE else 2, -1 - j))
        elif type(s) is Var:
            if s.name not in slot_of:
                unbound.add(s.name)
            out.append((1, slot_of.get(s.name, 0)))
        else:
            if cons.get(s.symbol, funs.get(s.symbol)) != len(s.children) and fault is None:
                fault = s
            if s.children or s.symbol in funs:
                todo += (s, None, *reversed(s.children))
            else:                       # a nullary constructor
                consts.append(s)
                out.append((0, nslots + len(consts) - 1))
    if unbound:
        raise CrsError("reduction input must be closed") if idx is None else \
            InvalidRule(f"rule {idx}: rhs variables {sorted(unbound)} not bound in lhs")
    if fault is not None:
        _check_node(fault, sig)         # raises
    right = out[0][1]
    return tuple(consts), tuple(nodes), right if right >= 0 else -1 - right - len(nodes)


def _build(match, template: tuple, regs: list, reds: list[tuple]):
    # Run a register template over regs, a match's slots, to which it
    # appends its registers: the value or frame it builds.  A frame
    # [symbol, kids, parent frame, index there, number of kids that are
    # frames] is a node that is not a value; values are Nodes.  A function
    # node over values that the system's `_match` matches is appended to
    # reds as its match, (frame, rule position, slots), in post-order.
    consts, nodes, right = template
    regs += consts
    for symbol, kind, get, pending in nodes:
        kids = get(regs)
        if kind == _VALUE:
            regs.append(Node(symbol, tuple(kids)))
            continue
        kids = list(kids)
        frame = [symbol, kids, None, 0, len(pending)]
        if kind == _FUN:
            hit = match(frame)
            if hit is not None:
                reds.append(hit)
        else:
            for i in pending:
                kids[i][2], kids[i][3] = frame, i
        regs.append(frame)
    return regs[right]


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
    otherwise CrsError (a variable, reported first), UnknownSymbol or
    ArityMismatch is raised.

    One loop serves both policies.  It keeps the term's redexes in an
    indexed list in leftmost-innermost (post-order) order, stored
    reversed, and fires the last entry (leftmost-innermost) or, with an
    rng, the entry that `reds[rng.randrange(len(reds))]` would be in
    post-order.  A firing builds the rule's right side from its template and
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
    sig, rules, templates, programs = sys.signature, sys.rules, sys._templates, sys._programs
    cons, match = sig.constructors, sys._match
    reds: list[tuple] = []
    root = _build(match, _compile_term(t, sig, {}, 0), [], reds)
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
        val = _build(match, templates[r], slots, block)
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
                hit = match(parent)
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
# a token is an identifier iff it starts with an ASCII letter: _TOKEN_RE
# reads an identifier whole and anything else one character at a time
_IDENT_START = frozenset(string.ascii_letters)


class CrsParseError(ValueError):
    pass


def parse_term(text: str, sig: Signature) -> Term:
    """Parse `name` or `name(t1, ..., tn)`; a bare atom `x` whose name sig
    does not declare comes back as a Var, in the same pass.  `x()` is a
    node whatever its declaration, so validation reports it."""
    return _read_term(text, sig)[0]


def _read_term(text: str, sig: Signature) -> tuple[Term, bool, Optional[Node]]:
    # parse_term's term, whether it holds a variable, and the last node
    # read whose symbol sig does not declare with its number of children,
    # or None: the first such node in pre-order with the children taken
    # last to first, the one parse_system reports.
    arity = {**sig.functions, **sig.constructors}
    has_var = False
    fault: Optional[Node] = None
    toks = _TOKEN_RE.findall(text)
    n = len(toks)
    pos = 0
    open_: list[tuple[str, list[Term]]] = []    # applications being read
    while True:
        if pos >= n:
            raise CrsParseError("unexpected end of term")
        name = toks[pos]
        if name[0] not in _IDENT_START:
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
        elif name in arity:
            t = Node(name, ())
        else:
            t = Var(name)
            has_var = True
        while True:                             # t is read
            if type(t) is Node and arity.get(t.symbol) != len(t.children):
                fault = t
            if not open_:
                break
            name, kids = open_[-1]              # t ends an argument
            kids.append(t)
            if pos < n and toks[pos] == ",":
                pos += 1
                break                           # read the next argument
            if pos >= n or toks[pos] != ")":
                raise CrsParseError("expected ')'")
            pos += 1
            open_.pop()
            t = Node(name, tuple(kids))
        if not open_:
            break
    if pos != n:
        raise CrsParseError(f"trailing input: {toks[pos:]!r}")
    return t, has_var, fault


def term_to_str(t: Term) -> str:
    out: list[str] = []
    todo: list = [t]                    # subterms, and literal text
    while todo:
        s = todo.pop()
        if type(s) is str:
            out.append(s)
        elif type(s) is Var:
            out.append(s.name)
        elif s.children:
            out.append(s.symbol + "(")
            todo.append(")")
            for c in reversed(s.children):
                todo += (c, ", ")
            todo.pop()                  # no separator before the first child
        else:
            out.append(s.symbol)
    return "".join(out)


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
    # error comes first; a symbol it applies wrongly is reported after
    term, fault = None, None
    if term_src is not None:
        term, has_var, fault = _read_term(term_src, sig)
        if has_var:
            raise CrsParseError(f"term declaration uses undeclared symbols: {term_src!r}")
    system = CrsSystem(sig, rules)
    if fault is not None:
        _check_node(fault, sig)
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
