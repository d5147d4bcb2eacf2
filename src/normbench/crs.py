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
firing replaces its entry by the redexes it made.  A node finds its rule
by walking its head's match tree (_match_tree), which has at most one
switch per constructor of the head's left sides and visits each at most
once; where constructors tell the rules apart, a match reads only the
constructors of the rule it finds, however many rules the head has.
Each rule is compiled once, when its system is built, into the
numbering of its slots and a register template that builds its
right-hand side with one fetch per node, so a step costs the size of its
rule whatever the size of the term.  The input is not compiled: one
post-order walk (_load) turns it into the values and frames a template
builds.  The outcome counts the firings of each rule; a caller
that needs more can hook each step, which receives the rule, its match
and a `state()` that builds the whole term only when called.

A system is taken in once: `parse_term` reads a term under its
signature, so an undeclared atom is a variable as it is read, and
`CrsSystem` compiles the rules, which is what checks them (see
`CrsSystem` for which fault a rule with several reports); building a
head's match tree decides whether its left sides overlap.  Graph
reduction walks the same trees, and the Scott matcher translates trees
of the same builder that copy rather than backtrack.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Literal, Optional, Union

from .frozen import Frozen, distinct_nodes


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
    """Number of occurrences of `symbol` in t: a shared subterm counts
    at each of its occurrences, but is walked once."""
    counts: dict[int, int] = {}     # id of an object done -> its count
    for s in distinct_nodes(t):
        counts[id(s)] = 0 if type(s) is Var else (
            (s.symbol == symbol) + sum([counts[id(c)] for c in s.children]))
    return counts[id(t)]


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
    return all(type(s) is Node and sig.is_constructor(s.symbol) for s in distinct_nodes(t))


def contains_function(t: Term, sig: Signature) -> bool:
    return any(type(s) is Node and sig.is_function(s.symbol) for s in distinct_nodes(t))


def _check_node(s: Node, sig: Signature) -> None:
    ar = sig.arity(s.symbol)
    if ar != len(s.children):
        raise ArityMismatch(s.symbol, ar, len(s.children))


class CrsSystem:
    """A validated orthogonal constructor rewrite system.

    Construction compiles every rule, and the compile is the check.
    Rules are checked in order, and a rule raises at its first fault:
    its head (a function symbol of the right arity), then its left side
    slot by slot (_match_program: the arguments left to right, then
    the children of each constructor node in that order: an
    undeclared symbol, a wrong arity, a function symbol, or a second
    occurrence of a variable), then its unbound right-side variables,
    then its right side in pre-order (an undeclared symbol or a wrong
    arity).  Once every rule compiles, each head's match tree
    (`_match_tree`) is built from its left sides, heads by first
    appearance, and the build decides overlap: the first overlapping
    pair is reported, the least (i, j) in rule order of the first head
    that has one, the pair a scan of every pair in that order meets
    first.
    """

    def __init__(self, signature: Signature, rules: list[Rule]):
        self.signature = sig = signature
        self.rules = tuple(rules)
        # each rule's (variable -> slot, number of slots) and right-side
        # register template
        self._slots: list[tuple[dict[str, int], int]] = []
        self._templates: list[tuple] = []
        for idx, rule in enumerate(self.rules):
            slot_of, nslots = _match_program(idx, rule, sig)
            self._slots.append((slot_of, nslots))
            self._templates.append(_compile_term(rule.rhs, sig, slot_of, nslots, idx))
        # each rule's graph build template, compiled by graphs on first use
        self._graph_templates: list = [None] * len(self.rules)
        rows: dict[str, list] = {}
        for idx, rule in enumerate(self.rules):
            rows.setdefault(rule.head, []).append((idx, rule.lhs))
        trees = {f: _match_tree(group) for f, group in rows.items()}
        self._trees = {f: trees.get(f) for f in sig.functions}

    def _match(self, frame: list) -> Optional[tuple[list, int, list[Term]]]:
        # (frame, rule position, slots) of the rule firing at a function
        # node frame whose arguments are values, or None
        node = self._trees[frame[0]]
        slots = frame[1][:]
        back = []                       # (default, slots there) of each branch taken
        while True:
            while type(node) is list:
                t = slots[node[0]]
                sub = node[1].get(t.symbol)
                if sub is None:
                    node = node[2]
                else:
                    if node[2] is not None:
                        back.append((node[2], len(slots)))
                    slots += t.children
                    node = sub
            if node is not None:
                return frame, node, slots
            if not back:
                return None
            node, n = back.pop()
            del slots[n:]


def _match_tree(rows: list[tuple[int, tuple[Term, ...]]], copy: bool = False):
    """The decision tree that finds which of rows, (position, left side)
    in rule order, matches a node's arguments (Maranget, "Compiling
    pattern matching to good decision trees", ML 2008).  A walk's slots
    start as the arguments.  A switch [slot, branches, default, positions
    of its rows] reads the root in its slot: a constructor that branches
    names leads there and appends its children as the next slots, any
    other to default (None fails).  A leaf is the position of its row.
    A group of rows splits on the first slot, in the order below, at
    which some row has a constructor: a branch per constructor there
    holds the rows with it, and the default the rows with a variable.  A
    group in which no row has a constructor left is a leaf, its first
    row.

    Without copy, the engines' tree, slots go by number, so a walk reads
    a rule's slots in the order _match_program numbers them, and a walk
    whose branch fails goes on at that switch's default with the slots it
    had there (a backtracking automaton, Le Fessant and Maranget, ICFP
    2001).  Each row is in one group at a time, so the tree is linear in
    the size of the left sides.  With copy, Scott's tree, slots go by
    place, a node's children taking its column, and each branch holds
    the rows with a variable too, in rule order, so no walk backtracks;
    copying can make the tree exponential in the number of rows.

    The build raises OverlapError for the least pair (i, j) of positions
    whose rows unify, which linear left sides do exactly when they agree
    wherever both hold a constructor.  The rows of a group have read the
    same constructors in the same slots, so two rows that reach one leaf
    unify, and two that take different branches do not; a leaf reports
    its first two rows.  With copy, a row with a variable enters every
    branch, so every unifying pair meets at a leaf.  Without copy, a row
    that waits in a default is compared (_agree) with each row read into
    a branch there, on the constructors both have left to read, keyed by
    slot: a branch's new slots are none of the waiting row's.  Each pair
    is compared at most once, and none once a lesser pair is found;
    where constructors tell the rows apart, none waits and none is."""
    root: list = [None]
    # (where the node goes, its group: (position, the constructors of the
    # row not yet read, in order: (key, slot, node)), slots so far); the
    # key is the slot, or with copy the node's path from the arguments
    todo: list[tuple] = [(root, 0, [(p, [((j,) if copy else j, j, q)
                                         for j, q in enumerate(lhs) if type(q) is Node])
                                    for p, lhs in rows], len(rows[0][1]))] if rows else []
    best: Optional[tuple[int, int]] = None     # the least pair of rows found to unify
    while todo:
        into, key, group, n = todo.pop()
        heads = [row[0][:2] for _, row in group if row]
        if not heads:
            into[key] = group[0][0]
            if len(group) > 1 and (best is None or (group[0][0], group[1][0]) < best):
                best = group[0][0], group[1][0]
            continue
        k, s = min(heads)
        split: dict[str, tuple[int, list]] = {}    # constructor -> (arity, rows)
        var_rows = []
        for p, row in group:
            if row and row[0][1] == s:
                c = row[0][2]
                kids = [(k + (i,) if copy else n + i, n + i, q)
                        for i, q in enumerate(c.children) if type(q) is Node]
                if c.symbol not in split:
                    split[c.symbol] = len(c.children), var_rows[:] if copy else []
                split[c.symbol][1].append((p, kids + row[1:] if copy else row[1:] + kids))
            else:
                var_rows.append((p, row))
                if copy:
                    for _, sub in split.values():
                        sub.append((p, row))
        node = into[key] = [s, {}, None, tuple(p for p, _ in group)]
        todo += [(node[1], c, sub, n + ar) for c, (ar, sub) in split.items()]
        if var_rows:
            todo.append((node, 2, var_rows, n))
        if var_rows and not copy:
            for j, jrow in group:       # each row read at s against the waiting rows
                if jrow and jrow[0][1] == s:
                    for v, vrow in var_rows:
                        pair = (j, v) if j < v else (v, j)
                        if best is not None and pair >= best:
                            break
                        if _agree(vrow, jrow):
                            best = pair
                            break
    if best is not None:
        raise OverlapError(*best)
    return root[0]


def _agree(a: list, b: list) -> bool:
    # whether rows a and b of a group, the (key, slot, node) of each
    # constructor they have left to read, agree wherever both hold one
    at = {s: q for _, s, q in a}
    todo = [(at[s], q) for _, s, q in b if s in at]
    while todo:
        p, q = todo.pop()
        if p.symbol != q.symbol:
            return False
        todo += [(x, y) for x, y in zip(p.children, q.children) if type(x) is Node is type(y)]
    return True


def validate_system(signature: Signature, rules: list[Rule]) -> CrsSystem:
    """Validated system, or a CrsError naming the offending rule(s)."""
    return CrsSystem(signature, rules)


def _match_program(idx: int, rule: Rule, sig: Signature) -> tuple[dict[str, int], int]:
    # (slot_of, number of slots) of rule idx's left side, checked against
    # sig in the walk that numbers the slots.  The arguments are the first
    # slots, and each constructor node appends its children as the next
    # ones, as a walk of a match tree does; slot_of names the slot that
    # binds each variable.
    if rule.head not in sig.functions:
        raise InvalidRule(f"rule {idx}: head {rule.head!r} is not a function symbol")
    ar = sig.functions[rule.head]
    if len(rule.lhs) != ar:
        raise ArityMismatch(rule.head, ar, len(rule.lhs))
    cons = sig.constructors
    slot_of = {}
    pats = list(rule.lhs)               # the pattern of each slot, grown as nodes add slots
    for s, p in enumerate(pats):
        if type(p) is Var:
            if p.name in slot_of:
                raise NonLinearLhs(idx, p.name)
            slot_of[p.name] = s
        elif cons.get(p.symbol) != len(p.children):
            _check_node(p, sig)         # raises, unless p is a function node
            raise InvalidRule(f"rule {idx}: lhs argument is not a pattern")
        else:
            pats += p.children
    return slot_of, len(pats)


# the kinds of node a template builds: a value, a function frame over
# values, a frame with frame children
_VALUE, _FUN, _NODE = range(3)


def _compile_term(t: Term, sig: Signature, slot_of: dict[str, int], nslots: int,
                  idx: int) -> tuple:
    # The register template (consts, nodes, right) of t, rule idx's right
    # side, whose variables read the slots slot_of names among a match's
    # nslots; a reduction's input is loaded, not compiled (_load).  The
    # registers are the slots, consts (the closed function-free subterms,
    # shared whole), then the result of each entry (symbol, kind, get,
    # positions of the frame children) of nodes, t's nodes in post-order;
    # get fetches the children, earlier results counted from the end, in
    # one call (a tuple, or a list if fewer than two).  Classes: 0 closed
    # and function-free, 1 a value, 2 a frame.  Unbound variables raise,
    # else the first node in pre-order with an undeclared symbol or a
    # wrong arity.
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
        raise InvalidRule(f"rule {idx}: rhs variables {sorted(unbound)} not bound in lhs")
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


def _load(t: Term, sig: Signature, match, reds: list[tuple]):
    # The value or frame of closed term t, as _build makes them, in one
    # post-order walk: a function-free subterm is kept whole, and a
    # function node over values that match matches is appended to reds,
    # in post-order.  A variable raises first, else the first node in
    # pre-order with an undeclared symbol or a wrong arity.
    funs = sig.functions
    arity = {**sig.constructors, **funs}
    out: list = []                      # the value or frame of each done subterm
    frames = 0                          # how many of them are frames
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:                   # the node below, once its children are done
            s = todo.pop()
            n = len(out) - len(s.children)
            if s.symbol not in funs and not (frames and list in map(type, out[n:])):
                out[n:] = (s,)
                continue
            kids = out[n:]
            del out[n:]
            frame = [s.symbol, kids, None, 0, 0]
            for i, c in enumerate(kids):
                if type(c) is list:
                    c[2], c[3] = frame, i
                    frame[4] += 1
            frames += 1 - frame[4]
            if not frame[4]:
                hit = match(frame)
                if hit is not None:
                    reds.append(hit)
            out.append(frame)
        elif type(s) is Var:
            raise CrsError("reduction input must be closed")
        else:
            kids = s.children
            if arity.get(s.symbol) != len(kids):
                if variables(t):
                    raise CrsError("reduction input must be closed")
                _check_node(s, sig)     # raises
            if kids or s.symbol in funs:
                todo += (s, None, *reversed(kids))
            else:                       # a nullary constructor
                out.append(s)
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
    sig, rules, templates, bound = sys.signature, sys.rules, sys._templates, sys._slots
    cons, match = sig.constructors, sys._match
    reds: list[tuple] = []
    root = _load(t, sig, match, reds)
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
            on_step(rules[r], {x: slots[s] for x, s in bound[r][0].items()},
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
