"""Term-graph rewriting with sharing.

Graphs are rooted DAGs with ordered out-edges and a partial labelling;
a term needs every reachable node labelled.  A TermGraph keeps its
nodes in id-keyed dicts: label, succ and refs, the in-degree, which is
all that collection needs.  Constructor-sharedness, the invariant that
every shared node heads only constructor paths, is what keeps graph
steps in bijection with term steps.  It also makes the non-values
(nodes with a function node at or below them) a tree, so a redex's
anchor has one in-edge, a child slot, and the firing redirects it.

The rules are those of a CrsSystem, which has checked them.  A rule
is its two sides as trees sharing the variables: a firing copies every
node of the right side, and a variable's place takes the node that the
match bound.  Each rule is compiled once per run (compile_rule, one
walk per side) into a flat match program, a build template and a
decide plan, and takes its position's place in the system's
first-argument index, so a node tries only the rules of its head whose
first pattern can match its first child's label, in rule order.

graph_reduce converts the reachable part of its input once into linked
node records (_records), runs on them alone and writes the dicts back
once.  It keeps the redexes in an indexed list, fires one in place
(build, redirect, collection by reference count) and decides only the
nodes the firing built, so a step costs the size of its rule, as a CRS
step does.  The matcher and the function-free walk run on records
only, so find_redex and is_constructor_shared convert the graph first;
find_redex and fire_redex, which fires on the dicts, are for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Optional

from . import crs


class GraphError(Exception):
    pass


class UnlabelledNode(GraphError):
    pass


class UnfoldTooLarge(GraphError):
    def __init__(self, size: int, limit: int):
        super().__init__(f"unfolded term would have {size} nodes (limit {limit})")
        self.size = size
        self.limit = limit


class SharingViolation(GraphError):
    pass


class TermGraph:
    """Mutable rooted labelled graph; nodes are ints from a local counter.
    refs[v] is the number of child slots that hold v; the root pointer is
    not counted."""

    def __init__(self):
        self.label: dict[int, Optional[str]] = {}
        self.succ: dict[int, tuple[int, ...]] = {}
        self.refs: dict[int, int] = {}
        self.root: int = -1
        self._next = 0

    def new_node(self, label: Optional[str]) -> int:
        v = self._next
        self._next += 1
        self.label[v] = label
        self.succ[v] = ()
        self.refs[v] = 0
        return v

    def set_children(self, v: int, children: tuple[int, ...]) -> None:
        refs = self.refs
        for c in self.succ[v]:
            refs[c] -= 1
        self.succ[v] = children
        for c in children:
            refs[c] += 1

    def nodes(self) -> list[int]:
        return sorted(self.label)

    def node_count(self) -> int:
        return len(self.label)

    def is_closed(self) -> bool:
        return all(l is not None for l in self.label.values())

    def reachable(self, start: int) -> set[int]:
        seen = {start}
        todo = [start]
        while todo:
            v = todo.pop()
            for c in self.succ[v]:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        return seen


def term_to_graph(t: crs.Term) -> TermGraph:
    """Tree-shaped graph of a closed term: one node per symbol occurrence,
    children left to right before their parent."""
    g = TermGraph()
    results: list[int] = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:                   # the node below, once its children are done
            s = todo.pop()
            k = len(results) - len(s.children)
            v = g.new_node(s.symbol)
            g.set_children(v, tuple(results[k:]))
            del results[k:]
            results.append(v)
        elif type(s) is crs.Var:
            raise GraphError("term must be closed")
        else:
            todo += (s, None, *reversed(s.children))
    g.root = results[0]
    return g


def _post_order(g: TermGraph, start: int) -> list[int]:
    """Nodes reachable from start, each once at its leftmost occurrence,
    children left to right before their parent."""
    order: list[int] = []
    seen: set[int] = set()
    stack = [(start, False)]
    while stack:
        v, done = stack.pop()
        if done:
            order.append(v)
            continue
        if v in seen:
            continue
        seen.add(v)
        stack.append((v, True))
        stack.extend((c, False) for c in reversed(g.succ[v]))
    return order


def _unfold_sizes(g: TermGraph, order: list[int]) -> dict[int, int]:
    # unfolded size of each node of a post-order list
    sizes: dict[int, int] = {}
    for v in order:
        sizes[v] = 1 + sum(sizes[c] for c in g.succ[v])
    return sizes


def graph_to_term(g: TermGraph, max_size: int = 10_000) -> crs.Term:
    """Unfold the graph to a term; exponential in the worst case, so a size
    guard refuses beyond max_size nodes before anything is built.  One
    post-order walk serves the guard and the build."""
    if not g.is_closed():
        unlab = [v for v, l in g.label.items() if l is None]
        raise UnlabelledNode(f"nodes {unlab} are unlabelled")
    order = _post_order(g, g.root)
    total = _unfold_sizes(g, order)[g.root]
    if total > max_size:
        raise UnfoldTooLarge(total, max_size)
    memo: dict[int, crs.Term] = {}
    for v in order:
        memo[v] = crs.Node(g.label[v], tuple(memo[c] for c in g.succ[v]))
    return memo[g.root]


# --- compiled rules --------------------------------------------------------------------

# kinds of match step: a constructor node of the left side, and a variable
_LABEL, _BIND = 0, 1


class CompiledRule(NamedTuple):
    """A rule of a checked system as a flat match program, a build
    template and a decide plan.

    A match fills `slots` slots with graph nodes, the anchor in slot 0.
    A step (kind, parent, i, arg) takes the i-th child of the node in
    slot parent, which for _LABEL must carry the label arg and for _BIND
    be function-free, and fills the next slot.  The steps visit the left
    side depth first, last child first.  The template lists the right
    side's nodes, its copies, in post-order, so their ids come in that
    order.  Their children, and the right root, are references: a slot,
    or slots + k for the k-th copy.  touched lists the references that a
    firing gives a new in-edge, in the order the sharing check visits
    them: the children of each copy, then the right root.  plan lists
    the copies that graph_reduce decides after a firing, all of them, as
    (reference, reference of the parent copy or -1 at the right root,
    index there), children left to right before their parent.  plan_work
    counts the walk that decides them: the replacement and the child
    slots of the copies.
    """

    match: tuple[tuple[int, int, int, Optional[str]], ...]
    slots: int
    labels: tuple[str, ...]              # of the copies
    kids: tuple[tuple[int, ...], ...]    # of the copies
    right: int
    touched: tuple[int, ...]
    plan: tuple[tuple[int, int, int], ...]
    plan_work: int


def compile_rule(rule: crs.Rule) -> CompiledRule:
    """The match program, build template and decide plan of a rule that
    its CrsSystem has checked: one walk of each side."""
    slot_of: dict[str, int] = {}
    match: list[tuple[int, int, int, Optional[str]]] = []
    todo: list = [(p, 0, i) for i, p in enumerate(rule.lhs)]
    while todo:
        p, parent, i = todo.pop()
        s = len(match) + 1
        if type(p) is crs.Var:
            slot_of[p.name] = s
            match.append((_BIND, parent, i, None))
        else:
            match.append((_LABEL, parent, i, p.symbol))
            todo.extend((c, s, j) for j, c in enumerate(p.children))
    n = len(match) + 1
    labels: list[str] = []
    kids: list[tuple[int, ...]] = []
    plan: list[tuple[int, int, int]] = []
    refs: list[int] = []
    todo = [rule.rhs]
    while todo:
        t = todo.pop()
        if t is None:                   # the node below, once its children are done
            t = todo.pop()
            k = len(refs) - len(t.children)
            kr = tuple(refs[k:])
            del refs[k:]
            r = n + len(labels)
            for j, c in enumerate(kr):
                if c >= n:
                    plan[c - n] = (c, r, j)
            labels.append(t.symbol)
            kids.append(kr)
            plan.append((r, -1, 0))
            refs.append(r)
        elif type(t) is crs.Var:
            refs.append(slot_of[t.name])
        else:
            todo += (t, None, *reversed(t.children))
    right = refs[0]
    return CompiledRule(tuple(match), n, tuple(labels), tuple(kids), right,
                        (*(r for kr in kids for r in kr), right), tuple(plan),
                        1 + sum(map(len, kids)))


# the compiled rules keyed as in the system's first-argument index
_RuleIndex = dict[tuple[str, Optional[str]], list[CompiledRule]]


def _rule_index(system: crs.CrsSystem) -> _RuleIndex:
    compiled = [compile_rule(r) for r in system.rules]
    return {key: [compiled[r] for r in bucket] for key, bucket in system._index.items()}


@dataclass
class Redex:
    compiled: CompiledRule
    nodes: list[int]  # the graph node in each match slot, the anchor first

    @property
    def anchor(self) -> int:
        return self.nodes[0]


# --- node records ----------------------------------------------------------------------

def _records(g: TermGraph) -> dict[int, list]:
    """The record [label, kids, refs, id, value, parent, index, pending]
    of each node reachable from the root, by id.  kids holds records, refs
    counts in-edges from reachable nodes, value memoises function-freeness
    (None while unknown), and graph_reduce keeps the rest."""
    rec = {v: [g.label[v], g.succ[v], 0, v, None, None, 0, 0] for v in g.reachable(g.root)}
    for r in rec.values():
        r[1] = kids = [rec[c] for c in r[1]]
        for c in kids:
            c[2] += 1
    return rec


def _candidates(index: _RuleIndex, v: list, lab: str) -> list[CompiledRule]:
    return index.get((lab, v[1][0][0] if v[1] else None)) or index.get((lab, None), [])


def _function_free(v: list, functions: dict, counter: list[int]) -> bool:
    # no function label at or below record v: the constructor-path condition
    todo = [v]
    trail = []
    ok = True
    while todo:
        u = todo.pop()
        if u[4] is not None:
            if not u[4]:
                ok = False
                break
            continue
        counter[0] += 1
        if u[0] in functions:
            ok = False
            break
        trail.append(u)
        todo.extend(u[1])
    if ok:
        for u in trail:
            u[4] = True
    v[4] = ok
    return ok


def _match(cr: CompiledRule, anchor: list, functions: dict,
           counter: list[int]) -> Optional[list[list]]:
    """The records in cr's match slots at anchor, or None.  The anchor's
    label is the rule's head.  counter gains one per step run, the anchor
    included, plus the records _function_free visits."""
    nodes = [anchor]
    n = 1
    for kind, parent, i, arg in cr.match:
        n += 1
        gn = nodes[parent][1][i]
        if kind == _LABEL:
            if gn[0] != arg:
                break
        elif kind == _BIND:
            if not (gn[4] or _function_free(gn, functions, counter)):
                break
        else:
            if nodes[arg] is not gn:
                break
            continue
        nodes.append(gn)
    else:
        counter[0] += n
        return nodes
    counter[0] += n
    return None


def _first_match(index: _RuleIndex, v: list, lab: str, functions: dict, counter: list[int]):
    # (compiled rule, slots) of the rule firing at record v, or None
    for cr in _candidates(index, v, lab):
        nodes = _match(cr, v, functions, counter)
        if nodes is not None:
            return cr, nodes
    return None


def _shared_ok(rec: dict[int, list], functions: dict) -> bool:
    # every record with two in-edges is function-free; the memo is cleared
    ok = all(r[2] < 2 or _function_free(r, functions, [0]) for r in rec.values())
    for r in rec.values():
        r[4] = None
    return ok


def find_redex(g: TermGraph, system: crs.CrsSystem) -> Optional[Redex]:
    """Leftmost-innermost redex under system's rules: the first in
    post-order from the root; the match runs on the graph's records.
    Orthogonality makes the rule at a given anchor unique; that is
    asserted.  For the tests: graph_reduce never searches the whole
    graph.  It stays a module attribute as bench/tracer.py wraps it."""
    index = _rule_index(system)
    rec = _records(g)
    functions = system.signature.functions
    for v in _post_order(g, g.root):
        u = rec[v]
        if u[0] not in functions:
            continue
        hits = [Redex(cr, [r[3] for r in nodes]) for cr in _candidates(index, u, u[0])
                if (nodes := _match(cr, u, functions, [0])) is not None]
        assert len(hits) <= 1, f"orthogonality violated at node {v}"
        if hits:
            return hits[0]
    return None


def fire_redex(g: TermGraph, redex: Redex, sig: crs.Signature) -> list[int]:
    """Fire redex on g's dicts as a first step: copy the right-only nodes,
    point every in-edge of the anchor (a shared anchor has several) and
    the root if it is the anchor at the replacement, keep the reachable
    nodes (_write_back) and check sharedness at the nodes that gained an
    in-edge.  Returns those nodes, the replacement last.  For the tests;
    it stays a module attribute as bench/tracer.py wraps it."""
    cr, v = redex.compiled, redex.anchor
    nodes = redex.nodes + [g.new_node(lab) for lab in cr.labels]
    for u, kr in zip(nodes[cr.slots:], cr.kids):
        g.set_children(u, tuple([nodes[r] for r in kr]))
    new = nodes[cr.right]
    for u, kids in list(g.succ.items()):
        if v in kids:
            g.set_children(u, tuple([new if c == v else c for c in kids]))
    if g.root == v:
        g.root = new
    rec = _records(g)
    _write_back(g, rec[g.root], g._next)
    touched = [rec[nodes[r]] for r in cr.touched]
    if any(u[2] >= 2 and not _function_free(u, sig.functions, [0]) for u in touched):
        raise SharingViolation("sharedness lost after step 1")
    return [u[3] for u in touched]


def is_constructor_shared(g: TermGraph, sig: crs.Signature) -> bool:
    """Every node reachable along two distinct paths heads only constructor
    paths; on a rooted DAG it suffices to check the nodes with two
    in-edges from reachable nodes (an unreachable node is no path)."""
    return _shared_ok(_records(g), sig.functions)


OutcomeKind = Literal["normal", "exhausted"]


@dataclass
class GraphOutcome:
    kind: OutcomeKind
    graph: TermGraph
    steps: int
    sizes: list[int] = field(default_factory=list)  # node count, initial first
    work: list[int] = field(default_factory=list)   # nodes and match steps per search


def graph_reduce(g: TermGraph, system: crs.CrsSystem, budget: int = 10_000,
                 rng=None) -> GraphOutcome:
    """Reduce a constructor-shared closed graph, leftmost-innermost by
    default or at uniformly random redexes with rng.

    The system's rules are compiled once per call, before the input is
    read (compile_rule).  The reachable part of g becomes records
    (_records), and a run of one step or more writes label, succ, refs,
    root and _next back once (_write_back); a run of 0 steps leaves g
    untouched.  A record's value is True for a value; every other record
    has its one in-edge, kids[index] of its parent (None at the root),
    and pending, its non-value children.  The parent is cleared when a
    record becomes a value or dies.  reds holds the redexes (anchor,
    compiled rule, slots) in find_redex's post-order, reversed so that
    the leftmost-innermost one is last.  The loop fires that entry, or
    with rng the entry that reds[rng.randrange(len(reds))] would be in
    post-order: it builds the copies, redirects the anchor's in-edge,
    collects by reference count from the anchor (refs count only
    in-edges from reachable nodes, so this removes exactly what became
    unreachable, at step 1 also what never was), and checks sharedness.
    The entry becomes the redexes among the copies, decided by the
    rule's plan, or, when the replacement is a value, the first function
    ancestor that value-ness reaches through constructor nodes, if that
    now matches.  A node becomes a value once, so this climb is O(1)
    amortised.

    sizes holds the node count of the input and after every firing.
    work holds, per search for a redex, the graph nodes it arrived at and
    the match steps it ran: one entry per firing, and one more for the
    last search when the run ends normal with steps < budget.  The first
    search walks the input; a later one counts the replacement, the child
    slots of the copies it decides and the rules it tries.

    A reachable input node whose label the system's signature does not
    declare, or whose child count is not its arity, raises
    crs.UnknownSymbol or crs.ArityMismatch.  The input is checked for constructor-sharedness,
    and after every firing the nodes that gained an in-edge and now have
    in-degree >= 2 are checked to be function-free; no other node can
    lose the property, since a redirect only rewires the parent of a
    function node, which is unshared.  A violation aborts the run since
    it indicates a bug, not an input error.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    sig = system.signature
    index = _rule_index(system)
    functions = sig.functions
    rec = _records(g)
    if not _shared_ok(rec, functions):
        raise SharingViolation("input graph is not constructor-shared")
    root, size = rec[g.root], len(rec)
    del rec
    sizes = [len(g.label)]
    work: list[int] = []
    counter = [0]
    reds: list[tuple] = []
    _decide(root, index, sig, reds, counter)
    reds.reverse()
    steps, top = 0, g._next
    while reds and steps < budget:
        k = len(reds) - 1
        if rng is not None:
            k -= rng.randrange(k + 1)
        v, cr, nodes = reds[k]
        steps += 1
        work.append(counter[0])
        counter[0] = cr.plan_work
        parent, i, v[5] = v[5], v[6], None
        n = len(nodes)
        for lab in cr.labels:
            nodes.append([lab, None, 0, top, None, None, 0, 0])
            top += 1
        for u, kr in zip(nodes[n:], cr.kids):
            u[1] = kids = []
            for r in kr:
                c = nodes[r]
                kids.append(c)
                c[2] += 1
        new = nodes[cr.right]
        if parent is None:
            root = new
        else:
            parent[1][i] = new
            new[2] += 1
            v[2] -= 1
        size += len(cr.labels)
        todo = [v] if not v[2] and v is not root else []
        while todo:
            u = todo.pop()
            size -= 1
            for c in u[1]:
                c[2] -= 1
                if not c[2] and c is not root:
                    todo.append(c)
        sizes.append(size)
        for r in cr.touched:
            u = nodes[r]
            if u[2] >= 2 and not (u[4] or _function_free(u, functions, [0])):
                raise SharingViolation(f"sharedness lost after step {steps}")
        block: list[tuple] = []
        for r, p, j in cr.plan:
            u = nodes[r]
            lab = u[0]
            if lab in functions:
                hit = None if u[7] else _first_match(index, u, lab, functions, counter)
                if hit is not None:
                    block.append((u, *hit))
            elif not u[7]:
                u[4] = True
                continue
            if p < 0:
                u[5], u[6] = parent, i
            else:
                u[5], u[6] = nodes[p], j
                nodes[p][7] += 1
        while new[4] and parent is not None:
            parent[7] -= 1
            if parent[7]:
                break
            lab = parent[0]
            if lab in functions:
                hit = _first_match(index, parent, lab, functions, counter)
                if hit is not None:
                    block.append((parent, *hit))
                break
            parent[4] = True
            parent[5], parent = None, parent[5]
        block.reverse()
        reds[k:k + 1] = block
    if not reds and steps < budget:
        work.append(counter[0])
    if steps:
        _write_back(g, root, top)
    return GraphOutcome("exhausted" if reds else "normal", g, steps, sizes, work)


def _decide(root: list, index: _RuleIndex, sig: crs.Signature, reds: list[tuple],
            counter: list[int]) -> None:
    # The first search: decide every record reachable from root, children
    # first, as the plan decides copies; a function node over values that
    # matches goes into reds.  Each record is checked against sig before
    # it is matched.  A frame is [record, next child]; counter gains one
    # per record arrived at, plus the match steps.
    counter[0] += 1
    functions = sig.functions
    stack = [[root, 0]]
    while stack:
        frame = stack[-1]
        u, nxt = frame
        kids = u[1]
        if nxt < len(kids):
            frame[1] = nxt + 1
            counter[0] += 1
            c = kids[nxt]
            if not c[4]:
                c[5], c[6] = u, nxt
                stack.append([c, 0])
            continue
        stack.pop()
        lab = u[0]
        if (ar := sig.arity(lab)) != len(kids):
            raise crs.ArityMismatch(lab, ar, len(kids))
        if lab in functions:
            hit = None if u[7] else _first_match(index, u, lab, functions, counter)
            if hit is not None:
                reds.append((u, *hit))
        elif not u[7]:
            u[4] = True
            u[5] = None
            continue
        if stack:
            stack[-1][0][7] += 1


def _write_back(g: TermGraph, root: list, top: int) -> None:
    # the records reachable from root into g, in ascending id order
    live = {root[3]: root}
    todo = [root]
    while todo:
        for c in todo.pop()[1]:
            if c[3] not in live:
                live[c[3]] = c
                todo.append(c)
    ids = sorted(live)
    g.label = {v: live[v][0] for v in ids}
    g.succ = {v: tuple([c[3] for c in live[v][1]]) for v in ids}
    g.refs = {v: live[v][2] for v in ids}
    g.root, g._next = root[3], top


# --- comparison and export ------------------------------------------------------------

def to_dot(g: TermGraph) -> str:
    """DOT export with stable node ordering (ascending ids)."""
    lines = ["digraph g {"]
    for v in g.nodes():
        lab = g.label[v] if g.label[v] is not None else "?"
        shape = ' shape="doublecircle"' if v == g.root else ""
        lines.append(f'  n{v} [label="{lab}"{shape}];')
    for v in g.nodes():
        for i, c in enumerate(g.succ[v]):
            lines.append(f'  n{v} -> n{c} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
