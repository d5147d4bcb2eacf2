"""Term-graph rewriting with sharing.

Graphs are rooted DAGs with ordered out-edges and a partial labelling;
unlabelled nodes play the role of variables.  Each node carries only
its in-degree (TermGraph.refs), which is all that collection needs.
Firing a redex runs three phases: build an isomorphic copy of the
rule's right-hand portion, redirect every edge into the matched root
(and the graph root if needed), then collect by reference count: the
old anchor dies with its last in-edge, and so does every node whose
in-edges all came from dead nodes.  Constructor-sharedness, the invariant that every shared node
heads only constructor paths, is what keeps graph steps in bijection
with term steps.

Each rule is compiled once per run (compile_rules) into a flat match
program, which fills numbered slots with graph nodes, and a build
template, which copies the right-only nodes with children taken from
the slots.  Rules are indexed by head and the label of the first
argument, so a node tries only the rules whose first pattern can match
it.

graph_reduce runs an innermost evaluation machine: one descent from the
root, each node decided once when its children are done, firing in the
leftmost-innermost order of find_redex, which stays as the whole-graph
search of the random policy and the reference.  Both use the one
matcher, _match.  The machine fires in place: build, redirect, collect
and the sharing check run inline.  The anchor is a function node, which
constructor-sharedness leaves unshared, so its one in-edge is the child
slot the machine descended through, and the redirect rewrites that slot.
A firing thus costs the size of its rule, as a CRS step does.  fire_redex is the generic firing of the
random policy: it finds the in-edges of the anchor by a scan of succ,
which costs no more than the whole-graph search before it.  After the
initial whole-graph check, sharedness is checked only on the nodes a
firing gave a new in-edge, so no step after the first walks the whole
graph.
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


def _add_tree(g: TermGraph, t: crs.Term, varnode: dict[str, int]) -> int:
    """Add a tree for t to g, children before their parent, and return its
    root.  One node per symbol occurrence; a variable gets one unlabelled
    node per name, looked up in and recorded into varnode."""
    results: list[int] = []
    todo: list[tuple[bool, crs.Term]] = [(False, t)]
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


def term_to_graph(t: crs.Term) -> TermGraph:
    """Tree-shaped graph of a closed term: one node per symbol occurrence."""
    if not crs.is_closed(t):
        raise GraphError("term must be closed")
    g = TermGraph()
    g.root = _add_tree(g, t, {})
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


# --- rules -----------------------------------------------------------------------------

@dataclass
class GraphRule:
    """Labelled graph with left and right roots.

    Every path from the left root must be a left path: the left root is a
    function symbol and everything below it is a constructor or unlabelled.
    Unlabelled nodes reachable from the right root must also be reachable
    from the left root.
    """

    graph: TermGraph
    left: int
    right: int
    name: str = ""

    def validate(self, sig: crs.Signature) -> None:
        g = self.graph
        if g.label[self.left] is None or not sig.is_function(g.label[self.left]):
            raise GraphError("left root must be labelled with a function symbol")
        for v in g.reachable(self.left):
            lab = g.label[v]
            if v != self.left and lab is not None and not sig.is_constructor(lab):
                raise GraphError(f"non-left path through node {v}")
        left_nodes = g.reachable(self.left)
        for v in g.reachable(self.right):
            if g.label[v] is None and v not in left_nodes:
                raise GraphError(f"unlabelled node {v} not bound by the left side")


def rule_to_graph_rule(rule: crs.Rule, sig: crs.Signature) -> GraphRule:
    """Trees of both sides, sharing exactly the variable nodes."""
    g = TermGraph()
    varnode: dict[str, int] = {}
    left = _add_tree(g, crs.Node(rule.head, rule.lhs), varnode)
    right = _add_tree(g, rule.rhs, varnode)
    gr = GraphRule(g, left, right, name=rule.head)
    gr.validate(sig)
    return gr


def system_to_graph_rules(system: crs.CrsSystem) -> list[GraphRule]:
    return [rule_to_graph_rule(r, system.signature) for r in system.rules]


# --- compiled rules --------------------------------------------------------------------

# kinds of match step: a labelled rule node, an unlabelled one, and a rule
# node reached a second time (a left side that shares a node)
_LABEL, _BIND, _SAME = 0, 1, 2


class CompiledRule(NamedTuple):
    """A graph rule as a flat match program and a build template.

    A match fills slots with graph nodes, the anchor in slot 0.  A step
    (kind, parent, i, arg) takes the i-th child of the node in slot
    parent: for _LABEL it must carry the label arg and for _BIND be
    function-free, and either way it fills the next slot; for _SAME it
    must be the node in slot arg.  The steps visit the left side depth
    first, last child first, which is the order of a generic walk with a
    stack.  The template lists the right-only nodes in ascending
    rule-node order, so their copies get ids in that order.  Their
    children, and the right root, are references: a slot, or
    len(slots) + k for the copy of the k-th right-only node.  touched
    lists the references that a firing gives a new in-edge, in the order
    the sharing check visits them: the children of each copy, then the
    right root.
    """

    rule: GraphRule
    match: tuple[tuple[int, int, int, object], ...]
    slots: tuple[int, ...]               # the rule node of each slot
    labels: tuple[str, ...]              # of the right-only nodes
    kids: tuple[tuple[int, ...], ...]    # of the right-only nodes
    right: int
    touched: tuple[int, ...]


def compile_rule(gr: GraphRule) -> CompiledRule:
    """The match program and build template of one rule."""
    rg = gr.graph
    slot = {gr.left: 0}
    match = []
    todo = [(c, 0, i) for i, c in enumerate(rg.succ[gr.left])]
    while todo:
        rn, parent, i = todo.pop()
        s = slot.get(rn)
        if s is not None:
            match.append((_SAME, parent, i, s))
            continue
        slot[rn] = s = len(slot)
        lab = rg.label[rn]
        if lab is None:
            match.append((_BIND, parent, i, None))
        else:
            match.append((_LABEL, parent, i, lab))
            todo.extend((c, s, j) for j, c in enumerate(rg.succ[rn]))
    left_nodes = rg.reachable(gr.left)
    fresh = [v for v in sorted(rg.reachable(gr.right)) if v not in left_nodes]
    ref = dict(slot)
    for k, v in enumerate(fresh):
        if rg.label[v] is None:
            raise GraphError(f"unlabelled node {v} outside the left side")
        ref[v] = len(slot) + k
    kids = tuple(tuple(ref[c] for c in rg.succ[v]) for v in fresh)
    return CompiledRule(gr, tuple(match), tuple(slot), tuple(rg.label[v] for v in fresh),
                        kids, ref[gr.right], (*(r for k in kids for r in k), ref[gr.right]))


RuleIndex = dict[tuple[str, Optional[str]], list[CompiledRule]]


def compile_rules(grules: list[GraphRule]) -> RuleIndex:
    """Compiled rules keyed by (head, label of the first argument).  The
    key of a constructor c holds, in rule order, the rules whose first
    pattern is c or unlabelled; the key None holds the rules whose first
    pattern is unlabelled, and every rule of a nullary head."""
    by_head: dict[str, list[tuple[Optional[str], CompiledRule]]] = {}
    for gr in grules:
        rg = gr.graph
        kids = rg.succ[gr.left]
        first = rg.label[kids[0]] if kids else None
        by_head.setdefault(rg.label[gr.left], []).append((first, compile_rule(gr)))
    index: RuleIndex = {}
    for head, rules in by_head.items():
        for key in {None, *(first for first, _ in rules)}:
            index[head, key] = [cr for first, cr in rules if first is None or first == key]
    return index


def _candidates(index: RuleIndex, g: TermGraph, v: int, lab: str) -> list[CompiledRule]:
    kids = g.succ[v]
    return index.get((lab, g.label[kids[0]] if kids else None)) or index.get((lab, None), [])


@dataclass
class Redex:
    compiled: CompiledRule
    nodes: list[int]  # the graph node in each match slot, the anchor first

    @property
    def rule(self) -> GraphRule:
        return self.compiled.rule

    @property
    def anchor(self) -> int:
        return self.nodes[0]

    @property
    def phi(self) -> dict[int, int]:
        """rule node -> graph node, on the left subgraph"""
        return dict(zip(self.compiled.slots, self.nodes))


def _function_free(g: TermGraph, v: int, sig: crs.Signature,
                   memo: dict[int, bool], counter: list[int]) -> bool:
    # no function label at or below v: the constructor-path condition
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


def _match(g: TermGraph, cr: CompiledRule, anchor: int, sig: crs.Signature,
           ffree: dict[int, bool], counter: list[int]) -> Optional[list[int]]:
    """The slots of cr's match at anchor, or None.  The anchor's label is
    the rule's head.  counter gains one per step run, the anchor
    included, plus the nodes _function_free visits."""
    label, succ = g.label, g.succ
    nodes = [anchor]
    n = 1
    for kind, parent, i, arg in cr.match:
        n += 1
        gn = succ[nodes[parent]][i]
        if kind == _LABEL:
            if label[gn] != arg:
                break
        elif kind == _BIND:
            if not (ffree.get(gn) or _function_free(g, gn, sig, ffree, counter)):
                break
        else:
            if nodes[arg] != gn:
                break
            continue
        nodes.append(gn)
    else:
        counter[0] += n
        return nodes
    counter[0] += n
    return None


def find_redex(g: TermGraph, rules, sig: crs.Signature,
               rng=None, counter: Optional[list[int]] = None) -> Optional[Redex]:
    """Leftmost-innermost redex by default (post-order from the root), or a
    uniform random one with rng.  rules is a list of GraphRules or their
    compile_rules index.  Orthogonality makes the rule at a given anchor
    unique; that is asserted."""
    if counter is None:
        counter = [0]
    index = rules if isinstance(rules, dict) else compile_rules(rules)
    ffree: dict[int, bool] = {}
    found: list[Redex] = []
    for v in _post_order(g, g.root):
        counter[0] += 1
        lab = g.label[v]
        if lab is None or not sig.is_function(lab):
            continue
        hits = []
        for cr in _candidates(index, g, v, lab):
            nodes = _match(g, cr, v, sig, ffree, counter)
            if nodes is not None:
                hits.append(Redex(cr, nodes))
        assert len(hits) <= 1, f"orthogonality violated at node {v}"
        if hits:
            if rng is None:
                return hits[0]
            found.append(hits[0])
    if not found:
        return None
    return found[rng.randrange(len(found))]


def _build_phase(g: TermGraph, redex: Redex) -> tuple[int, list[int]]:
    """Copy the right-only nodes of the rule into g from the template.
    Returns the copy of the right root (or its image under the match when
    the right side is shared) and the nodes that gained an in-edge: the
    children of the copies, and the returned node, which the redirect
    points at."""
    cr = redex.compiled
    base = g._next
    g._next = base + len(cr.labels)
    ids = redex.nodes + list(range(base, g._next))
    label, succ, refs = g.label, g.succ, g.refs
    for v, lab in enumerate(cr.labels, base):
        label[v] = lab
        refs[v] = 0
    for v, kr in enumerate(cr.kids, base):
        kids = succ[v] = tuple([ids[r] for r in kr])
        for c in kids:
            refs[c] += 1
    return ids[cr.right], [ids[r] for r in cr.touched]


def _redirect_phase(g: TermGraph, target: int, replacement: int) -> None:
    """Point every in-edge of target, and the root if it is target, at
    replacement.  The in-edges are found by a scan of succ, which costs
    no more than the whole-graph find_redex that precedes a generic
    firing; this also serves a target with several in-edges, the shared
    function node of the sharing control."""
    succ, refs = g.succ, g.refs
    left = refs[target]
    refs[replacement] += left
    refs[target] = 0
    for u, kids in succ.items():
        if not left:
            break
        if target in kids:
            succ[u] = tuple([replacement if c == target else c for c in kids])
            left -= kids.count(target)
    if g.root == target:
        g.root = replacement


def _collect_phase(g: TermGraph, anchor: int) -> list[int]:
    """Reference-count collection after a redirect away from anchor: a
    node other than the root dies when its last in-edge leaves with a
    dead node, starting from the anchor.  Returns the dead nodes.  The
    graph is acyclic, so this removes exactly the unreachable nodes when
    every node was reachable before the step."""
    label, succ, refs, root = g.label, g.succ, g.refs, g.root
    dead: list[int] = []
    todo = [anchor] if not refs[anchor] and anchor != root else []
    while todo:
        v = todo.pop()
        dead.append(v)
        for c in succ[v]:
            n = refs[c] = refs[c] - 1
            if not n and c != root:
                todo.append(c)
        del label[v], succ[v], refs[v]
    return dead


def _collect_unreachable(g: TermGraph) -> list[int]:
    """Full reachability collection; returns the dead nodes."""
    live = g.reachable(g.root)
    dead = [v for v in g.label if v not in live]
    for v in dead:
        for c in g.succ[v]:
            if c in live:
                g.refs[c] -= 1
        del g.label[v], g.succ[v], g.refs[v]
    return dead


def fire_redex(g: TermGraph, redex: Redex) -> tuple[list[int], list[int]]:
    """Build, redirect, collect; mutates g in place.  Returns the nodes
    that gained an in-edge and the collected nodes."""
    replacement, touched = _build_phase(g, redex)
    _redirect_phase(g, redex.anchor, replacement)
    return touched, _collect_phase(g, redex.anchor)


def is_constructor_shared(g: TermGraph, sig: crs.Signature) -> bool:
    """Every node reachable along two distinct paths heads only constructor
    paths; checking in-degree >= 2 points suffices on a rooted DAG."""
    memo: dict[int, bool] = {}
    counter = [0]
    for v in g.reachable(g.root):
        if g.refs[v] >= 2:
            if not _function_free(g, v, sig, memo, counter):
                return False
    return True


OutcomeKind = Literal["normal", "exhausted"]


@dataclass
class GraphOutcome:
    kind: OutcomeKind
    graph: TermGraph
    steps: int
    sizes: list[int] = field(default_factory=list)  # node count, initial first
    work: list[int] = field(default_factory=list)   # nodes and match steps per search


def graph_reduce(g: TermGraph, grules: list[GraphRule], sig: crs.Signature,
                 budget: int = 10_000, rng=None) -> GraphOutcome:
    """Reduce a constructor-shared closed graph, leftmost-innermost by
    default or at uniformly random redexes with rng.

    The rules are compiled once per call (compile_rules).  The leftmost
    path is an innermost evaluation machine (_reduce_innermost) that never
    re-walks the graph from the root and fires in place; the random path
    searches the whole graph with find_redex on every step and fires
    through fire_redex.  Both collect by reference count from the old
    anchor; the first firing also runs a full reachability collection,
    which removes nodes of the input that were never reachable.  sizes
    holds the node count of the input and after every firing.  work
    holds, per search for a redex, the graph nodes and match steps it
    visited: one entry per firing, and one more for the last search when
    the run ends normal with steps < budget.  A rule that is tried runs as
    many match steps as a generic walk of its left side would, and the
    index skips the rules whose first pattern cannot match, so these
    entries can only be smaller than with every rule of the head tried.

    The input is checked for constructor-sharedness, and after every
    firing the nodes that gained an in-edge and now have in-degree >= 2
    are checked to be function-free; no other node can lose the property,
    since a redirect only rewires the parents of a function node, which
    are unshared.  The input check is what lets the machine redirect one
    slot: a reachable function node has at most one in-edge, the slot the
    descent came through.  A violation aborts the run since it indicates
    a bug, not an input error.
    """
    if not is_constructor_shared(g, sig):
        raise SharingViolation("input graph is not constructor-shared")
    index = compile_rules(grules)
    sizes = [g.node_count()]
    work: list[int] = []
    if rng is None:
        kind, steps = _reduce_innermost(g, index, sig, budget, sizes, work)
        return GraphOutcome(kind, g, steps, sizes, work)
    memo: dict[int, bool] = {}  # node -> function-free; dead nodes are dropped
    steps = 0
    while steps < budget:
        counter = [0]
        redex = find_redex(g, index, sig, rng=rng, counter=counter)
        work.append(counter[0])
        if redex is None:
            return GraphOutcome("normal", g, steps, sizes, work)
        steps += 1
        touched, dead = fire_redex(g, redex)
        if steps == 1:
            dead += _collect_unreachable(g)
        for v in dead:
            memo.pop(v, None)
        sizes.append(g.node_count())
        for v in touched:
            if g.refs[v] >= 2 and not _function_free(g, v, sig, memo, [0]):
                raise SharingViolation(f"sharedness lost after step {steps}")
    kind = "normal" if find_redex(g, index, sig) is None else "exhausted"
    return GraphOutcome(kind, g, steps, sizes, work)


def _reduce_innermost(g: TermGraph, index: RuleIndex, sig: crs.Signature, budget: int,
                      sizes: list[int], work: list[int]) -> tuple[OutcomeKind, int]:
    # Innermost evaluation machine, children left to right.  A frame
    # [node, i, values] says that the children of node before index i are
    # done and whether all of them are values (function-free).  value is
    # the memo of done nodes, True for a value and False for a stuck node;
    # a node in it is not descended again (shared constructor nodes, the
    # bindings in a right-hand side).  A node is decided once, when its
    # last child is done: a function node over values is matched and
    # fires, and the machine continues with the replacement; any other
    # node is a value when it is not a function node and all its children
    # are values, and stuck otherwise.  Constructor-sharedness makes the
    # function nodes a tree and leaves the shared nodes unchanged, so
    # post-order firing is find_redex's order, and the anchor's one
    # in-edge is g.succ[node][i] of the parent frame (none at the root).
    functions = sig.functions
    label, succ, refs = g.label, g.succ, g.refs
    value: dict[int, bool] = {}
    counter = [0]
    checked = [0]  # nodes visited by the sharing check, not part of work
    steps = 0
    stack: list[list] = []
    v = g.root
    while True:
        while True:
            counter[0] += 1
            val = value.get(v)
            if val is not None or not succ[v]:
                break
            stack.append([v, 0, True])
            v = succ[v][0]
        values = True
        while True:
            if val is None:
                lab = label[v]
                if lab in functions:
                    nodes = None
                    if values:
                        for cr in _candidates(index, g, v, lab):
                            nodes = _match(g, cr, v, sig, value, counter)
                            if nodes is not None:
                                break
                    if nodes is not None:
                        if steps == budget:
                            return "exhausted", steps
                        steps += 1
                        work.append(counter[0])
                        counter[0] = 0
                        # build: copies of the right-only nodes, the slots extended by their ids
                        base = g._next
                        g._next = top = base + len(cr.labels)
                        nodes.extend(range(base, top))
                        for u, ulab in enumerate(cr.labels, base):
                            label[u] = ulab
                            refs[u] = 0
                        for u, kr in enumerate(cr.kids, base):
                            kids = succ[u] = tuple([nodes[r] for r in kr])
                            for c in kids:
                                refs[c] += 1
                        new = nodes[cr.right]
                        # redirect the anchor's one in-edge
                        if stack:
                            parent, i = stack[-1][0], stack[-1][1]
                            kids = succ[parent]
                            succ[parent] = (*kids[:i], new, *kids[i + 1:])
                            refs[new] += 1
                            refs[v] -= 1
                        else:
                            g.root = new
                        # collect from the anchor and drop the dead from the memo; before
                        # the first step's full collection, an input node that was never
                        # reachable may still hold the anchor
                        root = g.root
                        todo = [v] if not refs[v] and v != root else []
                        while todo:
                            u = todo.pop()
                            value.pop(u, None)
                            for c in succ[u]:
                                n = refs[c] = refs[c] - 1
                                if not n and c != root:
                                    todo.append(c)
                            del label[u], succ[u], refs[u]
                        if steps == 1:
                            for u in _collect_unreachable(g):
                                value.pop(u, None)
                        sizes.append(len(label))
                        # the sharing check on the nodes that gained an in-edge
                        for r in cr.touched:
                            u = nodes[r]
                            if refs[u] >= 2 and not (value.get(u) or _function_free(
                                    g, u, sig, value, checked)):
                                raise SharingViolation(f"sharedness lost after step {steps}")
                        v = new
                        break
                    val = False
                else:
                    val = values
                value[v] = val
            if not stack:
                if steps < budget:
                    work.append(counter[0])
                return "normal", steps
            frame = stack[-1]
            if not val:
                frame[2] = False
            frame[1] += 1
            kids = succ[frame[0]]
            if frame[1] < len(kids):
                v = kids[frame[1]]
                break
            stack.pop()
            v, values, val = frame[0], frame[2], None


# --- comparison and export ------------------------------------------------------------

def to_dot(g: TermGraph, name: str = "g") -> str:
    """DOT export with stable node ordering (ascending ids)."""
    lines = [f"digraph {name} {{"]
    for v in g.nodes():
        lab = g.label[v] if g.label[v] is not None else "?"
        shape = ' shape="doublecircle"' if v == g.root else ""
        lines.append(f'  n{v} [label="{lab}"{shape}];')
    for v in g.nodes():
        for i, c in enumerate(g.succ[v]):
            lines.append(f'  n{v} -> n{c} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
