"""Term-graph rewriting with sharing.

Graphs are rooted DAGs with ordered out-edges and a partial labelling;
unlabelled nodes play the role of variables.  Each node carries only
its in-degree (TermGraph.refs), which is all that collection needs.
Firing a redex (_fire) builds a copy of the rule's right-only nodes,
redirects the in-edge of the matched root, then collects by reference
count: the old anchor dies with its last in-edge, and so does every
node whose in-edges all came from dead nodes.  Constructor-sharedness,
the invariant that every shared node heads only constructor paths, is
what keeps graph steps in bijection with term steps.  It also makes the
non-values (nodes with a function node at or below them) a tree, so the
anchor has one in-edge, a child slot, and the redirect rewrites it.

Each rule is compiled once per run (compile_rules) into a flat match
program, which fills numbered slots with graph nodes, and a build
template, which copies the right-only nodes with children taken from
the slots.  The compiled rules go into crs.first_arg_index, the index
the CRS engine uses too: a node tries only the rules of its head whose
first pattern can match its first child's label, in rule order.

graph_reduce has two policies.  The leftmost one is an innermost
evaluation machine: one descent from the root, each node decided once
when its children are done, firing in the post-order of find_redex.
The random one keeps the redexes in an indexed list in that order and
fires the entry an rng draw picks; a firing changes the list only at
that entry.  Neither walks the graph again after its first search, and
after the initial whole-graph check sharedness is checked only on the
nodes a firing gave a new in-edge, so a step costs the size of its
rule, as a CRS step does.  find_redex and fire_redex search and fire
one redex at a time, for the tests.
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
    from the left root, and the left root must not be: a replacement
    cannot hold the node it replaces.
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
        left_nodes, right_nodes = g.reachable(self.left), g.reachable(self.right)
        if self.left in right_nodes:
            raise GraphError("the right side reaches the left root")
        for v in right_nodes:
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
    """Compiled rules in crs.first_arg_index, keyed by (head, label of the
    first argument): the rules whose first pattern can match a node, in
    rule order."""
    return crs.first_arg_index(
        (gr.graph.label[gr.left], _first_label(gr.graph, gr.left), compile_rule(gr))
        for gr in grules)


def _first_label(g: TermGraph, v: int) -> Optional[str]:
    kids = g.succ[v]
    return g.label[kids[0]] if kids else None


def _candidates(index: RuleIndex, g: TermGraph, v: int, lab: str) -> list[CompiledRule]:
    return index.get((lab, _first_label(g, v))) or index.get((lab, None), [])


@dataclass
class Redex:
    compiled: CompiledRule
    nodes: list[int]  # the graph node in each match slot, the anchor first

    @property
    def anchor(self) -> int:
        return self.nodes[0]


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


def find_redex(g: TermGraph, rules, sig: crs.Signature) -> Optional[Redex]:
    """Leftmost-innermost redex: the first in post-order from the root.
    rules is a list of GraphRules or their compile_rules index.
    Orthogonality makes the rule at a given anchor unique; that is
    asserted.  graph_reduce never searches the whole graph; this is for
    the tests, and stays a module attribute as bench/tracer.py wraps it."""
    index = rules if isinstance(rules, dict) else compile_rules(rules)
    ffree: dict[int, bool] = {}
    for v in _post_order(g, g.root):
        lab = g.label[v]
        if lab is None or not sig.is_function(lab):
            continue
        hits = [Redex(cr, nodes) for cr in _candidates(index, g, v, lab)
                if (nodes := _match(g, cr, v, sig, ffree, [0])) is not None]
        assert len(hits) <= 1, f"orthogonality violated at node {v}"
        if hits:
            return hits[0]
    return None


def _first_match(index: RuleIndex, g: TermGraph, v: int, lab: str, sig: crs.Signature,
                 memo: dict[int, bool], counter: list[int]):
    # (compiled rule, slots) of the rule firing at v, or None
    for cr in _candidates(index, g, v, lab):
        nodes = _match(g, cr, v, sig, memo, counter)
        if nodes is not None:
            return cr, nodes
    return None


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


def fire_redex(g: TermGraph, redex: Redex, sig: crs.Signature) -> list[int]:
    """Fire redex through _fire as a first step, at every in-edge of the
    anchor, found by a scan of succ (a shared anchor has several).
    Returns the nodes that gained an in-edge, the replacement last.  For
    the tests; it stays a module attribute as bench/tracer.py wraps it."""
    v, nodes = redex.anchor, redex.nodes[:]
    slots = [(u, j, None) for u, kids in g.succ.items() for j, c in enumerate(kids) if c == v]
    _fire(g, redex.compiled, nodes, slots, 1, sig, {})
    return [nodes[r] for r in redex.compiled.touched]


def _fire(g: TermGraph, cr: CompiledRule, nodes: list[int], slots, steps: int,
          sig: crs.Signature, memo: dict[int, bool]) -> int:
    """Fire cr at the match slots nodes in place; return the replacement.
    Build: copy the right-only nodes from the template, their ids appended
    to nodes.  Redirect: point the anchor's in-edges, child i of parent
    for each [parent, i, _] in slots, and the root if it is the anchor, at
    the replacement.  Collect: a node other than the root dies when its
    last in-edge leaves with a dead node, starting from the anchor, which
    on an acyclic graph removes exactly what became unreachable; step 1
    also collects what never was reachable (it may hold the anchor).  The
    dead leave memo.  Last, the nodes that gained an in-edge are checked
    for sharedness."""
    label, succ, refs = g.label, g.succ, g.refs
    v = nodes[0]
    base = g._next
    g._next = top = base + len(cr.labels)
    nodes.extend(range(base, top))
    for u, lab in enumerate(cr.labels, base):
        label[u] = lab
        refs[u] = 0
    for u, kr in enumerate(cr.kids, base):
        kids = succ[u] = tuple([nodes[r] for r in kr])
        for c in kids:
            refs[c] += 1
    new = nodes[cr.right]
    for parent, i, _ in slots:
        kids = succ[parent]
        succ[parent] = (*kids[:i], new, *kids[i + 1:])
        refs[new] += 1
        refs[v] -= 1
    if g.root == v:
        g.root = new
    root = g.root
    todo = [v] if not refs[v] and v != root else []
    while todo:
        u = todo.pop()
        memo.pop(u, None)
        for c in succ[u]:
            n = refs[c] = refs[c] - 1
            if not n and c != root:
                todo.append(c)
        del label[u], succ[u], refs[u]
    if steps == 1:
        for u in _collect_unreachable(g):
            memo.pop(u, None)
    for r in cr.touched:
        u = nodes[r]
        if refs[u] >= 2 and not (memo.get(u) or _function_free(g, u, sig, memo, [0])):
            raise SharingViolation(f"sharedness lost after step {steps}")
    return new


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
    path is an innermost evaluation machine (_reduce_innermost), the
    random path an indexed redex list (_reduce_random); both fire in place
    through _fire.  sizes holds the node count of the input and after
    every firing.  work holds, per search for a redex, the graph nodes it
    arrived at and the match steps it ran: one entry per firing, and one
    more for the last search when the run ends normal with steps < budget.
    The first search walks the input; a later one visits only what the
    previous firing built and the rules it tries.

    The input is checked for constructor-sharedness, and after every
    firing the nodes that gained an in-edge and now have in-degree >= 2
    are checked to be function-free; no other node can lose the property,
    since a redirect only rewires the parent of a function node, which is
    unshared.  A violation aborts the run since it indicates a bug, not an
    input error.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if not is_constructor_shared(g, sig):
        raise SharingViolation("input graph is not constructor-shared")
    index = compile_rules(grules)
    sizes = [g.node_count()]
    work: list[int] = []
    if rng is None:
        kind, steps = _reduce_innermost(g, index, sig, budget, sizes, work)
    else:
        kind, steps = _reduce_random(g, index, sig, budget, rng, sizes, work)
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
    label, succ = g.label, g.succ
    value: dict[int, bool] = {}
    counter = [0]
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
                    hit = _first_match(index, g, v, lab, sig, value, counter) if values else None
                    if hit is not None:
                        if steps >= budget:
                            return "exhausted", steps
                        steps += 1
                        work.append(counter[0])
                        counter[0] = 0
                        cr, nodes = hit
                        v = _fire(g, cr, nodes, stack[-1:], steps, sig, value)
                        sizes.append(len(label))
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


def _reduce_random(g: TermGraph, index: RuleIndex, sig: crs.Signature, budget: int, rng,
                   sizes: list[int], work: list[int]) -> tuple[OutcomeKind, int]:
    # The random policy over an indexed redex list.  value is the memo of
    # the values (True); every other reachable node is in up as [parent,
    # index there, number of non-value children], its one in-edge being
    # succ[parent][index] (parent None at the root).  reds holds the
    # redexes (anchor, compiled rule, slots) in find_redex's post-order,
    # left to right in the tree of non-values.  Firing reds[k] changes the
    # list only at k: it becomes the redexes among the new nodes or, when
    # the replacement is a value, the first function ancestor that
    # value-ness reaches through constructor nodes, if that now matches.
    # A node becomes a value once, so this climb is O(1) amortised.
    value: dict[int, bool] = {}
    up: dict[int, list] = {}
    counter = [0]
    reds: list[tuple] = []
    _decide(g, index, sig, g.root, None, 0, value, up, reds, counter)
    steps = 0
    while reds:
        if steps >= budget:
            return "exhausted", steps
        k = rng.randrange(len(reds))
        v, cr, nodes = reds[k]
        steps += 1
        work.append(counter[0])
        counter[0] = 0
        slot = up.pop(v)
        new = _fire(g, cr, nodes, (slot,) if slot[0] is not None else (), steps, sig, value)
        sizes.append(len(g.label))
        block: list[tuple] = []
        _decide(g, index, sig, new, slot[0], slot[1], value, up, block, counter)
        reds[k:k + 1] = block
    if steps < budget:
        work.append(counter[0])
    return "normal", steps


def _decide(g: TermGraph, index: RuleIndex, sig: crs.Signature, v: int, parent: Optional[int],
            i: int, value: dict[int, bool], up: dict[int, list], reds: list[tuple],
            counter: list[int]) -> None:
    # Decide v, whose in-edge is slot i of parent, and its undecided
    # descendants for the random policy, children first.  A node over
    # values is a value unless it is a function node; every other node
    # goes into up, and a function node over values that matches is
    # appended to reds.  If v is a value, its parent has one non-value
    # child fewer, and a parent left with none is decided in turn.
    # A frame is [node, in-edge parent, index, next child, non-value
    # children].  counter gains one per node arrived at, plus the match
    # steps; like the machine's ascent, the climb is not counted.
    counter[0] += 1
    functions, label, succ = sig.functions, g.label, g.succ
    stack = [] if value.get(v) else [[v, parent, i, 0, 0]]
    while stack:
        frame = stack[-1]
        u, p, j, nxt, pending = frame
        kids = succ[u]
        if nxt < len(kids):
            frame[3] = nxt + 1
            counter[0] += 1
            if not value.get(kids[nxt]):
                stack.append([kids[nxt], u, nxt, 0, 0])
            continue
        stack.pop()
        lab = label[u]
        if lab in functions:
            hit = None if pending else _first_match(index, g, u, lab, sig, value, counter)
            if hit is not None:
                reds.append((u, *hit))
        elif not pending:
            value[u] = True
            continue
        up[u] = [p, j, pending]
        if stack:
            stack[-1][4] += 1
    if v not in value:
        return
    while parent is not None:
        info = up[parent]
        info[2] -= 1
        if info[2]:
            break
        lab = label[parent]
        if lab in functions:
            hit = _first_match(index, g, parent, lab, sig, value, counter)
            if hit is not None:
                reds.append((parent, *hit))
            break
        del up[parent]
        value[parent] = True
        parent = info[0]


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
