"""Term-graph rewriting with sharing.

Graphs are rooted DAGs with ordered out-edges and a partial labelling;
unlabelled nodes play the role of variables.  Firing a redex runs three
phases: build an isomorphic copy of the rule's right-hand portion,
redirect every edge into the matched root (and the graph root if needed),
then collect by reference count: the old anchor dies with its last
in-edge, and so does every node whose in-edges all came from dead nodes.
Constructor-sharedness, the invariant that every shared node heads only
constructor paths, is what keeps graph steps in bijection with term
steps.

Each rule is compiled once per run (compile_rules) into a flat match
program, which fills numbered slots with graph nodes, and a build
template, which copies the right-only nodes with children taken from
the slots.  Rules are indexed by head and the label of the first
argument, so a node tries only the rules whose first pattern can match
it.  The anchor is a function node, hence unshared, so the redirect
changes one child slot.  A firing thus costs the size of its rule, as a
CRS step does, and not that of the rule graph walked again.

graph_reduce runs an innermost evaluation machine: one descent from the
root, each node decided once when its children are done, firing in the
leftmost-innermost order of find_redex, which stays as the whole-graph
search of the random policy and the reference.  Both use the one
matcher, _match.  After the initial whole-graph check, sharedness is
checked only on the nodes a firing gave a new in-edge, so no step after
the first walks the whole graph.
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
    """Mutable rooted labelled graph; nodes are ints from a local counter."""

    def __init__(self):
        self.label: dict[int, Optional[str]] = {}
        self.succ: dict[int, tuple[int, ...]] = {}
        self.preds: dict[int, set[tuple[int, int]]] = {}
        self.root: int = -1
        self._next = 0

    def new_node(self, label: Optional[str]) -> int:
        v = self._next
        self._next += 1
        self.label[v] = label
        self.succ[v] = ()
        self.preds[v] = set()
        return v

    def set_children(self, v: int, children: tuple[int, ...]) -> None:
        for i, c in enumerate(self.succ[v]):
            self.preds[c].discard((v, i))
        self.succ[v] = children
        for i, c in enumerate(children):
            self.preds[c].add((v, i))

    def nodes(self) -> list[int]:
        return sorted(self.label)

    def node_count(self) -> int:
        return len(self.label)

    def in_degree(self, v: int) -> int:
        return len(self.preds[v])

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

    def copy(self) -> "TermGraph":
        g = TermGraph()
        g.label = dict(self.label)
        g.succ = dict(self.succ)
        g.preds = {v: set(ps) for v, ps in self.preds.items()}
        g.root = self.root
        g._next = self._next
        return g

    def check_acyclic(self) -> None:
        state: dict[int, int] = {}
        for start in self.label:
            if state.get(start):
                continue
            stack = [(start, 0)]
            state[start] = 1
            while stack:
                v, i = stack[-1]
                if i < len(self.succ[v]):
                    stack[-1] = (v, i + 1)
                    c = self.succ[v][i]
                    st = state.get(c, 0)
                    if st == 1:
                        raise GraphError("cycle detected")
                    if st == 0:
                        state[c] = 1
                        stack.append((c, 0))
                else:
                    state[v] = 2
                    stack.pop()


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


def unfold_size(g: TermGraph, start: Optional[int] = None) -> int:
    """Size of the term the graph unfolds to (shared parts count repeatedly)."""
    start = g.root if start is None else start
    return _unfold_sizes(g, _post_order(g, start))[start]


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
    len(slots) + k for the copy of the k-th right-only node.
    """

    rule: GraphRule
    match: tuple[tuple[int, int, int, object], ...]
    slots: tuple[int, ...]               # the rule node of each slot
    labels: tuple[str, ...]              # of the right-only nodes
    kids: tuple[tuple[int, ...], ...]    # of the right-only nodes
    right: int


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
    return CompiledRule(gr, tuple(match), tuple(slot), tuple(rg.label[v] for v in fresh),
                        tuple(tuple(ref[c] for c in rg.succ[v]) for v in fresh),
                        ref[gr.right])


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
    label, succ, preds = g.label, g.succ, g.preds
    for v, lab in enumerate(cr.labels, base):
        label[v] = lab
        preds[v] = set()
    touched: list[int] = []
    for v, refs in enumerate(cr.kids, base):
        kids = tuple([ids[r] for r in refs])
        succ[v] = kids
        for i, c in enumerate(kids):
            preds[c].add((v, i))
        touched += kids
    replacement = ids[cr.right]
    touched.append(replacement)
    return replacement, touched


def _redirect_phase(g: TermGraph, target: int, replacement: int) -> None:
    """Point each in-edge of target, and the root if it is target, at
    replacement, one child slot per edge.  An anchor is a function node,
    which constructor-sharedness leaves with one in-edge at most."""
    preds = g.preds[target]
    for parent, i in preds:
        kids = g.succ[parent]
        g.succ[parent] = kids[:i] + (replacement,) + kids[i + 1:]
    g.preds[replacement] |= preds
    preds.clear()
    if g.root == target:
        g.root = replacement


def _collect_phase(g: TermGraph, anchor: int) -> list[int]:
    """Reference-count collection after a redirect away from anchor: a
    node other than the root dies when its last in-edge leaves with a
    dead node, starting from the anchor.  Returns the dead nodes.  The
    graph is acyclic, so this removes exactly the unreachable nodes when
    every node was reachable before the step."""
    label, succ, preds, root = g.label, g.succ, g.preds, g.root
    dead: list[int] = []
    todo = [anchor] if not preds[anchor] and anchor != root else []
    while todo:
        v = todo.pop()
        dead.append(v)
        for i, c in enumerate(succ[v]):
            in_edges = preds[c]
            in_edges.discard((v, i))
            if not in_edges and c != root:
                todo.append(c)
        del label[v], succ[v], preds[v]
    return dead


def _collect_unreachable(g: TermGraph) -> list[int]:
    """Full reachability collection; returns the dead nodes."""
    live = g.reachable(g.root)
    dead = [v for v in g.label if v not in live]
    for v in dead:
        for i, c in enumerate(g.succ[v]):
            if c in live:
                g.preds[c].discard((v, i))
        del g.label[v], g.succ[v], g.preds[v]
    return dead


def fire_redex(g: TermGraph, redex: Redex) -> tuple[list[int], list[int]]:
    """Build, redirect, collect; mutates g in place.  Returns the nodes
    that gained an in-edge and the collected nodes."""
    replacement, touched = _build_phase(g, redex)
    _redirect_phase(g, redex.anchor, replacement)
    return touched, _collect_phase(g, redex.anchor)


def fire_redex_phases(g: TermGraph, redex: Redex) -> list[TermGraph]:
    """Snapshots after each phase (build, redirect, collect)."""
    replacement, _ = _build_phase(g, redex)
    after_build = g.copy()
    _redirect_phase(g, redex.anchor, replacement)
    after_redirect = g.copy()
    _collect_phase(g, redex.anchor)
    return [after_build, after_redirect, g.copy()]


def is_constructor_shared(g: TermGraph, sig: crs.Signature) -> bool:
    """Every node reachable along two distinct paths heads only constructor
    paths; checking in-degree >= 2 points suffices on a rooted DAG."""
    memo: dict[int, bool] = {}
    counter = [0]
    for v in g.reachable(g.root):
        if g.in_degree(v) >= 2:
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
                 budget: int = 10_000, rng=None, check_shared: bool = True) -> GraphOutcome:
    """Reduce a constructor-shared closed graph, leftmost-innermost by
    default or at uniformly random redexes with rng.

    The rules are compiled once per call (compile_rules).  The leftmost
    path is an innermost evaluation machine (_reduce_innermost) that never
    re-walks the graph from the root; the random path searches the whole
    graph with find_redex on every step.  Both fire through fire_redex,
    which collects by reference count from the old anchor; the first
    firing also runs a full reachability collection, which removes nodes
    of the input that were never reachable.  sizes holds the node count
    of the input and after every firing.  work holds, per search for a
    redex, the graph nodes and match steps it visited: one entry per
    firing, and one more for the last search when the run ends normal
    with steps < budget.  A rule that is tried runs as many match steps
    as a generic walk of its left side would, and the index skips the
    rules whose first pattern cannot match, so these entries can only be
    smaller than with every rule of the head tried.

    With check_shared, the input is checked for constructor-sharedness
    and, after every firing, the nodes that gained an in-edge and now have
    in-degree >= 2 are checked to be function-free; no other node can
    lose the property, since a redirect only rewires the parents of a
    function node, which are unshared.  A violation aborts the run since
    it indicates a bug, not an input error.
    """
    if check_shared and not is_constructor_shared(g, sig):
        raise SharingViolation("input graph is not constructor-shared")
    sizes = [g.node_count()]
    work: list[int] = []
    memo: dict[int, bool] = {}  # node -> function-free; dead nodes are dropped

    def fire(redex: Redex, steps: int) -> None:
        touched, dead = fire_redex(g, redex)
        if steps == 1:
            dead += _collect_unreachable(g)
        for v in dead:
            memo.pop(v, None)
        sizes.append(g.node_count())
        if check_shared:
            counter = [0]
            for v in touched:
                if len(g.preds[v]) >= 2 and not _function_free(g, v, sig, memo, counter):
                    raise SharingViolation(f"sharedness lost after step {steps}")

    index = compile_rules(grules)
    if rng is None:
        kind, steps = _reduce_innermost(g, index, sig, budget, memo, fire, work)
        return GraphOutcome(kind, g, steps, sizes, work)
    steps = 0
    while steps < budget:
        counter = [0]
        redex = find_redex(g, index, sig, rng=rng, counter=counter)
        work.append(counter[0])
        if redex is None:
            return GraphOutcome("normal", g, steps, sizes, work)
        steps += 1
        fire(redex, steps)
    kind = "normal" if find_redex(g, index, sig) is None else "exhausted"
    return GraphOutcome(kind, g, steps, sizes, work)


def _reduce_innermost(g: TermGraph, index: RuleIndex,
                      sig: crs.Signature, budget: int, value: dict[int, bool],
                      fire, work: list[int]) -> tuple[OutcomeKind, int]:
    # Innermost evaluation machine, children left to right.  A frame
    # [node, i, values] says that the children of node before index i are
    # done and whether all of them are values (function-free).  value is
    # the memo of done nodes, True for a value and False for a stuck node;
    # a node in it is not descended again (shared constructor nodes, the
    # bindings in a right-hand side).  A node is decided once, when its
    # last child is done: a function node over values is matched and
    # fires, and the machine continues with the replacement, which the
    # redirect put at g.succ[node][i] of the parent frame (or at g.root);
    # any other node is a value when it is not a function node and all
    # its children are values, and stuck otherwise.  Constructor-
    # sharedness makes the function nodes a tree and leaves the shared
    # nodes unchanged, so post-order firing is find_redex's order.
    functions = sig.functions
    label, succ = g.label, g.succ
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
                    hit = None
                    if values:
                        for cr in _candidates(index, g, v, lab):
                            nodes = _match(g, cr, v, sig, value, counter)
                            if nodes is not None:
                                hit = Redex(cr, nodes)
                                break
                    if hit is not None:
                        if steps == budget:
                            return "exhausted", steps
                        steps += 1
                        work.append(counter[0])
                        counter[0] = 0
                        fire(hit, steps)
                        v = succ[stack[-1][0]][stack[-1][1]] if stack else g.root
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

def isomorphic(g1: TermGraph, g2: TermGraph) -> bool:
    """Rooted isomorphism; ordered children make this one traversal."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    todo = [(g1.root, g2.root)]
    while todo:
        a, b = todo.pop()
        if a in fwd or b in bwd:
            if fwd.get(a) != b or bwd.get(b) != a:
                return False
            continue
        if g1.label[a] != g2.label[b] or len(g1.succ[a]) != len(g2.succ[b]):
            return False
        fwd[a] = b
        bwd[b] = a
        todo.extend(zip(g1.succ[a], g2.succ[b]))
    return len(fwd) == len(g1.reachable(g1.root)) == len(g2.reachable(g2.root))


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
