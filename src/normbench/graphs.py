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

graph_reduce runs an innermost evaluation machine: one descent from the
root, each node decided once when its children are done, firing in the
leftmost-innermost order of find_redex, which stays as the whole-graph
search of the random policy and the reference.  After the initial
whole-graph check, sharedness is checked only on the nodes a firing gave
a new in-edge, so no step after the first walks the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

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


def unfold_size(g: TermGraph, start: Optional[int] = None) -> int:
    """Size of the term the graph unfolds to (shared parts count repeatedly)."""
    start = g.root if start is None else start
    memo: dict[int, int] = {}
    for v in _post_order(g, start):
        memo[v] = 1 + sum(memo[c] for c in g.succ[v])
    return memo[start]


def graph_to_term(g: TermGraph, max_size: int = 10_000) -> crs.Term:
    """Unfold the graph to a term; exponential in the worst case, so a size
    guard refuses beyond max_size nodes."""
    if not g.is_closed():
        unlab = [v for v, l in g.label.items() if l is None]
        raise UnlabelledNode(f"nodes {unlab} are unlabelled")
    total = unfold_size(g)
    if total > max_size:
        raise UnfoldTooLarge(total, max_size)
    memo: dict[int, crs.Term] = {}
    for v in _post_order(g, g.root):
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


@dataclass
class Redex:
    rule: GraphRule
    phi: dict[int, int]  # rule node -> graph node, on the left subgraph

    @property
    def anchor(self) -> int:
        return self.phi[self.rule.left]


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


def _try_match(g: TermGraph, grule: GraphRule, anchor: int, sig: crs.Signature,
               ffree: dict[int, bool], counter: list[int]) -> Optional[dict[int, int]]:
    rg = grule.graph
    phi: dict[int, int] = {}
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
            if not _function_free(g, gn, sig, ffree, counter):
                return None
            phi[rn] = gn
            continue
        if g.label[gn] != lab:
            return None
        phi[rn] = gn
        todo.extend(zip(rg.succ[rn], g.succ[gn]))
    return phi


def _by_symbol(grules: list[GraphRule]) -> dict[str, list[GraphRule]]:
    by_symbol: dict[str, list[GraphRule]] = {}
    for gr in grules:
        by_symbol.setdefault(gr.graph.label[gr.left], []).append(gr)
    return by_symbol


def find_redex(g: TermGraph, grules: list[GraphRule], sig: crs.Signature,
               rng=None, counter: Optional[list[int]] = None) -> Optional[Redex]:
    """Leftmost-innermost redex by default (post-order from the root), or a
    uniform random one with rng.  Orthogonality makes the rule at a given
    anchor unique; that is asserted."""
    if counter is None:
        counter = [0]
    by_symbol = _by_symbol(grules)
    ffree: dict[int, bool] = {}
    found: list[Redex] = []
    for v in _post_order(g, g.root):
        counter[0] += 1
        lab = g.label[v]
        if lab is None or not sig.is_function(lab):
            continue
        hits = []
        for gr in by_symbol.get(lab, []):
            phi = _try_match(g, gr, v, sig, ffree, counter)
            if phi is not None:
                hits.append(Redex(gr, phi))
        assert len(hits) <= 1, f"orthogonality violated at node {v}"
        if hits:
            if rng is None:
                return hits[0]
            found.append(hits[0])
    if not found:
        return None
    return found[rng.randrange(len(found))]


def _build_phase(g: TermGraph, redex: Redex) -> tuple[int, list[int]]:
    """Copy the right-side-only portion into g.  Returns the copy of the
    right root (or its image under phi when the right side is shared) and
    the nodes that gained an in-edge: the children of the copies, and the
    returned node, which the redirect points at."""
    rg = redex.rule.graph
    left_nodes = rg.reachable(redex.rule.left)
    right_nodes = rg.reachable(redex.rule.right)
    fresh = [v for v in sorted(right_nodes) if v not in left_nodes]
    copy: dict[int, int] = {}
    for v in fresh:
        assert rg.label[v] is not None, "unlabelled node outside the left side"
        copy[v] = g.new_node(rg.label[v])
    touched: list[int] = []
    for v in fresh:
        kids = tuple(copy[c] if c in copy else redex.phi[c] for c in rg.succ[v])
        g.set_children(copy[v], kids)
        touched.extend(kids)
    r = redex.rule.right
    replacement = copy[r] if r in copy else redex.phi[r]
    touched.append(replacement)
    return replacement, touched


def _redirect_phase(g: TermGraph, target: int, replacement: int) -> None:
    for parent, idx in list(g.preds[target]):
        kids = list(g.succ[parent])
        kids[idx] = replacement
        g.set_children(parent, tuple(kids))
    if g.root == target:
        g.root = replacement


def _collect_phase(g: TermGraph, anchor: int) -> list[int]:
    """Reference-count collection after a redirect away from anchor: a
    node other than the root dies when its last in-edge leaves with a
    dead node, starting from the anchor.  Returns the dead nodes.  The
    graph is acyclic, so this removes exactly the unreachable nodes when
    every node was reachable before the step."""
    dead: list[int] = []
    todo = [anchor] if not g.preds[anchor] and anchor != g.root else []
    while todo:
        v = todo.pop()
        dead.append(v)
        for i, c in enumerate(g.succ[v]):
            preds = g.preds[c]
            preds.discard((v, i))
            if not preds and c != g.root:
                todo.append(c)
        del g.label[v], g.succ[v], g.preds[v]
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
    work: list[int] = field(default_factory=list)   # nodes visited per search


def graph_reduce(g: TermGraph, grules: list[GraphRule], sig: crs.Signature,
                 budget: int = 10_000, rng=None, check_shared: bool = True,
                 on_step=None) -> GraphOutcome:
    """Reduce a constructor-shared closed graph, leftmost-innermost by
    default or at uniformly random redexes with rng.

    The leftmost path is an innermost evaluation machine (_reduce_innermost)
    that never re-walks the graph from the root; the random path searches
    the whole graph with find_redex on every step.  Both fire through
    fire_redex, which collects by reference count from the old anchor; the
    first firing also runs a full reachability collection, which removes
    nodes of the input that were never reachable.  sizes holds the node
    count of the input and after every firing.  work holds, per search
    for a redex, the graph and rule nodes it visited: one entry per firing,
    and one more for the last search when the run ends normal with
    steps < budget.  With check_shared, the input is checked for
    constructor-sharedness and, after every firing, the nodes that gained
    an in-edge and now have in-degree >= 2 are checked to be function-free;
    no other node can lose the property, since a redirect only rewires the
    parents of a function node, which are unshared.  A violation aborts
    the run since it indicates a bug, not an input error.
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
        if on_step is not None:
            on_step(g, steps)

    if rng is None:
        kind, steps = _reduce_innermost(g, _by_symbol(grules), sig, budget,
                                        memo, fire, work)
        return GraphOutcome(kind, g, steps, sizes, work)
    steps = 0
    while steps < budget:
        counter = [0]
        redex = find_redex(g, grules, sig, rng=rng, counter=counter)
        work.append(counter[0])
        if redex is None:
            return GraphOutcome("normal", g, steps, sizes, work)
        steps += 1
        fire(redex, steps)
    kind = "normal" if find_redex(g, grules, sig) is None else "exhausted"
    return GraphOutcome(kind, g, steps, sizes, work)


def _reduce_innermost(g: TermGraph, by_symbol: dict[str, list[GraphRule]],
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
    counter = [0]
    steps = 0
    stack: list[list] = []
    v = g.root
    while True:
        while True:
            counter[0] += 1
            val = value.get(v)
            if val is not None or not g.succ[v]:
                break
            stack.append([v, 0, True])
            v = g.succ[v][0]
        values = True
        while True:
            if val is None:
                lab = g.label[v]
                if lab in functions:
                    hit = None
                    if values:
                        for gr in by_symbol.get(lab, ()):
                            phi = _try_match(g, gr, v, sig, value, counter)
                            if phi is not None:
                                hit = Redex(gr, phi)
                                break
                    if hit is not None:
                        if steps == budget:
                            return "exhausted", steps
                        steps += 1
                        work.append(counter[0])
                        counter[0] = 0
                        fire(hit, steps)
                        v = g.succ[stack[-1][0]][stack[-1][1]] if stack else g.root
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
            kids = g.succ[frame[0]]
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
