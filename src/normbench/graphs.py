"""Term-graph rewriting with sharing.

Graphs are rooted DAGs with ordered out-edges and a partial labelling;
a term needs every reachable node labelled.  A TermGraph keeps its
nodes in id-keyed dicts: label, succ and refs, the in-degree, which is
all that collection needs.  Constructor-sharedness, the invariant that
every shared node heads only constructor paths, is what keeps graph
steps in bijection with term steps.  It also makes the non-values
(nodes with a function node at or below them) a tree, so a redex's
anchor has one in-edge, a child slot, and the firing redirects it.

The rules are those of a CrsSystem, which has checked and compiled
them, and graph reduction runs that compile: a node tries the rules of
its head that the system's first-argument index offers, in rule order,
with each rule's match program of (slot, constructor) steps.  A firing
copies every node of the right side from the rule's build template
(_template), whose variables read the program's slots; a template is
compiled on its rule's first firing and kept on the system.

graph_reduce runs on linked node records alone and writes the dicts
back once.  One post-order walk (_load) makes, checks against the
signature and decides for the first search the records of a closed
term, one per symbol occurrence, or of a TermGraph's reachable nodes;
a graph input with a shared non-value then fails the sharing check.
graph_reduce keeps the redexes in an indexed list, fires one in place
(build, redirect, collection by reference count) and searches only the
nodes the firing built, so a step costs the size of its rule, as a CRS
step does.  find_redex, fire_redex, which fires on the dicts, and
is_constructor_shared, for the tests, read the same records and run
the same programs and templates.
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


def _post_order(g: TermGraph, start: int) -> dict[int, int]:
    """Nodes reachable from start, each once at its leftmost occurrence,
    children left to right before their parent, each with the size of
    the term it unfolds to."""
    succ = g.succ
    sizes: dict[int, int] = {}
    size = sizes.__getitem__
    seen: set[int] = set()
    todo: list = [start]
    while todo:
        v = todo.pop()
        if v is None:                   # the node below, once its children are done
            v = todo.pop()
            sizes[v] = 1 + sum(map(size, succ[v]))
        elif v not in seen:
            seen.add(v)
            todo += (v, None, *reversed(succ[v]))
    return sizes


def graph_to_term(g: TermGraph, max_size: int = 10_000) -> crs.Term:
    """Unfold the graph to a term; exponential in the worst case, so a size
    guard refuses beyond max_size nodes before anything is built.  One
    post-order walk serves the guard and the build; every reachable node
    must be labelled."""
    sizes = _post_order(g, g.root)
    label, succ = g.label, g.succ
    if None in map(label.__getitem__, sizes):
        raise UnlabelledNode(f"nodes {[v for v in sizes if label[v] is None]} are unlabelled")
    if sizes[g.root] > max_size:
        raise UnfoldTooLarge(sizes[g.root], max_size)
    memo: dict[int, crs.Term] = {}
    term = memo.__getitem__
    for v in sizes:
        memo[v] = crs.Node(label[v], tuple(map(term, succ[v])))
    return memo[g.root]


# --- build templates -------------------------------------------------------------------

class Template(NamedTuple):
    """How a firing of a rule of a checked system builds its right side.

    The right side's nodes, its copies, are listed in post-order, so
    their ids come in that order; each is (label, kids, function?,
    positions of the kids that are copies).  A kid, and the right root,
    is a reference: a slot of the system's match program for the rule,
    or slots + k for the k-th copy.  work counts the walk that decides
    the copies: the replacement and the child slots of the copies.
    """

    copies: tuple[tuple[str, tuple[int, ...], bool, tuple[int, ...]], ...]
    right: int
    work: int


def _template(system: crs.CrsSystem, r: int) -> Template:
    """The template of rule r of system, compiled on its first use and
    kept on the system: one post-order walk of the right side, whose
    variables read the slots that the rule's match program binds."""
    tpl = system._graph_templates[r]
    if tpl is not None:
        return tpl
    rule = system.rules[r]
    steps, slot_of = system._programs[r]
    cons, functions = system.signature.constructors, system.signature.functions
    n = len(rule.lhs) + sum(cons[c] for _, c in steps)
    copies: list[tuple] = []
    refs: list[int] = []
    todo: list = [rule.rhs]
    while todo:
        t = todo.pop()
        if t is None:                   # the node below, once its children are done
            t = todo.pop()
            k = len(refs) - len(t.children)
            kr = tuple(refs[k:])
            del refs[k:]
            copies.append((t.symbol, kr, t.symbol in functions,
                           tuple(j for j, c in enumerate(kr) if c >= n)))
            refs.append(n + len(copies) - 1)
        elif type(t) is crs.Var:
            refs.append(slot_of[t.name])
        else:
            todo += (t, None, *reversed(t.children))
    tpl = system._graph_templates[r] = Template(
        tuple(copies), refs[0], 1 + sum(len(c[1]) for c in copies))
    return tpl


@dataclass
class Redex:
    anchor: int
    template: Template  # of the rule that matches there
    slots: list[int]    # the graph node in each slot of the rule's match program


def find_redex(g: TermGraph, system: crs.CrsSystem) -> Optional[Redex]:
    """Leftmost-innermost redex under system's rules: the first function
    node over values in post-order from the root at which a rule's match
    program matches on the records _load makes of g.  Orthogonality
    makes the rule at a given anchor unique; that is asserted.  A
    signature fault raises as in graph_reduce; sharing is not checked.
    For the tests: graph_reduce never searches the whole graph.  It
    stays a module attribute as bench/tracer.py wraps it."""
    index, programs = system._index, system._programs
    for u in _load(g, system.signature)[1]:
        lab, kids = u[0], u[1]
        hits = []
        for r in index.get((lab, kids[0][0] if kids else None)) or index.get((lab, None), ()):
            slots = kids[:]
            for s, c in programs[r][0]:
                t = slots[s]
                if t[0] != c:
                    break
                slots += t[1]
            else:
                hits.append(Redex(u[3], _template(system, r), [t[3] for t in slots]))
        assert len(hits) <= 1, f"orthogonality violated at node {u[3]}"
        if hits:
            return hits[0]
    return None


def fire_redex(g: TermGraph, redex: Redex, sig: crs.Signature) -> list[int]:
    """Fire redex on g's dicts as a first step: copy the right side's
    nodes, point every in-edge of the anchor (a shared anchor has
    several) and the root if it is the anchor at the replacement, load
    the result (_load, which raises a signature fault as graph_reduce
    does), keep the reachable nodes (_write_back) and check that no node
    that gained an in-edge, the children of each copy and then the
    replacement, is a shared non-value.  Returns those nodes.  For the
    tests; it stays a module attribute as bench/tracer.py wraps it."""
    tpl, v = redex.template, redex.anchor
    nodes = redex.slots + [g.new_node(c[0]) for c in tpl.copies]
    n = len(redex.slots)
    for u, c in zip(nodes[n:], tpl.copies):
        g.set_children(u, tuple([nodes[r] for r in c[1]]))
    new = nodes[tpl.right]
    for u, kids in list(g.succ.items()):
        if v in kids:
            g.set_children(u, tuple([new if c == v else c for c in kids]))
    if g.root == v:
        g.root = new
    root, _, _, rec = _load(g, sig)
    _write_back(g, root, g._next)
    touched = [nodes[r] for c in tpl.copies for r in c[1]] + [new]
    if any(rec[u][2] > 1 and not rec[u][4] for u in touched):
        raise SharingViolation("sharedness lost after step 1")
    return touched


def is_constructor_shared(g: TermGraph, sig: crs.Signature) -> bool:
    """Every node reachable along two distinct paths heads only constructor
    paths, so it is a value; on a rooted DAG it suffices to check the
    nodes with two in-edges from reachable nodes (an unreachable node is
    no path), on the records _load makes of g.  A signature fault raises
    as in graph_reduce."""
    return all(u[2] < 2 or u[4] for u in _load(g, sig)[3].values())


OutcomeKind = Literal["normal", "exhausted"]


@dataclass
class GraphOutcome:
    kind: OutcomeKind
    graph: TermGraph
    steps: int
    sizes: list[int] = field(default_factory=list)  # node count, initial first
    work: list[int] = field(default_factory=list)   # nodes and match steps per search
    fires: tuple[int, ...] = ()                     # firings per rule position


def graph_reduce(g: TermGraph | crs.Term, system: crs.CrsSystem, budget: int = 10_000,
                 rng=None) -> GraphOutcome:
    """Reduce a closed term or a constructor-shared closed graph,
    leftmost-innermost by default or at uniformly random redexes with rng.

    The input becomes linked node records in one post-order walk (_load)
    that also checks and decides them.  A term gets one record per symbol
    occurrence, even where Node objects are shared, with the id
    term_to_graph gives it, so the run is that of
    graph_reduce(term_to_graph(g), ...); its records are written into a
    new TermGraph, the outcome's graph, also after 0 steps.  A TermGraph
    gets one record per node reachable from the root, with its own id,
    and a run of one step or more writes label, succ, refs, root and
    _next back into g once (_write_back); a run of 0 steps leaves g
    untouched.

    A record's value is True for a value; every other record has its one
    in-edge, kids[index] of its parent (None at the root), and pending,
    its non-value children.  The parent is cleared when a record becomes
    a value or dies.

    The loop alternates a search and a firing.  A search tries the
    function records over values that the last firing made, or at the
    start all of them (_load), in post-order: each tries the rules of
    the system's first-argument index in rule order, running a rule's
    match program (system._programs) on the records, and the first that
    matches gives a redex (anchor, rule position, slots).  Every record
    below a value is a value, so a binding needs no check that it is
    function-free.  reds holds the redexes in post-order, reversed so
    that the leftmost-innermost one is last; a search's redexes take the
    place of the entry that fired.  A firing takes that last entry, or
    with rng the entry that reds[rng.randrange(len(reds))] would be in
    post-order.  It builds, links and decides each copy of the rule's
    template (_template) in one pass, redirects the anchor's in-edge,
    collects by reference count from the anchor (refs count only
    in-edges from reachable nodes, so this removes exactly what became
    unreachable, at step 1 also what never was), and, when the
    replacement is a value, climbs to the first function ancestor that
    value-ness reaches through constructor nodes, which the next search
    tries.  A node becomes a value once, so this climb is O(1) amortised,
    and a step costs the size of its rule.

    sizes holds the node count of the input and after every firing, and
    fires the firings of each rule position.  work holds, per search,
    the graph nodes it arrived at and the match steps it ran: one entry
    per firing, and one more for the last search when the run ends
    normal with steps < budget.  The first search arrives at the root and
    every child slot of the input; a later one at the replacement and the
    child slots of the copies.  Each rule tried costs one step for its
    anchor and one per (slot, constructor) step it runs.

    A term with a variable, or a graph with a cycle, raises GraphError.
    Else the first reachable input node in post-order whose label the
    system's signature does not declare (or that has none), or whose
    child count is not its arity, raises crs.UnknownSymbol or
    crs.ArityMismatch.  Only then is a graph input checked for
    constructor-sharedness: a record with two in-edges must be a value,
    which on well-formed records is a function-free node.  Every firing
    checks that no node it gives a second in-edge is a non-value; no
    other node can lose the property, since a redirect only rewires the
    parent of a function node, which is unshared.  A violation raises
    SharingViolation, since it indicates a bug, not an input error.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    sig = system.signature
    functions = sig.functions
    index, programs, templates = system._index, system._programs, system._graph_templates
    loaded = not isinstance(g, TermGraph)
    root, tries, w, rec = _load(g, sig)
    if loaded:
        g, size, sizes, top = TermGraph(), w, [w], w
    else:
        if not all(u[2] < 2 or u[4] for u in rec.values()):
            raise SharingViolation("input graph is not constructor-shared")
        size, sizes, top = len(rec), [len(g.label)], g._next
    del rec
    work: list[int] = []
    fires = [0] * len(system.rules)
    reds: list[tuple] = []
    steps, k = 0, 0
    while True:
        block: list[tuple] = []
        for u in tries:
            kids = u[1]
            for r in index.get((u[0], kids[0][0] if kids else None)) \
                    or index.get((u[0], None), ()):
                w += 1
                slots = kids[:]
                for s, c in programs[r][0]:
                    w += 1
                    t = slots[s]
                    if t[0] != c:
                        break
                    slots += t[1]
                else:
                    block.append((u, r, slots))
                    break
        block.reverse()
        reds[k:k + 1] = block
        if steps < budget:
            work.append(w)
        if not reds or steps >= budget:
            break
        k = len(reds) - 1
        if rng is not None:
            k -= rng.randrange(k + 1)
        v, r, nodes = reds[k]
        steps += 1
        fires[r] += 1
        copies, right, w = templates[r] or _template(system, r)
        parent, i, v[5] = v[5], v[6], None
        tries = []
        for lab, kr, fun, sub in copies:
            kids = []
            for j in kr:
                c = nodes[j]
                c[2] += 1
                kids.append(c)
            u = [lab, kids, 0, top, None, None, 0, 0]
            top += 1
            pending = 0
            for j in sub:
                c = kids[j]
                if not c[4]:
                    if c[2] > 1:
                        raise SharingViolation(f"sharedness lost after step {steps}")
                    c[5], c[6] = u, j
                    pending += 1
            if pending:
                u[7] = pending
            elif fun:
                tries.append(u)
            else:
                u[4] = True
            nodes.append(u)
        new = nodes[right]
        size += len(copies)
        if parent is None:
            root = new
        else:
            parent[1][i] = new
            new[2] += 1
            v[2] -= 1
        if not new[4]:
            if new[2] > 1:
                raise SharingViolation(f"sharedness lost after step {steps}")
            new[5], new[6] = parent, i
        todo = [v] if not v[2] and v is not root else []
        while todo:
            u = todo.pop()
            size -= 1
            for c in u[1]:
                c[2] -= 1
                if not c[2] and c is not root:
                    todo.append(c)
        sizes.append(size)
        while new[4] and parent is not None:
            parent[7] -= 1
            if parent[7]:
                break
            if parent[0] in functions:
                tries.append(parent)
                break
            parent[4] = True
            parent[5], parent = None, parent[5]
    if steps or loaded:
        _write_back(g, root, top)
    return GraphOutcome("exhausted" if reds else "normal", g, steps, sizes, work, tuple(fires))


def _load(x: TermGraph | crs.Term, sig: crs.Signature
          ) -> tuple[list, list[list], int, dict[int, list]]:
    # The records [label, kids, refs, id, value, parent, index, pending]
    # of closed term or graph x, checked against sig and decided for the
    # first search in one post-order walk: kids holds records, refs counts
    # in-edges from reachable records, and graph_reduce keeps the rest.
    # A term gets one record per symbol occurrence, with term_to_graph's
    # ids; a graph, one per node reachable from the root, with its own
    # id, which each later arrival gives an in-edge (an arrival before it
    # is finished is a cycle).  Returns the root, the function records
    # over values in post-order, the first search's arrivals (the root
    # and every child slot) and a graph's records by id (none for a term).
    # A term's variable raises GraphError before any signature fault.
    cons, functions = sig.constructors, sig.functions
    graph = type(x) is TermGraph
    if graph:
        label, succ = x.label, x.succ
    rec: dict[int, list] = {}
    tries: list[list] = []
    out: list[list] = []                # records of the finished subterms
    top = again = 0
    todo: list = [x.root if graph else x]
    while todo:
        s = todo.pop()
        if s is None:                   # the node below, once its children are done
            s = todo.pop()
        elif graph:
            if s in rec:
                u = rec[s]
                if u is None:
                    raise GraphError("graph has a cycle")
                u[2] += 1
                again += 1
                out.append(u)
                continue
            if succ[s]:
                rec[s] = None           # entered, not finished
                todo += (s, None, *reversed(succ[s]))
                continue
        elif type(s) is crs.Var:
            raise GraphError("term must be closed")
        elif s.children:
            todo += (s, None, *reversed(s.children))
            continue
        if graph:
            lab, n = label[s], len(succ[s])
        else:
            lab, n = s.symbol, len(s.children)
        fun = lab in functions
        if (functions[lab] if fun else cons.get(lab)) != n:
            if not graph and crs.variables(x):
                raise GraphError("term must be closed")
            raise crs.ArityMismatch(lab, sig.arity(lab), n)   # or UnknownSymbol
        k = len(out) - n
        kids = out[k:]
        del out[k:]
        u = [lab, kids, 1, s if graph else top, None, None, 0, 0]
        if graph:
            rec[s] = u
        top += 1
        pending = 0
        for j, c in enumerate(kids):
            if not c[4]:
                c[5], c[6] = u, j
                pending += 1
        if pending:
            u[7] = pending
        elif fun:
            tries.append(u)
        else:
            u[4] = True
        out.append(u)
    root = out[0]
    root[2] = 0
    return root, tries, top + again, rec


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
