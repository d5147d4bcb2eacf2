import random
import sys
import time
from pathlib import Path

import pytest

from normbench import crs, encode, graphs, lam, workbench
from normbench.crs import Node, Rule, Signature, Var
from tests_util import (
    GraphRule, apply_subst, bench_workloads, candidates, crs_replace_at, nat_term,
    random_closed_term, random_system, redexes, reference_build_phase, reference_collect,
    reference_compile_rule, reference_find_redex, reference_graph_reduce, reference_redirect,
    reference_template, reference_try_match, rule_to_graph_rule, slot_nodes, term_size,
    two_tower)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def nat_system():
    sig = Signature({"zero": 0, "succ": 1}, {"add": 2})
    rules = [
        Rule("add", (Node("zero"), Var("y")), Var("y")),
        Rule("add", (Node("succ", (Var("x"),)), Var("y")),
             Node("succ", (Node("add", (Var("x"), Var("y"))),))),
    ]
    return crs.validate_system(sig, rules)


# --- term <-> graph ---------------------------------------------------------------

def test_term_to_graph_is_tree():
    g = graphs.term_to_graph(nat_term(1))
    assert g.node_count() == 2
    assert g.label[g.root] == "succ"
    g = graphs.term_to_graph(Node("add", (Node("zero"), Node("zero"))))
    assert g.node_count() == 3  # no sharing on input: two distinct zero leaves
    g = graphs.term_to_graph(Node("zero"))
    assert g.node_count() == 1
    with pytest.raises(graphs.GraphError, match="^term must be closed$"):
        graphs.term_to_graph(Node("add", (nat_term(1), Var("x"))))


def test_graph_to_term_inverse_on_trees():
    for t in (nat_term(3), Node("add", (nat_term(1), nat_term(2)))):
        assert graphs.graph_to_term(graphs.term_to_graph(t)) == t


def test_graph_to_term_duplicates_shared():
    g = graphs.TermGraph()
    c = g.new_node("c")
    a = g.new_node("a")
    g.set_children(a, (c, c))
    g.root = a
    assert graphs.graph_to_term(g) == Node("a", (Node("c"), Node("c")))


def test_graph_to_term_guard():
    # a chain of binary sharing unfolds exponentially
    g = graphs.TermGraph()
    prev = g.new_node("c")
    for _ in range(40):
        v = g.new_node("a")
        g.set_children(v, (prev, prev))
        prev = v
    g.root = prev
    with pytest.raises(graphs.UnfoldTooLarge):
        graphs.graph_to_term(g, max_size=10_000)


def test_graph_to_term_requires_labels():
    # of the reachable nodes only
    g = graphs.TermGraph()
    v = g.new_node(None)
    g.root = v
    with pytest.raises(graphs.UnlabelledNode, match=r"^nodes \[0\] are unlabelled$"):
        graphs.graph_to_term(g)
    g.root = g.new_node("c")
    assert graphs.graph_to_term(g) == Node("c")


# --- rule compilation ----------------------------------------------------------------

def template_agrees(system, r):
    """Rule r's build template and match program are those of its rule
    graph's compile, through the slot mapping; the copies that a firing
    links under a parent copy are those of the rule graph's plan."""
    gr = rule_to_graph_rule(system.rules[r])
    tpl = graphs._template(system, r)
    ref, (steps, variables) = reference_template(gr, system.signature)
    assert tpl == ref, system.rules[r]
    program, slot_of = system._programs[r]
    assert (program, set(slot_of.values())) == (steps, variables), system.rules[r]
    cr = reference_compile_rule(gr)[0]
    links = {(p - cr.slots, j) for _, p, j in cr.plan if p >= 0}
    assert links == {(k, j) for k, c in enumerate(tpl.copies) for j in c[3]}
    return tpl


def test_rule_to_graph_rule_shares_variables():
    # a(b(x), y) -> b(a(y, a(y, x))): x and y shared across the sides,
    # y referenced twice on the right; compiling the rule graph gives
    # the rule's template
    sig = Signature({"b": 1}, {"a": 2})
    rule = Rule("a", (Node("b", (Var("x"),)), Var("y")),
                Node("b", (Node("a", (Var("y"), Node("a", (Var("y"), Var("x"))))),)))
    template_agrees(crs.validate_system(sig, [rule]), 0)
    gr = rule_to_graph_rule(rule)
    g = gr.graph
    unlabelled = [v for v in g.label if g.label[v] is None]
    assert len(unlabelled) == 2
    left_nodes = g.reachable(gr.left)
    right_nodes = g.reachable(gr.right)
    for v in unlabelled:
        assert v in left_nodes and v in right_nodes
    ynode = next(v for v in unlabelled if g.refs[v] == 3)  # lhs + 2 rhs uses
    xnode = next(v for v in unlabelled if v != ynode)
    assert g.refs[xnode] == 2


def test_rule_to_graph_rule_variable_right_root():
    system = nat_system()
    gr = rule_to_graph_rule(system.rules[0])
    tpl = template_agrees(system, 0)
    assert gr.graph.label[gr.right] is None
    assert gr.right in gr.graph.reachable(gr.left)
    # add(zero, y) -> y: no copies, and the replacement is y's slot
    assert slot_nodes(gr)[tpl.right] == gr.right
    assert tpl == graphs.Template((), 1, 1)


def differential_systems():
    """The corpus .trs systems, the CBV and CBN images of the corpus
    lambda terms and 300 seeded random systems."""
    corpus = workbench.Corpus.load(CORPUS)
    systems = [e.system for e in corpus.crs_entries]
    for e in corpus.lambda_entries:
        systems += [encode.encode_cbv(e.term).system, encode.encode_cbn(e.term).system]
    rng = random.Random(20)
    return systems + [random_system(rng) for _ in range(300)]


def test_template_matches_the_rule_graph_compile():
    # _template walks a rule's right side once, numbering its variables
    # by the system's match program; the rule graph's compile walks the
    # graph of both sides in its own slot order.  Mapped slot for slot,
    # they give the same copies, kids and right root, and the copies'
    # ids come in the rule graphs' order.
    systems = differential_systems()
    assert sum(len(s.rules) for s in systems) >= 2000
    for system in systems:
        for r in range(len(system.rules)):
            template_agrees(system, r)
    # add(succ(x), y) -> succ(add(x, y)): slots succ(x) 0, y 1 and x 2;
    # the copies add(x, y) and succ(.) are references 3 and 4, and
    # deciding them walks the replacement and 3 child slots
    system = nat_system()
    assert system._programs[1] == ([(0, "succ")], {"y": 1, "x": 2})
    assert graphs._template(system, 1) == graphs.Template(
        (("add", (2, 1), True, ()), ("succ", (3,), False, (0,))), 4, 4)
    assert system._graph_templates[1] is graphs._template(system, 1)


# --- redex search ----------------------------------------------------------------------

def test_find_redex_innermost():
    system = nat_system()
    t = Node("add", (Node("add", (nat_term(1), nat_term(0))), nat_term(0)))
    g = graphs.term_to_graph(t)
    r = graphs.find_redex(g, system)
    # the outer add has a function symbol below: only the inner one fires
    assert g.label[r.anchor] == "add"
    assert r.anchor != g.root


def test_find_redex_none_on_constructor_graph():
    system = nat_system()
    g = graphs.term_to_graph(nat_term(4))
    assert graphs.find_redex(g, system) is None


def test_cbv_condition_blocks_function_in_binding():
    # pattern variable over a subgraph that still contains a function symbol
    sig = Signature({"b": 1, "c": 0}, {"f": 1, "h": 1})
    system = crs.validate_system(sig, [
        Rule("f", (Node("b", (Var("x"),)),), Var("x")),
    ])
    g = graphs.term_to_graph(Node("f", (Node("b", (Node("h", (Node("c"),)),)),)))
    assert graphs.find_redex(g, system) is None


# --- firing: the worked example ----------------------------------------------------------

def worked_example():
    """Shared graph a(b(c), a(b(c), c)), one b node and one c leaf, and
    the system of the rule a(b(x), c) -> b(a(b(x), c)), with that rule's
    graph: its sides share only the x node."""
    sig = Signature({"b": 1, "c": 0, "d": 2}, {"a": 2})
    g = graphs.TermGraph()
    c1 = g.new_node("c")
    b1 = g.new_node("b")
    g.set_children(b1, (c1,))
    a2 = g.new_node("a")
    g.set_children(a2, (b1, c1))
    a1 = g.new_node("a")
    g.set_children(a1, (b1, a2))
    g.root = a1
    system = crs.validate_system(sig, [Rule("a", (Node("b", (Var("x"),)), Node("c")),
                                            crs.parse_term("b(a(b(x), c))", sig))])
    return system, g, rule_to_graph_rule(system.rules[0]), (a1, a2, b1, c1)


def test_worked_example_redex_maps_to_inner_vertex():
    system, g, rule, (a1, a2, b1, c1) = worked_example()
    redex = graphs.find_redex(g, system)
    assert redex is not None
    assert redex.anchor == a2 and redex.template is graphs._template(system, 0)
    # the slots of a(b(x), c): the arguments b(x) and c, then x
    assert redex.slots == [b1, c1, c1]
    _, phi = reference_find_redex(g, [rule], system.signature)
    assert redex_phi(rule, redex) == phi and phi[rule.left] == a2


def test_worked_example_phases():
    system, g, rule, (a1, a2, b1, c1) = worked_example()
    sig = system.signature
    _, phi = reference_find_redex(g, [rule], sig)
    before = g.node_count()
    after_build, after_redirect, final = fire_redex_phases(g, rule, phi)
    # the build copies the four nodes of the right side: b(x) over c1, c,
    # a(b(x), c) and b(...); the redirect moves a1's edge from a2 to the
    # new b, and the collection drops a2 alone, as a1 keeps b1 and b1 c1
    assert after_build.node_count() == before + 4
    assert after_build.root == a1
    assert after_build.succ[a1] == (b1, a2)  # no edges moved yet
    assert after_redirect.node_count() == before + 4
    assert after_redirect.succ[a1][0] == b1
    assert after_redirect.succ[a1][1] != a2  # redirected to the copy of b(...)
    assert final.node_count() == before + 3  # a2 collected
    for snapshot in (after_build, after_redirect, final):
        assert snapshot.refs == in_degrees(snapshot)

    expected = graphs.TermGraph()
    c = expected.new_node("c")
    b = expected.new_node("b")
    expected.set_children(b, (c,))
    bx = expected.new_node("b")
    expected.set_children(bx, (c,))
    c_new = expected.new_node("c")
    a_new = expected.new_node("a")
    expected.set_children(a_new, (bx, c_new))
    b_new = expected.new_node("b")
    expected.set_children(b_new, (a_new,))
    top = expected.new_node("a")
    expected.set_children(top, (b, b_new))
    expected.root = top
    assert isomorphic(final, expected)
    assert graphs.graph_to_term(final) == crs.parse_term(
        "a(b(c), b(a(b(c), c)))", sig)
    system, g, rule, _ = worked_example()
    ref_touched = reference_build_phase(copy(g), rule, phi)[1]
    touched = graphs.fire_redex(g, graphs.find_redex(g, system), sig)
    assert graphs.to_dot(g) == graphs.to_dot(final)
    assert touched == ref_touched and touched[-1] == final.succ[a1][1]


def test_ground_rule_relabels_root():
    sig = Signature({"d": 0}, {"f": 0})
    system = crs.validate_system(sig, [Rule("f", (), Node("d"))])
    g = graphs.term_to_graph(Node("f"))
    old_root = g.root
    redex = graphs.find_redex(g, system)
    graphs.fire_redex(g, redex, sig)
    assert g.node_count() == 1
    assert g.root != old_root
    assert g.label[g.root] == "d"


def test_variable_rhs_rule_moves_root():
    system = nat_system()
    g = graphs.term_to_graph(Node("add", (Node("zero"), nat_term(2))))
    redex = graphs.find_redex(g, system)
    graphs.fire_redex(g, redex, system.signature)
    assert graphs.graph_to_term(g) == nat_term(2)
    assert g.node_count() == 3


# --- constructor-sharedness ----------------------------------------------------------------

def test_trees_are_constructor_shared():
    system = nat_system()
    g = graphs.term_to_graph(Node("add", (nat_term(2), nat_term(2))))
    assert graphs.is_constructor_shared(g, system.signature)


def test_shared_function_node_not_constructor_shared():
    sig = Signature({"c": 0}, {"a": 2})
    g = graphs.TermGraph()
    c1 = g.new_node("c")
    c2 = g.new_node("c")
    inner = g.new_node("a")
    g.set_children(inner, (c1, c2))
    top = g.new_node("a")
    g.set_children(top, (inner, inner))
    g.root = top
    assert not graphs.is_constructor_shared(g, sig)


def test_shared_constructor_leaf_ok():
    sig = Signature({"c": 0, "b": 1}, {"a": 2})
    g = graphs.TermGraph()
    c = g.new_node("c")
    top = g.new_node("a")
    g.set_children(top, (c, c))
    g.root = top
    assert graphs.is_constructor_shared(g, sig)


def control_system():
    sig = Signature({"c": 0}, {"a": 2})
    return crs.validate_system(sig, [Rule("a", (Node("c"), Node("c")), Node("c"))])


def shared_control(top="a", leaves=()):
    """top(i, i, *leaves) with i = a(c, c) one shared function node, and a
    leaf node of each label in leaves: with the defaults, the acceptance-6
    control, which is not constructor-shared."""
    g = graphs.TermGraph()
    c1, c2 = g.new_node("c"), g.new_node("c")
    inner = g.new_node("a")
    g.set_children(inner, (c1, c2))
    g.root = g.new_node(top)
    g.set_children(g.root, (inner, inner, *map(g.new_node, leaves)))
    return g


def test_sharing_control_one_vs_two_steps():
    # shared a(a(c,c), a(c,c)) fires once where the term needs two steps;
    # graph_reduce refuses it, find_redex and fire_redex take it a step
    system = control_system()
    sig = system.signature
    g = shared_control()
    term = graphs.graph_to_term(g)
    assert term == crs.parse_term("a(a(c, c), a(c, c))", sig)
    with pytest.raises(graphs.SharingViolation, match="^input graph is not constructor-shared$"):
        graphs.graph_reduce(g, system, 10)

    redex = graphs.find_redex(g, system)
    assert (redex.anchor, redex.slots) == (2, [0, 1])
    assert graphs.fire_redex(g, redex, sig) == [4]
    # one graph step reaches a(c, c), which the term needs two steps for;
    # the generic redirect moved both in-edges of the shared anchor
    assert graphs.graph_to_term(g) == crs.parse_term("a(c, c)", sig)
    assert g.refs == in_degrees(g) and sorted(g.refs.values()) == [0, 2]
    term_out = crs.reduce(system, term, 10)
    assert term_out.steps == 3
    out = graphs.graph_reduce(g, system)
    assert out.steps + 1 == 2  # two graph steps in total
    assert graphs.graph_to_term(out.graph) == Node("c")
    assert out.graph.refs == in_degrees(out.graph)


@pytest.mark.parametrize("top, leaves, error, text", [
    ("d", (), crs.UnknownSymbol, "d"),              # an undeclared label
    ("a", ("e",), crs.UnknownSymbol, "e"),          # before the top's wrong arity
    ("a", ("c",), crs.ArityMismatch, "a"),          # a wrong arity
    ("a", (None,), crs.UnknownSymbol, "None"),      # an unlabelled node
])
def test_signature_faults_come_before_the_sharing_fault(top, leaves, error, text):
    # the shared function node would raise SharingViolation, but the first
    # signature fault in post-order raises first, and the three reference
    # functions raise it too; fire_redex, after firing the control's redex
    system = control_system()
    sig = system.signature
    g = shared_control(top, leaves)
    with pytest.raises(error, match=text) as fault:
        graphs.graph_reduce(g, system, 10)
    redex = graphs.find_redex(shared_control(), system)
    for call in (lambda: graphs.find_redex(g, system),
                 lambda: graphs.is_constructor_shared(g, sig),
                 lambda: graphs.fire_redex(g, redex, sig)):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == str(fault.value)


def test_reachable_unlabelled_node_is_an_unknown_symbol():
    # a tree, so no sharing fault: the unlabelled zero is the first fault
    system = nat_system()
    g = graphs.term_to_graph(crs.parse_term("add(zero, succ(zero))", system.signature))
    g.label[0] = None
    for call in (lambda: graphs.graph_reduce(g, system, 10),
                 lambda: graphs.find_redex(g, system),
                 lambda: graphs.is_constructor_shared(g, system.signature)):
        with pytest.raises(crs.UnknownSymbol, match="None"):
            call()


# --- full reduction ---------------------------------------------------------------------

def test_graph_reduce_matches_term_reduction():
    system = nat_system()
    t = Node("add", (nat_term(3), nat_term(2)))
    term_out = crs.reduce(system, t, 100)
    g = graphs.term_to_graph(t)
    out = graphs.graph_reduce(g, system, 100)
    assert out.kind == "normal"
    assert out.steps == term_out.steps
    assert graphs.graph_to_term(out.graph) == term_out.term
    assert len(out.sizes) == out.steps + 1


def test_graph_reduce_budget():
    sig = Signature({"zero": 0}, {"loop": 1})
    system = crs.validate_system(
        sig, [Rule("loop", (Var("x"),), Node("loop", (Var("x"),)))])
    g = graphs.term_to_graph(Node("loop", (Node("zero"),)))
    out = graphs.graph_reduce(g, system, budget=7)
    assert out.kind == "exhausted" and out.steps == 7


def test_phi_image_tower_linear_graph_size():
    for n in (1, 4, 8):
        img = encode.encode_cbv(two_tower(n))
        g = graphs.term_to_graph(img.term)
        out = graphs.graph_reduce(g, img.system, 1000)
        assert out.kind == "normal"
        assert out.steps == n
        assert out.graph.node_count() == n + 1


def test_tower_unfold_reads_back_exponentially():
    # the normal-form graph stays a linear chain, but reading the unfolded
    # term back into a lambda term duplicates the instantiated body per
    # level, giving a term of size >= 2^n
    n = 3
    img = encode.encode_cbv(two_tower(n))
    g = graphs.term_to_graph(img.term)
    out = graphs.graph_reduce(g, img.system, 100)
    unfolded = graphs.graph_to_term(out.graph)
    assert term_size(unfolded) == n + 1
    rb = encode.readback(unfolded, img.registry)
    assert lam.size(rb) >= 2 ** n
    assert lam.alpha_eq(rb, lam.reduce(two_tower(n), "cbv", 100).term)


def test_per_step_work_polynomial():
    # instrumented visit counters: each find+fire touches O(nodes x rules)
    system = nat_system()
    rule_nodes = sum(rule_to_graph_rule(r).graph.node_count() for r in system.rules)
    for n in (4, 8, 16):
        g = graphs.term_to_graph(Node("add", (nat_term(n), nat_term(n))))
        out = graphs.graph_reduce(g, system, 1000)
        assert out.kind == "normal"
        for visited, nodes in zip(out.work, out.sizes):
            assert visited <= 4 * nodes * rule_nodes


def test_per_step_work_constant():
    # after the first search, which walks the input, a search visits only
    # the replacement of the previous firing and the nodes it matches
    system = nat_system()
    rule_nodes = sum(rule_to_graph_rule(r).graph.node_count() for r in system.rules)
    for n in (16, 64, 256):
        g = graphs.term_to_graph(Node("add", (nat_term(n), nat_term(n))))
        out = graphs.graph_reduce(g, system, 1000)
        assert out.kind == "normal" and out.steps == n + 1
        assert len(out.work) == out.steps + 1
        assert max(out.work[1:]) <= 2 * rule_nodes
        ref_work = reference_graph_reduce(
            graphs.term_to_graph(Node("add", (nat_term(n), nat_term(n)))),
            [rule_to_graph_rule(r) for r in system.rules], system.signature, 1000)[3]
        assert all(w <= r for w, r in zip(out.work, ref_work, strict=True))


def test_random_per_step_work_constant():
    # the random policy's first search walks the input; a later one
    # decides only the nodes the previous firing built
    system = nat_system()
    rule_nodes = sum(rule_to_graph_rule(r).graph.node_count() for r in system.rules)
    for n in (16, 64, 256):
        t = Node("add", (nat_term(n), nat_term(n)))
        out = graphs.graph_reduce(graphs.term_to_graph(t), system, 1000,
                                  rng=random.Random(n))
        assert out.kind == "normal" and out.steps == n + 1
        assert len(out.work) == out.steps + 1
        assert max(out.work[1:]) <= 2 * rule_nodes


def deep_add_is_linear(rng):
    # add(nat(10^5), nat(2)) in n + 1 steps: no step walks the graph
    system = nat_system()
    n = 100_000
    g = graphs.term_to_graph(Node("add", (nat_term(n), nat_term(2))))
    start = time.perf_counter()
    out = graphs.graph_reduce(g, system, 200_000, rng=rng)
    assert time.perf_counter() - start < 30
    assert out.kind == "normal" and out.steps == n + 1
    assert out.graph.node_count() == n + 3
    assert unfold_size(out.graph) == n + 3


def test_deep_add_is_linear():
    deep_add_is_linear(None)


def test_random_deep_add_is_linear():
    deep_add_is_linear(random.Random(0))


def test_deep_shared_graph_without_recursion():
    # add(s, s) with s = nat(10^5) one chain: the record conversion, the
    # function-free walk, the search and the 0-step run all go deep
    system = nat_system()
    sig = system.signature
    n = 100_000
    assert n > sys.getrecursionlimit()
    for bottom, shared_ok in (("zero", True), ("add", False)):
        g = graphs.TermGraph()
        s = g.new_node(bottom)
        if bottom == "add":
            g.set_children(s, (g.new_node("zero"), g.new_node("zero")))
        for _ in range(n):
            top = g.new_node("succ")
            g.set_children(top, (s,))
            s = top
        g.root = g.new_node("add")
        g.set_children(g.root, (s, s))
        assert graphs.is_constructor_shared(g, sig) == shared_ok
        if not shared_ok:
            with pytest.raises(graphs.SharingViolation):
                graphs.graph_reduce(g, system, 0)
            continue
        redex = graphs.find_redex(g, system)
        assert redex.anchor == g.root and redex.slots[1] == s
        before = copy(g)
        out = graphs.graph_reduce(g, system, 0)
        assert (out.kind, out.steps, out.sizes) == ("exhausted", 0, [n + 2])
        assert out.graph is g and same_graph(g, before)


# --- test-only graph helpers ------------------------------------------------------

def copy(g):
    out = graphs.TermGraph()
    out.label = dict(g.label)
    out.succ = dict(g.succ)
    out.refs = dict(g.refs)
    out.root = g.root
    out._next = g._next
    return out


def same_graph(g, h):
    """The same label, succ and refs contents, root and node counter."""
    return (g.label, g.succ, g.refs, g.root, g._next) == (h.label, h.succ, h.refs, h.root,
                                                          h._next)


def in_degrees(g):
    """The in-degree of every node, counted from succ afresh."""
    counts = dict.fromkeys(g.label, 0)
    for kids in g.succ.values():
        for c in kids:
            counts[c] += 1
    return counts


def check_acyclic(g):
    state = {}
    for start in g.label:
        if state.get(start):
            continue
        stack = [(start, 0)]
        state[start] = 1
        while stack:
            v, i = stack[-1]
            if i < len(g.succ[v]):
                stack[-1] = (v, i + 1)
                c = g.succ[v][i]
                st = state.get(c, 0)
                if st == 1:
                    raise graphs.GraphError("cycle detected")
                if st == 0:
                    state[c] = 1
                    stack.append((c, 0))
            else:
                state[v] = 2
                stack.pop()


def isomorphic(g1, g2):
    """Rooted isomorphism; ordered children make this one traversal."""
    fwd = {}
    bwd = {}
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


def unfold_size(g):
    """Size of the term the graph unfolds to (shared parts count repeatedly)."""
    return graphs._post_order(g, g.root)[g.root]


def redex_phi(rule, redex):
    """rule node -> graph node of a redex of rule's rule graph, on the
    left subgraph"""
    return {rule.left: redex.anchor, **dict(zip(slot_nodes(rule), redex.slots))}


def fire_redex_phases(g, rule, phi):
    """The generic firing of rule graph rule at phi, phase by phase, in
    place: the reference build, redirect and collection; snapshots after
    each."""
    replacement, _ = reference_build_phase(g, rule, phi)
    after_build = copy(g)
    reference_redirect(g, phi[rule.left], replacement)
    after_redirect = copy(g)
    reference_collect(g)
    return [after_build, after_redirect, copy(g)]


# --- graph_reduce against the reference loop ----------------------------------------

BUDGETS = (0, 1, 3, 7, 30)
SHARED_BUDGETS = (0, 1, 1000)


def shared_graph(t, sig):
    """term_to_graph(t) with structurally equal function-free subgraphs
    merged into the first of them in post-order, and the nodes that this
    leaves unreachable dropped: a constructor-shared graph whose shared
    nodes keep term_to_graph's ids."""
    g = graphs.term_to_graph(t)
    first, rep, free = {}, {}, set()
    for v in sorted(g.label):           # term_to_graph numbers in post-order
        kids = tuple(rep[c] for c in g.succ[v])
        g.set_children(v, kids)
        rep[v] = v
        if sig.is_constructor(g.label[v]) and free.issuperset(kids):
            rep[v] = first.setdefault((g.label[v], kids), v)
            free.add(rep[v])
    reference_collect(g)
    return g


def agrees_with_reference(system, t, budgets=BUDGETS, seed=None, shared=False):
    """graph_reduce equals the reference loop on the rule graphs in kind,
    steps, sizes, the number of work entries and the final graph with
    its node ids and in-degrees.  The input is term_to_graph(t), or with
    shared its shared_graph."""
    grules = [rule_to_graph_rule(r) for r in system.rules]
    sig = system.signature
    for budget in budgets:
        given = shared_graph(t, sig) if shared else graphs.term_to_graph(t)
        rng = None if seed is None else random.Random(seed)
        ref_g = copy(given)
        kind, steps, sizes, work = reference_graph_reduce(ref_g, grules, sig, budget, rng)
        rng = None if seed is None else random.Random(seed)
        out = graphs.graph_reduce(given, system, budget, rng=rng)
        case = (crs.term_to_str(t), budget, seed, shared)
        assert (out.kind, out.steps, out.sizes, len(out.work)) == (
            kind, steps, sizes, len(work)), case
        assert graphs.to_dot(out.graph) == graphs.to_dot(ref_g), case
        assert out.graph.refs == ref_g.refs == in_degrees(out.graph), case
        assert out.graph._next == ref_g._next, case


def agrees_with_reference_shared(system, t):
    """agrees_with_reference on t's shared_graph, leftmost and at seed 5;
    whether that graph has a shared node."""
    for seed in (None, 5):
        agrees_with_reference(system, t, SHARED_BUDGETS, seed, shared=True)
    return max(shared_graph(t, system.signature).refs.values()) > 1


def program_match(gr, program, anchor):
    """The match graph_reduce runs at record anchor, whose arguments are
    values: the match program over the records, as rule node of gr ->
    node id, or None."""
    slots = anchor[1][:]
    for s, c in program:
        t = slots[s]
        if t[0] != c:
            return None
        slots += t[1]
    return {gr.left: anchor[3], **{rn: t[3] for rn, t in zip(slot_nodes(gr), slots)}}


def compiled_rules_agree(system, t, budget=30):
    """At every state of the leftmost run up to budget: at each function
    node over function-free arguments, every rule of the head that the
    system's index offers matches on the records as the generic matcher
    does on the rule graph (the same phi), and every rule it skips fails
    there; find_redex finds the reference's redex; and fire_redex gives
    the node ids, edges and in-degrees of the reachability build, the
    generic redirect and the reachability collection, with the nodes that
    gained an in-edge in the reference's order, and in-degrees equal to a
    recount from succ."""
    sig = system.signature
    grules = [rule_to_graph_rule(r) for r in system.rules]
    g = graphs.term_to_graph(t)
    for _ in range(budget):
        recs = graphs._load(g, sig)[3]
        for v, lab in list(g.label.items()):
            if not sig.is_function(lab):
                continue
            kids = g.succ[v]
            first = g.label[kids[0]] if kids else None
            offered = system._index.get((lab, first)) or system._index.get((lab, None), [])
            values = all(c[4] for c in recs[v][1])
            for k, rule in enumerate(system.rules):
                if rule.head != lab:
                    continue
                phi = reference_try_match(g, grules[k], v, sig, {}, [0])
                if k not in offered:
                    assert phi is None
                elif values:
                    assert program_match(grules[k], system._programs[k][0], recs[v]) == phi
        redex = graphs.find_redex(g, system)
        hit = reference_find_redex(g, grules, sig)
        if redex is None:
            assert hit is None
            return
        rule, phi = hit
        assert redex_phi(rule, redex) == phi
        ref_g = copy(g)
        ref = reference_build_phase(ref_g, rule, phi)
        assert ref_g.refs == in_degrees(ref_g)
        reference_redirect(ref_g, redex.anchor, ref[0])
        reference_collect(ref_g)
        assert graphs.fire_redex(g, redex, sig) == ref[1]
        assert graphs.to_dot(g) == graphs.to_dot(ref_g)
        assert g.refs == ref_g.refs == in_degrees(g) and g._next == ref_g._next


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_machine_matches_reference_on_random_systems(seed):
    rng = random.Random(seed)
    shared = 0
    for _ in range(20):
        system = random_system(rng)
        for k in range(3):
            t = random_closed_term(rng, system.signature, 4)
            agrees_with_reference(system, t)
            for draws in range(4):
                agrees_with_reference(system, t, seed=draws)
            compiled_rules_agree(system, t)
            if k == 0:
                shared += agrees_with_reference_shared(system, t)
    assert shared >= 5


def test_machine_matches_reference_on_corpus_systems():
    corpus = workbench.Corpus.load(CORPUS)
    assert len(corpus.crs_entries) >= 8
    shared = 0
    for entry in corpus.crs_entries:
        agrees_with_reference(entry.system, entry.term)
        for seed in range(4):
            agrees_with_reference(entry.system, entry.term, seed=seed)
        compiled_rules_agree(entry.system, entry.term)
        shared += agrees_with_reference_shared(entry.system, entry.term)
    assert shared >= 5


def test_machine_matches_reference_on_lambda_images():
    corpus = workbench.Corpus.load(CORPUS)
    assert len(corpus.lambda_entries) >= 60
    shared = 0
    for entry in corpus.lambda_entries:
        image = encode.encode_cbv(entry.term)
        agrees_with_reference(image.system, image.term)
        for seed in range(4):
            agrees_with_reference(image.system, image.term, seed=seed)
        compiled_rules_agree(image.system, image.term)
        shared += agrees_with_reference_shared(image.system, image.term)
    assert shared >= 39


def test_refcounts_exact_on_both_paths():
    # after a leftmost and a seeded random run, the count of every live
    # node equals its in-degree recounted from succ
    corpus = workbench.Corpus.load(CORPUS)
    cases = [(entry.system, entry.term) for entry in corpus.crs_entries]
    for entry in corpus.lambda_entries:
        image = encode.encode_cbv(entry.term)
        cases.append((image.system, image.term))
    for system, t in cases:
        for rng in (None, random.Random(13)):
            out = graphs.graph_reduce(graphs.term_to_graph(t), system, 1000, rng=rng)
            assert out.graph.refs == in_degrees(out.graph), (crs.term_to_str(t), rng)


class FirstDraw:
    """An rng whose every draw is 0: the first redex in post-order."""

    def randrange(self, n):
        return 0


def engine_cases():
    """(system, term) of the corpus .trs entries, the phi-images of the
    corpus lambda terms and the engine-eval families."""
    corpus = workbench.Corpus.load(CORPUS)
    cases = [(e.system, e.term) for e in corpus.crs_entries]
    for e in corpus.lambda_entries:
        image = encode.encode_cbv(e.term)
        cases.append((image.system, image.term))
    workloads, rng = bench_workloads(), random.Random(5)
    for fam in workloads.ENGINE_EVAL:
        for n in fam.sizes:
            f = crs.parse_system(workloads.rewrite_instance(fam.name, n, rng)[0])
            cases.append((f.system, f.term))
    return cases


def test_first_draw_is_the_leftmost_run():
    # the leftmost policy fires the first redex in post-order, so it
    # is the random policy under draws of 0, to the work counts
    for system, t in engine_cases():
        for budget in (*BUDGETS, 3000):
            left, first = ((o.kind, o.steps, o.sizes, graphs.to_dot(o.graph), o.work)
                           for o in (graphs.graph_reduce(graphs.term_to_graph(t), system,
                                                         budget, rng=rng)
                                     for rng in (None, FirstDraw())))
            assert left == first, (crs.term_to_str(t), budget)


def reference_fires(system, t, budget):
    """Firings per rule position along the reference step relation
    (leftmost-innermost, from the root every step), up to budget steps."""
    pos = {id(r): k for k, r in enumerate(system.rules)}
    fires = [0] * len(system.rules)
    for _ in range(budget):
        hit = next(redexes(system, t), None)
        if hit is None:
            break
        path, rule, subst = hit
        fires[pos[id(rule)]] += 1
        t = crs_replace_at(t, path, apply_subst(rule.rhs, subst))
    return tuple(fires)


def test_both_engines_fire_each_rule_equally_often():
    # the forward simulation's per-rule form: under the leftmost policy
    # and draws of 0, crs and graphs fire each rule as often as the
    # reference step relation does, and under a seeded random policy
    # crs and graphs still agree
    budget = 3000
    cases = engine_cases()
    assert len(cases) == 82
    for system, t in cases:
        want = reference_fires(system, t, budget)
        for rng in (None, FirstDraw(), 4):
            crs_rng, graph_rng = ((random.Random(rng), random.Random(rng))
                                  if isinstance(rng, int) else (rng, rng))
            c = crs.reduce(system, t, budget, rng=crs_rng)
            g = graphs.graph_reduce(graphs.term_to_graph(t), system, budget, rng=graph_rng)
            assert c.fires == g.fires and sum(c.fires) == c.steps == g.steps, \
                (crs.term_to_str(t), rng)
            if not isinstance(rng, int):
                assert c.fires == want, (crs.term_to_str(t), rng)


def test_leftmost_work_shape():
    # one entry per firing and one for the last search.  The first walks
    # the whole input, the same under both policies: one per node arrived
    # at (the root and every child slot), plus the 2 match steps of
    # add(succ(x), y), its anchor and its one (slot, constructor) step.
    # A later one counts the replacement and the child slots of the
    # copies it decides (4 for succ(add(x, y))), plus the match steps
    # there: 2 for add(succ(x), y), and 2 for add(zero, y) after the n-th
    # firing, since a node over zero is offered that rule alone.  The
    # last firing's replacement y is a value.
    system = nat_system()
    for n in (1, 2, 5, 40):
        t = Node("add", (nat_term(n), nat_term(2)))
        out = graphs.graph_reduce(graphs.term_to_graph(t), system, 100)
        assert out.steps == n + 1
        assert out.work == [(n + 5) + 2] + [4 + 2] * n + [1]
        for budget in range(n + 1):
            cut = graphs.graph_reduce(graphs.term_to_graph(t), system, budget)
            assert cut.kind == "exhausted" and cut.work == out.work[:budget]
        rand = graphs.graph_reduce(graphs.term_to_graph(t), system, 100,
                                   rng=random.Random(n))
        assert rand.work == out.work


def shared_function_copy():
    """The rule graph of f(x) -> a(g, g) with one g node: its right side
    shares a function node, which no rule of a CrsSystem compiles to."""
    rg = graphs.TermGraph()
    x = rg.new_node(None)
    left = rg.new_node("f")
    rg.set_children(left, (x,))
    gnode = rg.new_node("g")
    right = rg.new_node("a")
    rg.set_children(right, (gnode, gnode))
    return GraphRule(rg, left, right)


@pytest.mark.parametrize("rng", [None, random.Random(3)])
def test_rule_sharing_a_function_node_is_caught(rng, monkeypatch):
    # f(x) -> a(g, g) reduces f(c) in one step; a template that gave the
    # two g copies one node would share a function node, and the check of
    # the nodes that gained an in-edge aborts the run at that step
    sig = Signature({"c": 0, "a": 2}, {"f": 1, "g": 0})
    rules = [Rule("f", (Var("x"),), crs.parse_term("a(g, g)", sig))]
    t = Node("f", (Node("c"),))
    out = graphs.graph_reduce(graphs.term_to_graph(t), crs.validate_system(sig, rules), 10,
                              rng=rng)
    assert (out.kind, out.steps) == ("normal", 1)
    shared = reference_template(shared_function_copy(), sig)[0]
    assert shared == graphs.Template((("g", (), True, ()), ("a", (1, 1), False, (0, 1))), 2, 3)
    monkeypatch.setattr(graphs, "_template", lambda system, r: shared)
    with pytest.raises(graphs.SharingViolation, match="^sharedness lost after step 1$"):
        graphs.graph_reduce(graphs.term_to_graph(t), crs.validate_system(sig, rules), 10,
                            rng=rng)


def test_index_keeps_unlabelled_first_patterns():
    # f(c, zero) -> d and f(x, succ(y)) -> f(x, y): at a node whose first
    # argument is c, both rules are candidates, in rule order
    sig = Signature({"c": 0, "d": 0, "zero": 0, "succ": 1}, {"f": 2})
    system = crs.validate_system(sig, [
        Rule("f", (Node("c"), Node("zero")), Node("d")),
        Rule("f", (Var("x"), Node("succ", (Var("y"),))), Node("f", (Var("x"), Var("y")))),
    ])
    assert system._index["f", "c"] == [0, 1]
    assert system._index["f", None] == [1]
    for t, kind, steps in (("f(c, succ(succ(zero)))", "constructor", 3),
                           ("f(d, succ(zero))", "stuck", 1)):
        t = crs.parse_term(t, sig)
        out = crs.reduce(system, t, 10)
        assert (out.kind, out.steps) == (kind, steps)
        g = graphs.graph_reduce(graphs.term_to_graph(t), system, 10)
        assert g.steps == steps and graphs.graph_to_term(g.graph) == out.term
        agrees_with_reference(system, t)
        compiled_rules_agree(system, t)


def test_rule_index_offers_the_rules_that_can_fire():
    # both engines look rules up in the system's index; at a node of each
    # head over each first argument (a variable, a constructor, a function
    # node) it offers, in rule order, the rules whose first pattern is a
    # variable or has the argument's root
    corpus = workbench.Corpus.load(CORPUS)
    systems = [e.system for e in corpus.crs_entries]
    for e in corpus.lambda_entries[:12]:
        systems += [encode.encode_cbv(e.term).system, encode.encode_cbn(e.term).system]
    rng = random.Random(8)
    systems += [random_system(rng) for _ in range(40)]
    for system in systems:
        sig = system.signature
        pos = {id(r): k for k, r in enumerate(system.rules)}
        roots = [r.lhs[0].symbol if r.lhs and isinstance(r.lhs[0], Node) else None
                 for r in system.rules]
        for head, arity in sig.functions.items():
            for first in [None, *sig.constructors, head] if arity else [None]:
                arg = (Var("x") if first is None else Node(first)) if arity else None
                want = [k for k, r in enumerate(system.rules) if r.head == head
                        and roots[k] in (None, first)]
                assert [pos[id(r)] for r in candidates(system, head, arg)] == want


@pytest.mark.parametrize("text, error", [
    ("add(zero, zero, zero)", crs.ArityMismatch),
    ("foo(zero)", crs.UnknownSymbol),
    ("succ(zero, zero)", crs.ArityMismatch),
    ("add(zero)", crs.ArityMismatch),
])
@pytest.mark.parametrize("rng", [None, 0])
def test_both_engines_reject_ill_formed_inputs(text, error, rng):
    # an input the signature does not declare, or applied to the wrong
    # number of arguments, is refused before anything is matched
    system = nat_system()
    t = crs.parse_term(text, system.signature)
    with pytest.raises(error):
        crs.reduce(system, t, 10, rng=None if rng is None else random.Random(rng))
    with pytest.raises(error):
        graphs.graph_reduce(graphs.term_to_graph(t), system, 10,
                            rng=None if rng is None else random.Random(rng))


def test_unreachable_input_node_collected_at_first_firing():
    # add(succ(z1), z2) plus an unreachable succ(z1)
    system = nat_system()
    g = graphs.TermGraph()
    z1 = g.new_node("zero")
    s1 = g.new_node("succ")
    g.set_children(s1, (z1,))
    z2 = g.new_node("zero")
    g.root = g.new_node("add")
    g.set_children(g.root, (s1, z2))
    u = g.new_node("succ")
    g.set_children(u, (z1,))
    assert g.refs[z1] == 2
    # step 1 adds succ(add(z1, z2)) and drops add, s1 and u, so z1 keeps
    # only the new add's in-edge
    first = graphs.graph_reduce(copy(g), system, 1)
    assert (first.sizes, first.graph._next) == ([5, 4], 7)
    assert u not in first.graph.label and first.graph.refs[z1] == 1
    assert first.graph.refs == in_degrees(first.graph)
    out = graphs.graph_reduce(g, system, 10)
    # step 2 redirects to z2 and drops the new add and z1
    assert out.kind == "normal" and out.steps == 2
    assert out.sizes == [5, 4, 2]
    assert graphs.graph_to_term(out.graph) == nat_term(1)
    assert out.graph.refs == in_degrees(out.graph)
    # an unreachable node holds the root anchor add(z, z): the anchor
    # outlives its redirect and dies with that node at the first firing
    g = graphs.TermGraph()
    z = g.new_node("zero")
    g.root = g.new_node("add")
    g.set_children(g.root, (z, z))
    g.set_children(g.new_node("succ"), (g.root,))
    out = graphs.graph_reduce(g, system, 10)
    assert (out.kind, out.steps, out.sizes) == ("normal", 1, [3, 1])
    assert out.graph.root == z and out.graph.refs == {z: 0}


def test_unreachable_in_edges_do_not_share():
    # g(h) under h -> a, once with an unreachable g node that also points
    # at h: only in-edges from reachable nodes make h shared, so both
    # graphs are constructor-shared and reduce alike
    sig = Signature({"a": 0}, {"g": 1, "h": 0})
    system = crs.validate_system(sig, [Rule("h", (), Node("a"))])
    for extra in (False, True):
        g = graphs.TermGraph()
        h = g.new_node("h")
        g.root = g.new_node("g")
        g.set_children(g.root, (h,))
        if extra:
            g.set_children(g.new_node("g"), (h,))
        assert g.refs[h] == 1 + extra
        assert graphs.is_constructor_shared(g, sig)
        out = graphs.graph_reduce(g, system, 10)
        assert (out.kind, out.steps, out.sizes) == ("normal", 1, [2 + extra, 2])
        assert graphs.graph_to_term(out.graph) == crs.parse_term("g(a)", sig)
        assert out.graph.refs == in_degrees(out.graph)


def test_zero_step_runs_leave_the_graph_as_given():
    # budget 0, and an input already normal, with an unreachable node
    # holding an in-edge: no write-back, so nothing is collected
    system = nat_system()
    for text, budget, kind in (("add(succ(zero), zero)", 0, "exhausted"),
                               ("succ(succ(zero))", 10, "normal")):
        g = graphs.term_to_graph(crs.parse_term(text, system.signature))
        g.set_children(g.new_node("succ"), (g.root,))
        before = copy(g)
        out = graphs.graph_reduce(g, system, budget)
        assert (out.kind, out.steps, out.sizes) == (kind, 0, [len(before.label)])
        assert out.graph is g and same_graph(g, before)


# --- loading a term ---------------------------------------------------------------

def load_cases():
    """(system, term) of the corpus .trs entries, the phi-images of the
    corpus lambda terms, the benchmark families at several sizes and
    seeded random systems."""
    corpus = workbench.Corpus.load(CORPUS)
    cases = [(e.system, e.term) for e in corpus.crs_entries]
    for e in corpus.lambda_entries:
        image = encode.encode_cbv(e.term)
        cases.append((image.system, image.term))
    workloads, rng = bench_workloads(), random.Random(7)
    for name, sizes in (("add", (0, 1, 9)), ("mul", (0, 2, 5)), ("reverse", (0, 1, 7)),
                        ("flatten", (1, 2, 6)), ("b1", (0,))):
        for n in sizes:
            f = crs.parse_system(workloads.rewrite_instance(name, n, rng)[0])
            cases.append((f.system, f.term))
    rng = random.Random(27)
    for _ in range(60):
        system = random_system(rng)
        cases.append((system, random_closed_term(rng, system.signature, 4)))
    return cases


def same_run(system, t, budget, seed):
    """graph_reduce on the term and on term_to_graph of it agree in the
    outcome, the written-back dicts and the DOT output."""
    outs = []
    for g in (t, graphs.term_to_graph(t)):
        rng = None if seed is None else random.Random(seed)
        outs.append(graphs.graph_reduce(g, system, budget, rng=rng))
    loaded, given = outs
    case = (crs.term_to_str(t), budget, seed)
    assert (loaded.kind, loaded.steps, loaded.sizes, loaded.work, loaded.fires) == (
        given.kind, given.steps, given.sizes, given.work, given.fires), case
    a, b = loaded.graph, given.graph
    assert (a.label, a.succ, a.refs, a.root, a._next) == (
        b.label, b.succ, b.refs, b.root, b._next), case
    assert list(a.label) == list(b.label), case
    assert graphs.to_dot(a) == graphs.to_dot(b), case
    return loaded


def test_term_load_runs_as_its_graph():
    cases = load_cases()
    assert len(cases) >= 8 + 62 + 13 + 60
    for system, t in cases:
        for budget in (0, 1, workbench.DEFAULT_BUDGET):
            for seed in (None, 11):
                same_run(system, t, budget, seed)


def test_term_with_shared_nodes_loads_as_a_tree():
    # a Node object that occurs twice is two nodes, as term_to_graph
    # makes it: one record per occurrence, and no sharing to check
    z = Node("zero")
    sig = Signature({"zero": 0, "s": 2}, {"f": 1})
    system = crs.validate_system(sig, [Rule("f", (Var("x"),), Node("s", (Var("x"), Var("x"))))])
    t = Node("f", (Node("s", (z, z)),))
    out = same_run(system, t, 10, None)
    assert (out.kind, out.steps, out.sizes) == ("normal", 1, [4, 4])
    for budget in (0, 10):
        out = same_run(system, Node("s", (z, z)), budget, None)
        assert (out.kind, out.steps, out.sizes) == ("normal", 0, [3])
    # crs.reduce builds the right side s(x, x) with one object in both slots
    mid = crs.reduce(system, Node("f", (Node("f", (z,)),)), 1).term
    assert mid.children[0].children[0] is mid.children[0].children[1]
    for budget in (0, 1, 10):
        out = same_run(system, mid, budget, None)
        assert out.sizes[0] == term_size(mid) == 4
    assert (out.kind, out.steps, out.sizes) == ("normal", 1, [4, 4])


@pytest.mark.parametrize("text, budget", [
    ("add(succ(x), zero)", 10),          # a variable
    ("add(foo(), x)", 10),               # a variable comes before a signature fault
    ("add(succ(zero, zero), x)", 10),
    ("add(foo(), succ(zero))", 10),      # an undeclared symbol
    ("add(succ(zero))", 10),             # a wrong arity
    ("add(succ(zero, zero), foo())", 10),  # both: the first in post-order
    ("add(foo(), succ(zero, zero))", 10),
    ("succ(zero, foo(zero, zero))", 10),
    ("add(zero, zero)", -1),             # a negative budget
])
def test_term_load_faults_raise_as_the_graph_does(text, budget):
    system = nat_system()
    t = crs.parse_term(text, system.signature)
    raised = []
    for load in (lambda: t, lambda: graphs.term_to_graph(t)):
        with pytest.raises(Exception) as info:
            graphs.graph_reduce(load(), system, budget)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_size_growth_bounded_by_rhs():
    system = nat_system()
    max_rhs = max(term_size(r.rhs) for r in system.rules)
    g = graphs.term_to_graph(Node("add", (nat_term(4), nat_term(1))))
    out = graphs.graph_reduce(g, system, 100)
    for a, b in zip(out.sizes, out.sizes[1:]):
        assert b - a <= max_rhs


def test_isomorphism():
    g1 = graphs.term_to_graph(nat_term(2))
    g2 = graphs.term_to_graph(nat_term(2))
    g3 = graphs.term_to_graph(nat_term(3))
    assert isomorphic(g1, g2)
    assert not isomorphic(g1, g3)
    shared = graphs.TermGraph()
    c = shared.new_node("c")
    a = shared.new_node("a")
    shared.set_children(a, (c, c))
    shared.root = a
    tree = graphs.term_to_graph(Node("a", (Node("c"), Node("c"))))
    assert not isomorphic(shared, tree)


def test_dot_export_stable():
    g = graphs.term_to_graph(nat_term(1))
    dot = graphs.to_dot(g)
    assert dot == graphs.to_dot(g)
    assert 'n1 [label="succ" shape="doublecircle"];' in dot
    assert "n1 -> n0" in dot


def test_acyclicity_check():
    g = graphs.TermGraph()
    b1 = g.new_node("b")
    b2 = g.new_node("b")
    g.set_children(b1, (b2,))
    g.set_children(b2, (b1,))
    g.root = b1
    with pytest.raises(graphs.GraphError):
        check_acyclic(g)
    # the load meets b1 again before b1 is finished: every entry point
    # refuses the cycle, also below a function node
    sig = Signature({"b": 1}, {"f": 1})
    system = crs.validate_system(sig, [Rule("f", (Var("x"),), Var("x"))])
    for root in (b1, g.new_node("f")):
        if root != b1:
            g.set_children(root, (b1,))
        g.root = root
        for call in (lambda: graphs.graph_reduce(g, system, 10),
                     lambda: graphs.find_redex(g, system),
                     lambda: graphs.is_constructor_shared(g, sig)):
            with pytest.raises(graphs.GraphError, match="^graph has a cycle$"):
                call()
