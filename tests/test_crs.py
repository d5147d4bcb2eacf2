import importlib.util
import random
import re
import sys
import time
from pathlib import Path

import pytest

from normbench import crs, encode, workbench
from normbench.crs import Node, Rule, Signature, Var
from tests_util import (
    crs_replace_at, random_closed_term, random_system, redexes, reference_random_reduce,
    rewrite_step, term_size, two_pass_parse_term)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def nat_sig(**extra_fns):
    return Signature({"zero": 0, "succ": 1}, {"add": 2, **extra_fns})


def nat(n):
    t = Node("zero")
    for _ in range(n):
        t = Node("succ", (t,))
    return t


ADD_RULES = [
    Rule("add", (Node("zero"), Var("y")), Var("y")),
    Rule("add", (Node("succ", (Var("x"),)), Var("y")),
         Node("succ", (Node("add", (Var("x"), Var("y"))),))),
]


def add_system():
    return crs.validate_system(nat_sig(), ADD_RULES)


# --- validation ---------------------------------------------------------------

def test_validate_add_ok():
    sys = add_system()
    assert len(sys.rules) == 2


def test_validate_nonlinear():
    sig = Signature({"zero": 0}, {"f": 2})
    with pytest.raises(crs.NonLinearLhs):
        crs.validate_system(sig, [Rule("f", (Var("x"), Var("x")), Var("x"))])


def test_validate_overlap():
    sig = Signature({"zero": 0}, {"f": 1})
    rules = [
        Rule("f", (Node("zero"),), Node("zero")),
        Rule("f", (Var("x"),), Node("zero")),
    ]
    with pytest.raises(crs.OverlapError) as exc:
        crs.validate_system(sig, rules)
    assert exc.value.rules == (0, 1)


def test_validate_arity_mismatch():
    sig = Signature({"zero": 0, "succ": 1}, {"f": 1})
    with pytest.raises(crs.ArityMismatch):
        crs.validate_system(sig, [Rule("f", (Node("succ"),), Node("zero"))])


def test_validate_rhs_vars_bound():
    sig = Signature({"zero": 0}, {"f": 1})
    with pytest.raises(crs.InvalidRule):
        crs.validate_system(sig, [Rule("f", (Var("x"),), Var("y"))])


def test_validate_function_in_pattern():
    sig = Signature({"zero": 0}, {"f": 1, "g": 1})
    with pytest.raises(crs.InvalidRule):
        crs.validate_system(sig, [Rule("f", (Node("g", (Var("x"),)),), Node("zero"))])


def test_signature_disjoint_names():
    with pytest.raises(crs.CrsError):
        Signature({"a": 0}, {"a": 1})


# --- matching -----------------------------------------------------------------

def test_match_pattern():
    assert crs._match_args((Node("succ", (Var("x"),)),), (nat(1),)) == {"x": nat(0)}
    assert crs._match_args((Node("zero"),), (nat(1),)) is None
    t = Node("cons", (nat(0), Node("nil")))
    assert crs._match_args((Var("x"),), (t,)) == {"x": t}


def test_cbv_condition_blocks_function_bindings():
    sys = add_system()
    # add(add(zero, zero), zero): the outer add cannot fire because the
    # binding for its variable argument would contain a function symbol.
    inner = Node("add", (nat(0), nat(0)))
    t = Node("add", (inner, nat(0)))
    hits = list(redexes(sys, t))
    assert len(hits) == 1
    assert hits[0][0] == (0,)
    for rng in (None, random.Random(0)):
        assert crs.reduce(sys, t, 1, rng=rng).term == Node("add", (nat(0), nat(0)))


# --- rewriting ----------------------------------------------------------------

def test_rewrite_step_unique_redex():
    sys = add_system()
    t = Node("add", (nat(1), nat(1)))
    got = rewrite_step(sys, t)
    assert got == Node("succ", (Node("add", (nat(0), nat(1))),))


def test_rewrite_normal_form_absent():
    assert rewrite_step(add_system(), nat(1)) is None


def test_reduce_add_two_steps():
    # hand trace: add(s(0), s(0)) -> s(add(0, s(0))) -> s(s(0))
    out = crs.reduce(add_system(), Node("add", (nat(1), nat(1))), 10)
    assert out.kind == "constructor"
    assert out.steps == 2
    assert out.term == nat(2)


def test_reduce_stuck():
    sig = Signature({"zero": 0, "succ": 1}, {"f": 1})
    sys = crs.validate_system(sig, [Rule("f", (Node("succ", (Var("x"),)),), Node("zero"))])
    out = crs.reduce(sys, Node("f", (nat(0),)), 10)
    assert out.kind == "stuck"
    assert out.steps == 0
    assert out.term == Node("f", (nat(0),))


def test_reduce_loop_exhausts():
    sig = Signature({"zero": 0}, {"loop": 1})
    sys = crs.validate_system(sig, [Rule("loop", (Var("x"),), Node("loop", (Var("x"),)))])
    out = crs.reduce(sys, Node("loop", (nat(0),)), 25)
    assert out.kind == "exhausted"
    assert out.steps == 25


def test_stuck_normal_form_contains_function():
    sig = Signature({"zero": 0, "succ": 1}, {"f": 1})
    sys = crs.validate_system(sig, [Rule("f", (Node("succ", (Var("x"),)),), Node("zero"))])
    out = crs.reduce(sys, Node("succ", (Node("f", (nat(0),)),)), 10)
    assert out.kind == "stuck"
    assert crs.contains_function(out.term, sig)


def test_count_symbol():
    t = Node("app", (Node("capp", (Var("x"), Var("y"))), Var("z")))
    assert crs.count_symbol(t, "app") == 1
    assert crs.count_symbol(nat(2), "succ") == 2
    assert crs.count_symbol(nat(2), "nil") == 0


def test_policy_invariance_of_step_count():
    sys = add_system()
    t = Node("add", (Node("add", (nat(2), nat(1))), Node("add", (nat(1), nat(2)))))
    base = crs.reduce(sys, t, 100)
    assert base.kind == "constructor"
    for seed in range(10):
        out = crs.reduce(sys, t, 100, rng=random.Random(seed))
        assert out.steps == base.steps
        assert out.term == base.term


def test_closedness_preserved():
    sys = add_system()
    t = Node("add", (nat(2), nat(3)))
    while True:
        nxt = rewrite_step(sys, t)
        if nxt is None:
            break
        assert crs.is_closed(nxt)
        t = nxt


# --- classification ------------------------------------------------------------

def test_term_classes():
    sig = nat_sig()
    assert crs.is_constructor_term(nat(2), sig)
    assert not crs.is_constructor_term(Node("add", (nat(0), nat(0))), sig)
    assert crs.is_pattern(Node("succ", (Var("x"),)), sig)
    assert not crs.is_pattern(Node("add", (Var("x"), Var("y"))), sig)
    assert crs.is_closed(nat(2))
    assert not crs.is_closed(Var("x"))


# --- text format -----------------------------------------------------------------

ADD_TEXT = """\
# unary addition
constructor zero/0;
constructor succ/1;
function add/2;
rule add(zero, y) -> y;
rule add(succ(x), y) -> succ(add(x, y));
term add(succ(zero), succ(zero));
"""


def test_parse_system_text():
    f = crs.parse_system(ADD_TEXT)
    assert f.system.signature.constructors == {"zero": 0, "succ": 1}
    assert f.system.rules == tuple(ADD_RULES)
    assert f.term == Node("add", (nat(1), nat(1)))
    assert f.comments == ["unary addition"]


def test_system_roundtrip():
    f = crs.parse_system(ADD_TEXT)
    text = crs.system_to_str(f.system, f.term)
    g = crs.parse_system(text)
    assert g.system.rules == f.system.rules
    assert g.system.signature.constructors == f.system.signature.constructors
    assert g.term == f.term
    assert crs.parse_system(text.replace("\n", " \n ")).system.rules == f.system.rules


def test_term_requires_declared_symbols():
    with pytest.raises(crs.CrsParseError):
        crs.parse_system("constructor zero/0;\nfunction f/1;\nterm f(x);")


def test_parse_errors():
    with pytest.raises(crs.CrsParseError):
        crs.parse_system("constructor zero/0;\nconstructor zero/1;")
    with pytest.raises(crs.CrsParseError):
        crs.parse_system("rule f(x -> x;")
    with pytest.raises(crs.CrsParseError):
        crs.parse_system("flurb zap;")


def two_pass_parse_system(text):
    """(rules, term) of a valid text, each read by the two-pass reference
    under the signature that parse_system declares."""
    sig = crs.parse_system(text).system.signature
    rules, term = [], None
    body = " ".join(line.split("#")[0].strip() for line in text.splitlines())
    for stmt in body.split(";"):
        stmt = stmt.strip()
        if m := re.fullmatch(r"rule\s+(.*?)\s*->\s*(.*)", stmt, re.DOTALL):
            lhs = two_pass_parse_term(m.group(1), sig)
            rules.append(Rule(lhs.symbol, lhs.children, two_pass_parse_term(m.group(2), sig)))
        elif m := re.fullmatch(r"term\s+(.*)", stmt, re.DOTALL):
            term = two_pass_parse_term(m.group(1), sig)
    return rules, term


def bench_workloads():
    """bench/workloads.py, for the systems of the benchmark's families."""
    path = CORPUS.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_matches_two_pass_reference():
    texts = [p.read_text() for p in sorted((CORPUS / "crs").glob("*.trs"))]
    workloads, rng = bench_workloads(), random.Random(3)
    texts += [workloads.rewrite_instance(family, n, rng)[0]
              for family in ("add", "mul", "reverse", "flatten", "b1") for n in (1, 2, 5)]
    for _ in range(60):
        system = random_system(rng)
        texts.append(crs.system_to_str(
            system, random_closed_term(rng, system.signature, 3)))
    texts.append("constructor z/0; constructor s/1; function f/2;  # x() is a variable\n"
                 "rule f(s(x()), y) -> s(f(x, y())); rule f(z(), y) -> y;\n"
                 "term f(s(z()), z);")
    for text in texts:
        f = crs.parse_system(text)
        rules, term = two_pass_parse_system(text)
        assert (f.system.rules, f.term) == (tuple(rules), term), text


PREAMBLE = "constructor z/0; constructor s/1; function f/1; function g/2;\n"


@pytest.mark.parametrize("body, error, message", [
    # undeclared atom in the term
    ("rule f(z) -> z; term f(y);",
     crs.CrsParseError, "term declaration uses undeclared symbols: 'f(y)'"),
    ("rule f(z) -> z; term f(x());",
     crs.CrsParseError, "term declaration uses undeclared symbols: 'f(x())'"),
    # undeclared symbol with children
    ("rule f(z) -> z; term h(z);", crs.UnknownSymbol, "symbol 'h' is not declared"),
    ("rule f(z) -> h(z);", crs.UnknownSymbol, "symbol 'h' is not declared"),
    ("rule f(h(z)) -> z;", crs.UnknownSymbol, "symbol 'h' is not declared"),
    # arity mismatch
    ("rule f(z) -> z; term f(z, z);",
     crs.ArityMismatch, "symbol 'f' has arity 1, applied to 2 arguments"),
    ("rule f(s) -> z;", crs.ArityMismatch, "symbol 's' has arity 1, applied to 0 arguments"),
    ("rule f(z, z) -> z;", crs.ArityMismatch, "symbol 'f' has arity 1, applied to 2 arguments"),
    # x() as a rule's left-hand side, and a constructor there
    ("rule x() -> z;", crs.CrsParseError, "rule lhs must be a function application: 'x()'"),
    ("rule s(x) -> z;", crs.InvalidRule, "rule 0: head 's' is not a function symbol"),
    ("rule f(f(x)) -> z;", crs.InvalidRule, "rule 0: lhs argument is not a pattern"),
    # unbound rhs variable, non-linear lhs, overlap
    ("rule f(x) -> y;", crs.InvalidRule, "rule 0: rhs variables ['y'] not bound in lhs"),
    ("rule g(x, x) -> x;", crs.NonLinearLhs, "rule 0: variable 'x' occurs twice in the lhs"),
    ("rule f(z) -> z; rule f(x) -> x;",
     crs.OverlapError, "rules 0 and 1 have unifiable left-hand sides"),
    # truncated input
    ("rule f(z) -> z; term f(z", crs.CrsParseError, "expected ')'"),
    ("rule f(z) -> z; term g(z,", crs.CrsParseError, "unexpected end of term"),
    ("rule f(z) -> z; term", crs.CrsParseError, "cannot parse declaration: 'term'"),
    ("rule f(z) -> z; term f(z) z;", crs.CrsParseError, "trailing input: ['z']"),
    # a parse error in a rule or in the term comes before any validation
    # error
    ("rule f(z) -> z; rule f(x) -> x; rule f(s(x) -> x;", crs.CrsParseError, "expected ')'"),
    ("rule f(z) -> z; rule f(x) -> x; term f(z", crs.CrsParseError, "expected ')'"),
])
def test_parse_system_invalid_inputs(body, error, message):
    with pytest.raises(Exception) as exc:
        crs.parse_system(PREAMBLE + body)
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_overlap_reports_the_first_pair():
    # pairs are scanned head by head, in order of first appearance, and
    # (i, j) with i < j in rule order; several pairs overlap in each case
    x, y, zero = Var("x"), Var("y"), Node("zero")
    rules = {
        "a": Rule("f", (zero, zero), zero),
        "b": Rule("f", (Node("succ", (x,)), y), zero),
        "c": Rule("f", (x, Node("succ", (y,))), zero),      # overlaps b and d
        "d": Rule("f", (zero, y), zero),                    # overlaps a and c
        "H": Rule("h", (x,), zero),
        "G": Rule("h", (zero,), zero),
    }
    sig = Signature({"zero": 0, "succ": 1}, {"f": 2, "h": 1})
    for order, pair in (("abcd", (0, 3)), ("bcd", (0, 1)), ("acb", (1, 2)),
                        ("dcb", (0, 1)), ("aHbcG", (2, 3)), ("HaGbc", (0, 2))):
        with pytest.raises(crs.OverlapError) as exc:
            crs.validate_system(sig, [rules[k] for k in order])
        assert exc.value.rules == pair, order


def test_deep_terms_no_recursion_blowup():
    sig = nat_sig()
    t = nat(50_000)
    assert term_size(t) == 50_001
    assert crs.is_constructor_term(t, sig)
    assert crs.count_symbol(t, "succ") == 50_000
    assert crs.is_closed(t)


def test_reference_walk_is_iterative():
    # a redex 10^5 nodes deep: the recursive walk and crs_replace_at overflowed
    sys = add_system()
    t = Node("add", (nat(0), nat(0)))
    for _ in range(100_000):
        t = Node("succ", (t,))
    hits = list(redexes(sys, t))
    assert [h[0] for h in hits] == [(0,) * 100_000]
    assert term_size(rewrite_step(sys, t)) == 100_001
    out = crs.reduce(sys, t, rng=random.Random(0))
    assert (out.kind, out.steps, term_size(out.term)) == ("constructor", 1, 100_001)


# --- the innermost machine against the reference loop ----------------------------

BUDGETS = (0, 1, 3, 7, 30)
MAX_NODES = 400


def reference_reduce(system, t, budget):
    """reduce's leftmost path spelled out as the from-the-root step loop;
    the outcome and the on_step calls, or None once the term passes
    MAX_NODES nodes."""
    calls = []
    steps = 0
    while True:
        hit = next(redexes(system, t), None)
        if hit is None:
            kind = "constructor" if crs.is_constructor_term(t, system.signature) else "stuck"
            return crs.CrsOutcome(kind, t, steps), calls
        if steps >= budget:
            return crs.CrsOutcome("exhausted", t, steps), calls
        path, rule, subst = hit
        t = crs_replace_at(t, path, crs.apply_subst(rule.rhs, subst))
        calls.append((rule, subst, t))
        steps += 1
        if term_size(t) > MAX_NODES:
            return None


def agrees_with_reference(system, t, budgets=BUDGETS):
    """Assert the machine equals the reference loop at every budget, in
    outcome and in on_step calls; False if the case was skipped for size."""
    for budget in budgets:
        ref = reference_reduce(system, t, budget)
        if ref is None:
            return False
        calls = []
        out = crs.reduce(system, t, budget,
                         on_step=lambda rule, subst, state:
                         calls.append((rule, subst, state())))
        assert out == ref[0], (crs.term_to_str(t), budget)
        assert calls == ref[1], (crs.term_to_str(t), budget)
        assert all(a[0] is b[0] for a, b in zip(calls, ref[1]))
    return True


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_machine_matches_reference_on_random_systems(seed):
    rng = random.Random(seed)
    compared = 0
    for _ in range(30):
        system = random_system(rng)
        for _ in range(4):
            t = random_closed_term(rng, system.signature, 4)
            compared += agrees_with_reference(system, t)
    assert compared > 100


def test_machine_matches_reference_on_corpus_systems():
    corpus = workbench.Corpus.load(CORPUS)
    assert len(corpus.crs_entries) >= 8
    for entry in corpus.crs_entries:
        assert agrees_with_reference(entry.system, entry.term, (0, 1, 3, 7, 30, 10_000)), \
            entry.name


def test_machine_matches_reference_on_lambda_images():
    corpus = workbench.Corpus.load(CORPUS)
    compared = 0
    for entry in corpus.lambda_entries:
        for image in (encode.encode_cbv(entry.term), encode.encode_cbn(entry.term)):
            compared += agrees_with_reference(image.system, image.term)
    assert compared >= 120


def shown(rule, subst, term):
    """An on_step call as text, compared without recursion."""
    return (id(rule), {x: crs.term_to_str(v) for x, v in subst.items()}, crs.term_to_str(term))


def random_agrees_with_reference(system, t, budgets=BUDGETS, seeds=range(4)):
    """Assert the random policy equals the from-the-root loop for the same
    rng draws, at every budget and seed, in kind, steps and term and in
    on_step calls; False if the case was skipped for size."""
    for seed in seeds:
        for budget in budgets:
            ref = reference_random_reduce(system, t, budget, random.Random(seed), MAX_NODES)
            if ref is None:
                return False
            calls = []
            out = crs.reduce(system, t, budget, rng=random.Random(seed),
                             on_step=lambda rule, subst, state:
                             calls.append(shown(rule, subst, state())))
            case = (crs.term_to_str(t), budget, seed)
            assert (out.kind, out.steps, crs.term_to_str(out.term)) == (
                ref[0].kind, ref[0].steps, crs.term_to_str(ref[0].term)), case
            assert calls == [shown(*call) for call in ref[1]], case
    return True


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_random_policy_matches_reference_on_random_systems(seed):
    rng = random.Random(seed)
    compared = 0
    for _ in range(30):
        system = random_system(rng)
        for _ in range(4):
            t = random_closed_term(rng, system.signature, 4)
            compared += random_agrees_with_reference(system, t)
    assert compared > 100


def test_random_policy_matches_reference_on_corpus_systems():
    corpus = workbench.Corpus.load(CORPUS)
    for entry in corpus.crs_entries:
        assert random_agrees_with_reference(entry.system, entry.term, (0, 1, 3, 7, 30, 400)), \
            entry.name


def test_random_policy_matches_reference_on_lambda_images():
    corpus = workbench.Corpus.load(CORPUS)
    compared = 0
    for entry in corpus.lambda_entries:
        for image in (encode.encode_cbv(entry.term), encode.encode_cbn(entry.term)):
            compared += random_agrees_with_reference(image.system, image.term)
    assert compared >= 120


def test_stuck_subterm_left_of_redex():
    sig = Signature({"zero": 0, "succ": 1, "pair": 2}, {"add": 2, "f": 1})
    sys = crs.validate_system(sig, ADD_RULES + [
        Rule("f", (Node("succ", (Var("x"),)),), Var("x"))])
    t = Node("pair", (Node("f", (nat(0),)), Node("add", (nat(1), nat(0)))))
    out = crs.reduce(sys, t, 10)
    assert (out.kind, out.steps) == ("stuck", 2)
    assert out.term == Node("pair", (Node("f", (nat(0),)), nat(1)))
    assert agrees_with_reference(sys, t)


def test_exhausted_inside_rhs_with_pending_siblings():
    # after f fires, the budget runs out inside its rhs while the second
    # add of the pair is still a rhs node under the match
    sig = Signature({"zero": 0, "succ": 1, "pair": 2}, {"add": 2, "f": 1})
    rhs = Node("pair", (Node("add", (Var("x"), Var("x"))), Node("add", (Var("x"), nat(0)))))
    sys = crs.validate_system(sig, ADD_RULES + [Rule("f", (Node("succ", (Var("x"),)),), rhs)])
    t = Node("succ", (Node("f", (nat(3),)),))
    out = crs.reduce(sys, t, 2)
    assert out.kind == "exhausted"
    assert out.term == Node("succ", (Node("pair", (
        Node("succ", (Node("add", (nat(1), nat(2))),)),
        Node("add", (nat(2), nat(0))))),))
    assert agrees_with_reference(sys, t, range(12))


def test_rhs_bare_variable():
    sys = add_system()
    out = crs.reduce(sys, Node("add", (nat(0), nat(2))), 10)
    assert (out.kind, out.steps, out.term) == ("constructor", 1, nat(2))
    t = Node("succ", (Node("add", (nat(0), Node("add", (nat(0), nat(1))))),))
    out = crs.reduce(sys, t, 10)
    assert (out.kind, out.steps, out.term) == ("constructor", 2, nat(2))
    assert agrees_with_reference(sys, t, range(4))


def test_nullary_function_rule():
    sig = Signature({"zero": 0, "succ": 1}, {"add": 2, "one": 0, "none": 0})
    sys = crs.validate_system(sig, ADD_RULES + [Rule("one", (), nat(1))])
    t = Node("add", (Node("one"), Node("one")))
    out = crs.reduce(sys, t, 10)
    assert (out.kind, out.steps, out.term) == ("constructor", 4, nat(2))
    assert agrees_with_reference(sys, t, range(6))
    t = Node("add", (Node("one"), Node("none")))
    out = crs.reduce(sys, t, 10)
    assert (out.kind, out.steps) == ("stuck", 1)
    assert out.term == Node("add", (nat(1), Node("none")))
    assert agrees_with_reference(sys, t, range(3))


def test_machine_deep_run():
    # sizes only: dataclass equality recurses over the term
    sys = add_system()
    t = Node("add", (nat(100_000), nat(2)))
    start = time.perf_counter()
    out = crs.reduce(sys, t, 200_000)
    assert time.perf_counter() - start < 30
    assert (out.kind, out.steps, term_size(out.term)) == ("constructor", 100_001, 100_003)
    assert crs.count_symbol(out.term, "succ") == 100_002
    out = crs.reduce(sys, t, 50_000)
    assert (out.kind, out.steps, term_size(out.term)) == ("exhausted", 50_000, 100_005)
    assert crs.count_symbol(out.term, "add") == 1


def test_random_policy_deep_run():
    # the redex list is updated where a firing changed it: no step walks
    # the term, and the climb through the succ spine happens once
    sys = add_system()
    t = Node("add", (nat(100_000), nat(2)))
    start = time.perf_counter()
    out = crs.reduce(sys, t, 200_000, rng=random.Random(0))
    assert time.perf_counter() - start < 30
    assert (out.kind, out.steps, term_size(out.term)) == ("constructor", 100_001, 100_003)


def test_parse_system_deep_term():
    # parse_term, which classifies atoms as it reads them, is iterative
    depth = 20_000
    assert depth > sys.getrecursionlimit()
    text = ("constructor zero/0; constructor succ/1; function f/1; rule f(x) -> x;\n"
            "term " + "succ(" * depth + "zero" + ")" * depth + ";\n")
    f = crs.parse_system(text)
    assert crs.count_symbol(f.term, "succ") == depth
    assert term_size(f.term) == depth + 1


def test_validate_system_deep_compatible_patterns():
    # f(succ^n(x)) and f(succ^n(zero)) overlap
    depth = 100_000
    assert depth > sys.getrecursionlimit()
    p, q = Var("x"), Node("zero")
    for _ in range(depth):
        p, q = Node("succ", (p,)), Node("succ", (q,))
    sig = Signature({"zero": 0, "succ": 1}, {"f": 1})
    with pytest.raises(crs.OverlapError):
        crs.validate_system(sig, [Rule("f", (p,), Node("zero")), Rule("f", (q,), Node("zero"))])
    system = crs.validate_system(sig, [Rule("f", (p,), Node("zero")),
                                       Rule("f", (Node("zero"),), Node("zero"))])
    assert len(system.rules) == 2
