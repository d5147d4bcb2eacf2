import random
import re
import sys
import time
from pathlib import Path

import pytest

from normbench import crs, encode, lam, scott, workbench
from normbench.crs import Node, Rule, Signature, Var
from tests_util import (
    apply_subst, backtracking_system, bench_workloads, check_arities, crs_is_closed,
    crs_replace_at, is_pattern, match_args, random_closed_term, random_patterns_system,
    random_value, random_system, redexes, reference_first_overlap, reference_random_reduce,
    reference_validate, rewrite_step, run_backtracks, staircase, term_size, two_pass_parse_term)

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
    assert match_args((Node("succ", (Var("x"),)),), (nat(1),)) == {"x": nat(0)}
    assert match_args((Node("zero"),), (nat(1),)) is None
    t = Node("cons", (nat(0), Node("nil")))
    assert match_args((Var("x"),), (t,)) == {"x": t}


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


def test_term_predicates_cost_the_dag():
    # pair(d, d) over 20 levels: 21 distinct nodes, 2^20 occurrences of z
    # in the unfolding; count_symbol still counts those occurrences
    sig = Signature({"z": 0, "pair": 2}, {"f": 1})
    d = Node("z")
    for _ in range(20):
        d = Node("pair", (d, d))
    for check, expected in ((lambda: crs.count_symbol(d, "z"), 2 ** 20),
                            (lambda: crs.is_constructor_term(d, sig), True),
                            (lambda: crs.contains_function(d, sig), False)):
        t0 = time.perf_counter()
        assert check() == expected
        assert time.perf_counter() - t0 < 0.1
    f = Node("pair", (d, Node("f", (d,))))
    assert crs.count_symbol(f, "z") == 2 ** 21 and crs.count_symbol(f, "f") == 1
    assert not crs.is_constructor_term(f, sig) and crs.contains_function(f, sig)


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
        assert crs_is_closed(nxt)
        t = nxt


# --- classification ------------------------------------------------------------

def test_term_classes():
    sig = nat_sig()
    assert crs.is_constructor_term(nat(2), sig)
    assert not crs.is_constructor_term(Node("add", (nat(0), nat(0))), sig)
    assert is_pattern(Node("succ", (Var("x"),)), sig)
    assert not is_pattern(Node("add", (Var("x"), Var("y"))), sig)
    assert crs_is_closed(nat(2))
    assert not crs_is_closed(Var("x"))


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


def test_parse_matches_two_pass_reference():
    texts = [p.read_text() for p in sorted((CORPUS / "crs").glob("*.trs"))]
    workloads, rng = bench_workloads(), random.Random(3)
    texts += [workloads.rewrite_instance(family, n, rng)[0]
              for family in ("add", "mul", "reverse", "flatten", "b1") for n in (1, 2, 5)]
    for _ in range(60):
        system = random_system(rng)
        texts.append(crs.system_to_str(
            system, random_closed_term(rng, system.signature, 3)))
    texts.append("constructor z/0; constructor s/1; function f/2;  # z() is the constant z\n"
                 "rule f(s(x), y) -> s(f(x, y)); rule f(z(), y) -> y;\n"
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
    # x() is a node whatever its declaration, in the term and in a rule
    ("rule f(z) -> z; term f(x());", crs.UnknownSymbol, "symbol 'x' is not declared"),
    ("rule f(x()) -> x;", crs.UnknownSymbol, "symbol 'x' is not declared"),
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
    ("rule x() -> z;", crs.InvalidRule, "rule 0: head 'x' is not a function symbol"),
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
    # two faulty nodes in the term: the first in pre-order taking the
    # children last to first is reported, after the rules are checked;
    # an undeclared atom in the term is reported before them
    ("rule f(z) -> z; term g(h(z), s);",
     crs.ArityMismatch, "symbol 's' has arity 1, applied to 0 arguments"),
    ("rule f(z) -> z; term g(s, h(z));", crs.UnknownSymbol, "symbol 'h' is not declared"),
    ("rule f(z) -> z; term f(h(s));", crs.UnknownSymbol, "symbol 'h' is not declared"),
    ("rule f(z) -> z; term g(f, s(z, z));",
     crs.ArityMismatch, "symbol 's' has arity 1, applied to 2 arguments"),
    ("rule f(z) -> z; term g(y, s);",
     crs.CrsParseError, "term declaration uses undeclared symbols: 'g(y, s)'"),
    ("rule f(x) -> y; term g(h(z), s);",
     crs.InvalidRule, "rule 0: rhs variables ['y'] not bound in lhs"),
    # a parse error in a rule or in the term comes before any validation
    # error
    ("rule f(z) -> z; rule f(x) -> x; rule f(s(x) -> x;", crs.CrsParseError, "expected ')'"),
    ("rule f(z) -> z; rule f(x) -> x; term f(z", crs.CrsParseError, "expected ')'"),
])
def test_parse_system_invalid_inputs(body, error, message):
    with pytest.raises(Exception) as exc:
        crs.parse_system(PREAMBLE + body)
    assert (type(exc.value), str(exc.value)) == (error, message)


@pytest.mark.parametrize("text, want", [
    # a token is an identifier iff it starts with an ASCII letter
    ("é", "expected identifier, got 'é'"),
    ("s(é)", "expected identifier, got 'é'"),
    ("zé", "trailing input: ['é']"),
    ("(", "expected identifier, got '('"),
    (")", "expected identifier, got ')'"),
    (",", "expected identifier, got ','"),
    ("g(z,,z)", "expected identifier, got ','"),
    ("x(", "expected ')'"),
    # x() is a node whatever its declaration, and a fault when undeclared
    ("x()", (Node("x"), False, Node("x"))),
    ("z()", (Node("z"), False, None)),
    ("s(x)", (Node("s", (Var("x"),)), True, None)),
])
def test_read_term_tokens(text, want):
    sig = Signature({"z": 0, "s": 1}, {"f": 1, "g": 2})
    try:
        got = crs._read_term(text, sig)
    except crs.CrsParseError as exc:
        got = str(exc)
    assert got == want


def random_term_text(rng, depth):
    """A term over z/0, s/1, f/1, g/2 and the undeclared h and y, with
    any number of children up to 2, so often with faults."""
    name = rng.choice("zsfghy")
    k = rng.choice((0, 0, 1, 2)) if depth else 0
    if not k:
        return name + rng.choice(("", "", "()"))
    return f"{name}({', '.join(random_term_text(rng, depth - 1) for _ in range(k))})"


def test_parse_system_reports_term_faults_as_the_reference():
    # the term's faults, noted while it is read, come out as from the
    # two-pass reading, a walk for variables and the walk of its arities
    rng = random.Random(8)
    sig = Signature({"z": 0, "s": 1}, {"f": 1, "g": 2})
    errors = (crs.CrsError, crs.CrsParseError)
    faults = 0
    for _ in range(1500):
        rules = rng.choice(("rule f(z) -> z;", "rule f(x) -> y;"))
        text = random_term_text(rng, 4)
        try:
            got = crs.parse_system(f"{PREAMBLE}{rules} term {text};").term
        except errors as exc:
            got = (type(exc), str(exc))
        try:
            want = two_pass_parse_term(text, sig)
            if not crs_is_closed(want):
                raise crs.CrsParseError(f"term declaration uses undeclared symbols: {text!r}")
            crs.CrsSystem(sig, crs.parse_system(PREAMBLE + rules).system.rules)
            check_arities(want, sig)
        except errors as exc:
            want = (type(exc), str(exc))
        assert got == want, text
        faults += isinstance(want, tuple)
    assert 300 < faults < 1500


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


# --- the compile check against the multi-pass reference ------------------------

def _positions(t):
    """The path of every subterm of t, in pre-order."""
    out = []
    todo = [((), t)]
    while todo:
        path, s = todo.pop()
        out.append(path)
        if isinstance(s, Node):
            todo += [(path + (i,), c) for i, c in reversed(list(enumerate(s.children)))]
    return out


def _subterm(t, path):
    for i in path:
        t = t.children[i]
    return t


FAULTS = {
    "undeclared": crs.UnknownSymbol,
    "arity": crs.ArityMismatch,
    "function in pattern": crs.InvalidRule,
    "head": crs.InvalidRule,
    "nonlinear": crs.NonLinearLhs,
    "unbound": crs.InvalidRule,
    "overlap": crs.OverlapError,
}


def inject(rng, sig, rules, fault):
    """rules with one fault of the kind named put into one rule, or None
    when the system has no place for it.  Each fault keeps every variable
    bound and the left side linear, unless it is that fault."""
    if not rules:
        return None
    rules = list(rules)
    k = rng.randrange(len(rules))
    lhs, rhs = Node(rules[k].head, rules[k].lhs), rules[k].rhs
    nullary = [Node(c) for c, ar in sig.constructors.items() if ar == 0]
    left = fault in ("function in pattern", "nonlinear") or \
        fault in ("undeclared", "arity") and rng.random() < 0.5
    side = lhs if left else rhs
    # the places below the head on the left, anywhere on the right
    places = [p for p in _positions(side) if p or not left]
    if fault == "undeclared" and places:
        p = rng.choice(places)
        side = crs_replace_at(side, p, Node("undeclared", (_subterm(side, p),)))
    elif fault == "arity" and nullary and isinstance(side, Node):
        # a node gets one more child; at the left root, one more argument
        p = rng.choice([p for p in _positions(side) if isinstance(_subterm(side, p), Node)])
        s = _subterm(side, p)
        side = crs_replace_at(side, p, Node(s.symbol, s.children + (nullary[0],)))
    elif fault == "function in pattern" and places:
        fs = [f for f, ar in sig.functions.items() if ar == 1 or ar > 1 and nullary]
        if not fs:
            return None
        f = rng.choice(fs)
        p = rng.choice(places)
        filler = (nullary[:1] * sig.functions[f])[1:]
        side = crs_replace_at(side, p, Node(f, (_subterm(side, p), *filler)))
    elif fault == "head":
        lhs = Node(rng.choice([*sig.constructors, "undeclared"]), lhs.children)
    elif fault == "nonlinear" and len(crs.variables(lhs)) >= 2:
        x, y = rng.sample(crs.variables(lhs), 2)
        side, rhs = apply_subst(lhs, {y: Var(x)}), apply_subst(rhs, {y: Var(x)})
    elif fault == "unbound":
        side = crs_replace_at(rhs, rng.choice(places), Var("unbound"))
    elif fault == "overlap":
        # a copy of rule k, or with nullary constructors a generalisation:
        # a pattern node becomes a fresh variable and the right side closed
        copy = rules[k]
        nodes = [p for p in _positions(lhs) if p and isinstance(_subterm(lhs, p), Node)]
        if nullary and nodes and rng.random() < 0.5:
            g = crs_replace_at(lhs, rng.choice(nodes), Var("fresh"))
            copy = Rule(g.symbol, g.children, nullary[0])
        rules.insert(rng.randrange(len(rules) + 1), copy)
        return rules
    else:
        return None
    if left:
        lhs = side
    else:
        rhs = side
    rules[k] = Rule(lhs.symbol, lhs.children, rhs)
    return rules


def raised(check, sig, rules):
    """(type, message) of the CrsError check raises, or None."""
    try:
        check(sig, rules)
    except crs.CrsError as exc:
        return type(exc), str(exc)
    return None


def validation_inputs():
    """(signature, rules) of the corpus systems, of the CBV and CBN images
    of some corpus terms, and of seeded random systems."""
    corpus = workbench.Corpus.load(CORPUS)
    systems = [e.system for e in corpus.crs_entries]
    for e in corpus.lambda_entries[:8]:
        systems += [encode.encode_cbv(e.term).system, encode.encode_cbn(e.term).system]
    rng = random.Random(19)
    systems += [random_system(rng) for _ in range(40)]
    return [(s.signature, s.rules) for s in systems]


def test_compiling_a_system_checks_it_as_the_reference_does():
    # one fault at a time: the compile raises exactly the error of the
    # multi-pass reference, and both accept every unmutated system
    rng = random.Random(5)
    met = set()
    for sig, rules in validation_inputs():
        assert raised(reference_validate, sig, rules) is None
        assert raised(crs.CrsSystem, sig, rules) is None
        for fault, error in FAULTS.items():
            for _ in range(3):
                bad = inject(rng, sig, rules, fault)
                if bad is None:
                    continue
                want = raised(reference_validate, sig, bad)
                assert want is not None and want[0] is error, (fault, want)
                assert raised(crs.CrsSystem, sig, bad) == want, fault
                met.add(fault)
    assert met == set(FAULTS)


def test_several_overlaps_raise_the_reference_pair():
    # systems whose only fault is overlap, with several overlapping pairs,
    # raise the pair that the scan of every pair meets first
    rng = random.Random(7)
    inputs = []
    for sig, rules in validation_inputs():
        for _ in range(4):
            bad = rules
            for _ in range(rng.randrange(2, 5)):
                bad = inject(rng, sig, bad, "overlap") or bad
            inputs.append((sig, bad))
    inputs += [random_patterns_system(rng) for _ in range(3000)]
    several = 0
    for sig, rules in inputs:
        want = raised(reference_validate, sig, rules)
        assert raised(crs.CrsSystem, sig, rules) == want
        if want is not None:
            pairs = [(i, j) for i in range(len(rules)) for j in range(i + 1, len(rules))
                     if reference_first_overlap([rules[i], rules[j]])[0] is not None]
            several += len(pairs) > 1
    assert several > 1000


def counted_overlap(monkeypatch, build, *args):
    """(least overlapping pair or None, rows the build compared, what it
    built or None) of build(*args), which builds match trees."""
    agree, calls = crs._agree, []
    with monkeypatch.context() as patch:
        patch.setattr(crs, "_agree", lambda a, b: calls.append(1) or agree(a, b))
        try:
            return None, len(calls), build(*args)
        except crs.OverlapError as exc:
            return exc.rules, len(calls), None


def test_overlap_work_is_linear_on_image_systems(monkeypatch):
    # the psi images of compiled terms, of 943 and 1,747 rules: no row
    # waits in a default, so building the trees compares no rows and
    # makes no more switches than the left sides have pattern nodes,
    # where the scan of every pair grows with its square
    corpus = {e.name: e for e in workbench.Corpus.load(CORPUS).crs_entries}
    for name in ("list_append", "tree_flatten"):
        e = corpus[name]
        system = encode.encode_cbn(scott.term_to_lambda(scott.ScottContext(e.system),
                                                        e.term)).system
        rules = system.rules
        assert len(rules) >= 900
        pair, compared, built = counted_overlap(monkeypatch, crs.CrsSystem,
                                                system.signature, rules)
        want, work = reference_first_overlap(rules)
        assert pair is want is None and compared == 0
        switches, todo = 0, list(built._trees.values())
        while todo:
            node = todo.pop()
            if type(node) is list:
                switches += 1
                todo += [*node[1].values(), node[2]]
        assert switches <= sum(term_size(p) for rule in rules for p in rule.lhs)
        assert work > 100 * switches


def test_overlap_work_on_variable_heavy_left_sides(monkeypatch):
    # rows with a variable where others hold constructors wait in a
    # default and are compared there pair by pair, never copied into
    # every branch: the tree build compares no more pairs than the scan
    # of every pair tries on families built from such rows
    def rows_against_columns(k):
        # f(c_i, d) and f(x, c_i): every second row has a variable first
        cs = [Node(f"c{i}") for i in range(k)]
        return ([Rule("f", (c, Node("d")), Node("d")) for c in cs]
                + [Rule("f", (Var("x"), c), Node("d")) for c in cs])

    def chains(k):
        # f(s^i(a), e) and f(x, s^i(b))
        def chain(leaf, i):
            t = Node(leaf)
            for _ in range(i):
                t = Node("s", (t,))
            return t
        return ([Rule("f", (chain("a", i), Node("e")), Node("d")) for i in range(k)]
                + [Rule("f", (Var("x"), chain("b", i)), Node("d")) for i in range(k)])

    for family in (rows_against_columns, chains, staircase):
        for k in (16, 32, 64):
            rules = family(k)
            pair, compared, _ = counted_overlap(
                monkeypatch, crs._match_tree, [(i, r.lhs) for i, r in enumerate(rules)])
            want = reference_first_overlap(rules)[0]
            assert pair == want
            # the pairs (i, j) the scan tries in order until it meets want
            pairs = [(i, j) for i in range(len(rules)) for j in range(i + 1, len(rules))]
            tried = pairs.index(want) + 1 if want else len(pairs)
            assert compared <= tried, (family.__name__, k)


def test_several_faults_are_rejected_as_by_the_reference():
    rng = random.Random(6)
    for sig, rules in validation_inputs():
        for _ in range(8):
            bad = rules
            for fault in rng.sample(sorted(FAULTS), rng.randrange(2, 5)):
                bad = inject(rng, sig, bad, fault) or bad
            assert (raised(reference_validate, sig, bad) is None) == \
                (raised(crs.CrsSystem, sig, bad) is None)


@pytest.mark.parametrize("rules, error, message", [
    # the head before its arguments
    ("rule s(f(x), y) -> y;", crs.InvalidRule, "rule 0: head 's' is not a function symbol"),
    # the left side slot by slot: both arguments before their children,
    # where the reference checks each argument whole, pattern-ness last
    ("rule g(s(s(f(x))), h(z)) -> x;", crs.UnknownSymbol, "symbol 'h' is not declared"),
    ("rule g(s(f(x)), s(z, z)) -> x;",
     crs.ArityMismatch, "symbol 's' has arity 1, applied to 2 arguments"),
    ("rule g(s(x), s(f(x))) -> x;", crs.InvalidRule, "rule 0: lhs argument is not a pattern"),
    ("rule g(s(s(x)), x) -> x;", crs.NonLinearLhs, "rule 0: variable 'x' occurs twice in the lhs"),
    # unbound right-side variables before the right side's symbols
    ("rule f(x) -> s(z, y);", crs.InvalidRule, "rule 0: rhs variables ['y'] not bound in lhs"),
    # the right side in pre-order, left to right
    ("rule f(x) -> g(s(z, z), h(x));",
     crs.ArityMismatch, "symbol 's' has arity 1, applied to 2 arguments"),
    # rule by rule, and every rule before any overlap
    ("rule f(x) -> h(x); rule f(s(x)) -> s(x, x);",
     crs.UnknownSymbol, "symbol 'h' is not declared"),
    ("rule f(z) -> z; rule f(x) -> x; rule g(x, x) -> x;",
     crs.NonLinearLhs, "rule 2: variable 'x' occurs twice in the lhs"),
])
def test_which_fault_a_rule_with_several_reports(rules, error, message):
    with pytest.raises(crs.CrsError) as exc:
        crs.parse_system(PREAMBLE + rules)
    assert (type(exc.value), str(exc.value)) == (error, message)


@pytest.mark.parametrize("rhs, error, message", [
    (Node("succ", (Node("zero"), Var("y"))),
     crs.InvalidRule, "rule 2: rhs variables ['y'] not bound in lhs"),
    (Node("succ", (Node("zero"), Var("x"))),
     crs.ArityMismatch, "symbol 'succ' has arity 1, applied to 2 arguments"),
])
def test_a_rule_that_never_fires_is_checked_when_built(rhs, error, message):
    # templates wait for a rule's first firing, but its checks do not
    sig = nat_sig(never=1)
    rules = ADD_RULES + [Rule("never", (Var("x"),), rhs)]
    with pytest.raises(crs.CrsError) as exc:
        crs.CrsSystem(sig, rules)
    assert (type(exc.value), str(exc.value)) == (error, message)
    fixed = crs.CrsSystem(sig, rules[:2] + [Rule("never", (Var("x"),), Var("x"))])
    assert crs.reduce(fixed, Node("add", (nat(3), nat(2)))).fires == (1, 3, 0)


def test_deep_terms_no_recursion_blowup():
    sig = nat_sig()
    t = nat(50_000)
    assert term_size(t) == 50_001
    assert crs.is_constructor_term(t, sig)
    assert crs.count_symbol(t, "succ") == 50_000
    assert crs_is_closed(t)


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


# --- the leftmost policy against the reference loop -------------------------------

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
        t = crs_replace_at(t, path, apply_subst(rule.rhs, subst))
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


def test_both_policies_match_reference_on_backtracking_systems():
    # nested multi-column left sides, some rows waiting in a default, and
    # right sides that build function nodes: both policies agree with the
    # reference loop on runs whose matches go back to a default hundreds
    # of times at the frames a right side builds
    rng = random.Random(40)
    compared = loaded = built = 0
    for _ in range(40):
        system = backtracking_system(rng)
        for _ in range(4):
            t = random_closed_term(rng, system.signature, 4)
            if agrees_with_reference(system, t) and random_agrees_with_reference(system, t):
                compared += 1
                at_load, at_build = run_backtracks(system, t, BUDGETS[-1])
                loaded += at_load
                built += at_build
    assert compared > 140 and loaded >= 150 and built >= 300, (compared, loaded, built)


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


@pytest.mark.parametrize("rng", [None, 0])
def test_deep_rule_sides(rng):
    # the slots, the match tree and the plan of 10^4-deep rule sides are
    # built without recursion; the plan builder is the input's, which
    # test_machine_deep_run holds to linear time on a 10^5-deep input
    depth = 10_000
    assert depth > sys.getrecursionlimit()
    sig = Signature({"zero": 0, "succ": 1}, {"f": 1, "g": 1, "h": 1, "p": 1})
    deep, calls = Var("x"), Var("x")
    for _ in range(depth):
        deep, calls = Node("succ", (deep,)), Node("p", (calls,))
    system = crs.validate_system(sig, [
        Rule("f", (deep,), Var("x")),                   # left side succ^n(x)
        Rule("g", (Var("x"),), deep),                   # right side succ^n(x)
        Rule("h", (Var("x"),), calls),                  # right side p^n(x)
        Rule("p", (Var("x"),), Var("x"))])

    def run(t):
        out = crs.reduce(system, t, 2 * depth, rng=None if rng is None else random.Random(rng))
        return out.kind, out.steps, term_size(out.term)

    assert run(Node("f", (nat(depth + 1),))) == ("constructor", 1, 2)
    assert run(Node("f", (nat(depth - 1),))) == ("stuck", 0, depth + 1)
    assert run(Node("g", (nat(1),))) == ("constructor", 1, depth + 2)
    assert run(Node("h", (nat(1),))) == ("constructor", depth + 1, 2)


# --- register templates ------------------------------------------------------------

def template_systems():
    """The corpus systems, the CBV and CBN images of the corpus terms, the
    systems and images of the bench families, seeded random systems and
    one whose right side holds nullary function nodes."""
    corpus = workbench.Corpus.load(CORPUS)
    systems = [e.system for e in corpus.crs_entries]
    systems.append(crs.validate_system(nat_sig(one=0, two=0), ADD_RULES + [
        Rule("one", (), nat(1)), Rule("two", (), Node("add", (Node("one"), Node("one"))))]))
    for e in corpus.lambda_entries:
        phi = encode.encode_cbv(e.term)
        systems += [phi.system, encode.encode_cbn(e.term, phi.registry.table).system]
    workloads, rng = bench_workloads(), random.Random(7)
    for family in ("add", "mul", "reverse", "flatten", "b1"):
        systems.append(crs.parse_system(workloads.rewrite_instance(family, 2, rng)[0]).system)
    for family, n in (("mult", 2), ("pow", 4)):
        m = lam.parse(workloads.church_instance(family, n, rng)[0])
        systems += [encode.encode_cbv(m).system, encode.encode_cbn(m).system]
    return systems + [random_system(rng) for _ in range(60)]


def largest_constants(t, sig):
    """The closed function-free subterms of t that are not below
    another, left to right."""
    if crs_is_closed(t) and not crs.contains_function(t, sig):
        return [t]
    if type(t) is Var:
        return []
    return [c for kid in t.children for c in largest_constants(kid, sig)]


def test_templates_build_the_instantiated_right_sides():
    # rule r's template holds the largest closed function-free subterms
    # of the right side, and run on the slots of a match builds the right
    # side under the match; each node it builds is a value exactly when
    # it is function-free, a frame counts and links its frame children,
    # and the redexes it reports are those of the right side, in post-order
    rng = random.Random(23)
    built = 0
    for system in template_systems():
        sig = system.signature
        if 0 not in sig.constructors.values():
            continue
        pos = {id(rule): r for r, rule in enumerate(system.rules)}
        for r, rule in enumerate(system.rules):
            subst = {x: random_value(rng, sig, 2) for p in rule.lhs for x in crs.variables(p)}
            hit = system._match([rule.head, [apply_subst(p, subst) for p in rule.lhs], None, 0, 0])
            assert hit is not None and hit[1] == r
            template = system._templates[r] or crs._template(system, r)
            assert list(map(id, template[0])) == \
                list(map(id, largest_constants(rule.rhs, sig)))
            reds = []
            val = crs._build(system._trees, template, hit[2], reds)
            want = apply_subst(rule.rhs, subst)
            assert crs._unframe(val) == want
            todo = [val]
            while todo:
                s = todo.pop()
                if type(s) is Node:
                    assert not crs.contains_function(s, sig)
                    continue
                assert crs.contains_function(crs._unframe(s), sig)
                frames = [i for i, c in enumerate(s[1]) if type(c) is list]
                assert s[4] == len(frames)
                assert all(s[1][i][2] is s and s[1][i][3] == i for i in frames)
                todo += s[1]
            assert [(k, crs._unframe(frame)) for frame, k, _ in reds] == [
                (pos[id(rule)], _subterm(want, path)) for path, rule, _ in redexes(system, want)]
            built += 1
    assert built > 1_500


@pytest.mark.parametrize("rng", [None, 0])
def test_reduce_compiles_nothing(monkeypatch, rng):
    # building a system compiles no right side, and a run compiles each
    # rule it fires once, however many steps it takes: its input is
    # loaded; a second run compiles nothing
    compiled = []
    compile_term = crs._compile_term
    monkeypatch.setattr(crs, "_compile_term",
                        lambda t, *args: compiled.append(t) or compile_term(t, *args))
    policy = None if rng is None else random.Random(rng)
    system = add_system()
    assert compiled == []
    out = crs.reduce(system, Node("add", (nat(0), nat(2))), 10_000, rng=policy)
    assert (out.steps, list(map(id, compiled))) == (1, [id(ADD_RULES[0].rhs)])
    system = add_system()
    compiled.clear()
    t = Node("add", (nat(300), nat(2)))
    for _ in range(2):
        out = crs.reduce(system, t, 10_000, rng=policy)
        assert (out.kind, out.steps, out.fires) == ("constructor", 301, (1, 300))
        assert list(map(id, compiled)) == [id(ADD_RULES[1].rhs), id(ADD_RULES[0].rhs)]


@pytest.mark.parametrize("rng", [None, 0])
def test_build_matches_its_frames_without_a_call(monkeypatch, rng):
    # a step walks the match tree of each function frame that its right
    # side builds in _build itself: CrsSystem._match is called only by
    # _load, at the input's function nodes over values, and by reduce's
    # climb, at an ancestor that a value leaves with no frame child
    callers = []
    match = crs.CrsSystem._match
    monkeypatch.setattr(crs.CrsSystem, "_match", lambda self, frame: callers.append(
        sys._getframe(1).f_code.co_name) or match(self, frame))
    policy = None if rng is None else random.Random(rng)
    out = crs.reduce(add_system(), Node("add", (nat(300), nat(2))), 10_000, rng=policy)
    assert (out.kind, out.steps) == ("constructor", 301)
    assert callers == ["_load"]
    callers.clear()
    phi = encode.encode_cbv(lam.parse(
        "(\\m. \\n. \\f. m (n f)) (\\f. \\x. f (f x)) (\\f. \\x. f (f (f x))) (\\a. a) (\\b. b)"))
    out = crs.reduce(phi.system, phi.term, 10_000, rng=policy)
    assert (out.kind, out.steps) == ("constructor", 14)
    assert set(callers) == {"_load", "reduce"} and len(callers) < out.steps, callers


@pytest.mark.parametrize("text, error, message", [
    ("add(succ(x), zero)", crs.CrsError, "reduction input must be closed"),
    # a variable comes before a signature fault
    ("add(foo(), x)", crs.CrsError, "reduction input must be closed"),
    ("add(foo(), succ(zero))", crs.UnknownSymbol, "symbol 'foo' is not declared"),
    # else the first fault in pre-order
    ("add(succ(zero))", crs.ArityMismatch, "symbol 'add' has arity 2, applied to 1 arguments"),
    ("add(succ(zero, zero), foo())",
     crs.ArityMismatch, "symbol 'succ' has arity 1, applied to 2 arguments"),
    ("add(zero, succ(foo(zero), zero))",
     crs.ArityMismatch, "symbol 'succ' has arity 1, applied to 2 arguments"),
    ("add(add(zero, zero), succ(foo()))", crs.UnknownSymbol, "symbol 'foo' is not declared"),
])
@pytest.mark.parametrize("rng", [None, 0])
def test_reduce_input_faults(text, error, message, rng):
    t = crs.parse_term(text, nat_sig())
    with pytest.raises(crs.CrsError) as exc:
        crs.reduce(add_system(), t, 10, rng=None if rng is None else random.Random(rng))
    assert (type(exc.value), str(exc.value)) == (error, message)


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
