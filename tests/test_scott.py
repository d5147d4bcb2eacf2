import random
from pathlib import Path

import pytest

from normbench import crs, lam, scott
from normbench.crs import Node, Rule, Signature, Var
from normbench.lam import App, abss, apps
from tests_util import cbv_step, nat_term


def nat_system(extra_rules=(), extra_fns=None):
    sig = Signature({"zero": 0, "succ": 1}, {"add": 2, **(extra_fns or {})})
    rules = [
        Rule("add", (Node("zero"), Var("y")), Var("y")),
        Rule("add", (Node("succ", (Var("x"),)), Var("y")),
             Node("succ", (Node("add", (Var("x"), Var("y"))),))),
        *extra_rules,
    ]
    return crs.validate_system(sig, rules)


@pytest.fixture(scope="module")
def ctx():
    return scott.ScottContext(nat_system())


def run(t, budget=100_000):
    return lam.reduce(t, "cbv", budget)


def steps_to(term, target, limit):
    """Steps of the deterministic run until the term alpha-equals target."""
    for k in range(limit + 1):
        if lam.alpha_eq(term, target):
            return k
        nxt = cbv_step(term)
        assert nxt is not None, "normal form reached before target"
        term = nxt
    raise AssertionError("target not reached within limit")


# --- encodings -------------------------------------------------------------------

def test_scott_encode_shapes(ctx):
    assert lam.alpha_eq(scott.scott_encode(ctx, nat_term(0)),
                        lam.parse("\\a. \\b. \\c. a"))
    one = scott.scott_encode(ctx, nat_term(1))
    assert lam.alpha_eq(one, lam.parse("\\a. \\b. \\c. b (\\a. \\b. \\c. a)"))
    assert lam.alpha_eq(scott.bottom(ctx), lam.parse("\\a. \\b. \\c. c"))


def test_scott_encode_injective(ctx):
    seen = []
    for t in [nat_term(0), nat_term(1), nat_term(2), nat_term(3)]:
        e = scott.scott_encode(ctx, t)
        assert lam.is_closed(e)
        assert not any(lam.alpha_eq(e, o) for o in seen)
        seen.append(e)


def test_constructor_function_steps(ctx):
    # applying the constructor function takes exactly arity steps
    tgt = scott.scott_encode(ctx, nat_term(1))
    t = App(scott.constructor_function(ctx, "succ"), scott.scott_encode(ctx, nat_term(0)))
    assert steps_to(t, tgt, 1) == 1
    assert lam.alpha_eq(scott.constructor_function(ctx, "zero"),
                        scott.scott_encode(ctx, nat_term(0)))


def test_strict_constructor_success(ctx):
    t = App(scott.strict_constructor(ctx, "succ"), scott.scott_encode(ctx, nat_term(2)))
    out = run(t)
    assert lam.alpha_eq(out.term, scott.scott_encode(ctx, nat_term(3)))


def test_strict_constructor_propagates_error(ctx):
    t = App(scott.strict_constructor(ctx, "succ"), scott.bottom(ctx))
    out = run(t)
    assert lam.alpha_eq(out.term, scott.bottom(ctx))


def test_strict_constructor_nullary_is_value(ctx):
    assert lam.alpha_eq(scott.strict_constructor(ctx, "zero"),
                        scott.scott_encode(ctx, nat_term(0)))


# --- pattern matching ---------------------------------------------------------------

def markers(n):
    # distinct inert continuations: marker i consumes its bindings and
    # returns a recognizable closed value
    outs = []
    for i in range(n):
        sel = abss([f"m{j+1}" for j in range(n)], lam.Var(f"m{i+1}"))
        outs.append(sel)
    return outs


def test_match_selects_branch(ctx):
    alphas = [(Node("succ", (Var("x"),)),), (Node("zero"),)]
    m = scott.compile_match(ctx, alphas, 1)
    sel1, sel2 = markers(2)
    v1 = abss(["b1"], sel1)   # consumes the one binding of succ(x)
    v2 = sel2                 # zero binds nothing
    out = run(apps(m, [scott.scott_encode(ctx, nat_term(1)), v1, v2]))
    assert lam.alpha_eq(out.term, sel1)
    out = run(apps(m, [scott.scott_encode(ctx, nat_term(0)), v1, v2]))
    assert lam.alpha_eq(out.term, sel2)


def test_match_delivers_bindings_in_order(ctx):
    # continuation rebuilds add-arguments: check binding order via the result
    alphas = [(Node("succ", (Var("x"),)), Var("y"))]
    m = scott.compile_match(ctx, alphas, 2)
    # V x y = encoded pair via succ^x applied... simpler: V returns x
    v_fst = abss(["bx", "by"], lam.Var("bx"))
    v_snd = abss(["bx", "by"], lam.Var("by"))
    args = [scott.scott_encode(ctx, nat_term(3)), scott.scott_encode(ctx, nat_term(1))]
    out = run(apps(m, args + [v_fst]))
    assert lam.alpha_eq(out.term, scott.scott_encode(ctx, nat_term(2)))  # x of succ(x)
    out = run(apps(m, args + [v_snd]))
    assert lam.alpha_eq(out.term, scott.scott_encode(ctx, nat_term(1)))


def test_match_no_match_gives_error(ctx):
    alphas = [(Node("zero"),)]
    m = scott.compile_match(ctx, alphas, 1)
    out = run(apps(m, [scott.scott_encode(ctx, nat_term(4)), markers(1)[0]]))
    assert lam.alpha_eq(out.term, scott.bottom(ctx))


def test_match_error_scrutinee_gives_error(ctx):
    alphas = [(Node("succ", (Var("x"),)),), (Node("zero"),)]
    m = scott.compile_match(ctx, alphas, 1)
    v1 = abss(["b1"], markers(2)[0])
    out = run(apps(m, [scott.bottom(ctx), v1, markers(2)[1]]))
    assert lam.alpha_eq(out.term, scott.bottom(ctx))


def test_match_empty_is_constant_error(ctx):
    m = scott.compile_match(ctx, [], 2)
    out = run(apps(m, [scott.scott_encode(ctx, nat_term(0)),
                       scott.scott_encode(ctx, nat_term(1))]))
    assert lam.alpha_eq(out.term, scott.bottom(ctx))


def test_match_rejects_overlap(ctx):
    with pytest.raises(scott.MatchOverlapError):
        scott.compile_match(ctx, [(Var("x"),), (Node("zero"),)], 1)


def test_match_steps_independent_of_scrutinee_size(ctx):
    # same branch, same root constructors: identical counts at any size
    alphas = [(Node("succ", (Var("x"),)), Var("y")), (Node("zero"), Var("y"))]
    m = scott.compile_match(ctx, alphas, 2)
    v1 = abss(["bx", "by"], markers(2)[0])
    v2 = abss(["by"], markers(2)[1])
    counts = set()
    for k in (2, 20, 200):
        t = apps(m, [scott.scott_encode(ctx, nat_term(k)),
                     scott.scott_encode(ctx, nat_term(5)), v1, v2])
        out = run(t)
        assert lam.alpha_eq(out.term, markers(2)[0])
        counts.add(out.steps)
    assert len(counts) == 1


# --- fixed points -----------------------------------------------------------------

def test_fixpoint_single():
    hs, bound = scott.fixpoint_family(1)
    assert bound == 2
    v = lam.parse("\\u. u")
    target = App(v, lam.Abs("x", apps(hs[0], [v, lam.Var("x")])))
    assert steps_to(App(hs[0], v), target, 2) == 2


def test_fixpoint_pair():
    hs, bound = scott.fixpoint_family(2)
    assert bound == 4
    v1 = lam.parse("\\u. \\w. u")
    v2 = lam.parse("\\u. \\w. w u")
    unf = [lam.Abs("x", apps(h, [v1, v2, lam.Var("x")])) for h in hs]
    target = apps(v2, unf)
    assert steps_to(apps(hs[1], [v1, v2]), target, 4) == 4


def test_fixpoint_unfoldings_are_values():
    hs, _ = scott.fixpoint_family(3)
    for h in hs:
        assert lam.is_closed(h)
    # the eta-guarded unfolding shape is an abstraction, hence a value
    v = [lam.parse("\\a. \\b. \\c. a")] * 3
    t = apps(hs[0], v)
    out = lam.reduce(t, "cbv", 6)
    assert out.steps == 6  # 2n steps to the unfolded application


def test_fixpoint_bound_randomized():
    rng = random.Random(3)
    for n in range(1, 6):
        hs, bound = scott.fixpoint_family(n)
        vals = [abss([f"q{j}" for j in range(n + 1)], lam.Var(f"q{rng.randrange(n + 1)}"))
                for _ in range(n)]
        i = rng.randrange(n)
        unf = [lam.Abs("x", apps(h, vals + [lam.Var("x")])) for h in hs]
        target = apps(vals[i], unf)
        assert steps_to(apps(hs[i], vals), target, bound) <= bound


# --- function interpretation ----------------------------------------------------------

def test_interpret_add(ctx):
    f = scott.interpret_function(ctx, "add")
    t = apps(f, [scott.scott_encode(ctx, nat_term(0)), scott.scott_encode(ctx, nat_term(1))])
    out = run(t)
    assert lam.alpha_eq(out.term, scott.scott_encode(ctx, nat_term(1)))


def test_interpret_function_no_rules():
    sig = Signature({"zero": 0, "succ": 1}, {"f": 1})
    system = crs.validate_system(sig, [])
    c = scott.ScottContext(system)
    t = App(scott.interpret_function(c, "f"), scott.scott_encode(c, nat_term(2)))
    out = run(t)
    assert lam.alpha_eq(out.term, scott.bottom(c))


def test_interpret_loop_diverges():
    sig = Signature({"zero": 0}, {"loop": 1})
    system = crs.validate_system(
        sig, [Rule("loop", (Var("x"),), Node("loop", (Var("x"),)))])
    c = scott.ScottContext(system)
    t = App(scott.interpret_function(c, "loop"), scott.scott_encode(c, Node("zero")))
    assert lam.reduce(t, "cbv", 2000).kind == "exhausted"


# --- the simulation check ---------------------------------------------------------------

def test_simulate_add(ctx):
    v = scott.simulate_and_check(ctx, Node("add", (nat_term(1), nat_term(1))), 100)
    assert v.crs_kind == "constructor" and v.crs_steps == 2
    assert v.beta_kind == "normal"
    assert v.consistent is True
    assert v.ratio is not None and v.ratio < 100


def test_simulate_stuck():
    sig = Signature({"zero": 0, "succ": 1}, {"f": 1})
    system = crs.validate_system(
        sig, [Rule("f", (Node("succ", (Var("x"),)),), Node("zero"))])
    c = scott.ScottContext(system)
    v = scott.simulate_and_check(c, Node("f", (Node("zero"),)), 100)
    assert v.crs_kind == "stuck"
    assert lam.alpha_eq(v.beta_term, scott.bottom(c))
    assert v.consistent is True


def test_simulate_loop_both_exhaust():
    sig = Signature({"zero": 0}, {"loop": 1})
    system = crs.validate_system(
        sig, [Rule("loop", (Var("x"),), Node("loop", (Var("x"),)))])
    c = scott.ScottContext(system)
    v = scott.simulate_and_check(c, Node("loop", (Node("zero"),)), 50)
    assert v.crs_kind == "exhausted" and v.beta_kind == "exhausted"
    assert v.consistent is True


def test_simulate_linear_overhead(ctx):
    # marginal beta cost per rewrite step is exactly constant in the tail
    betas = []
    for n in range(1, 9):
        v = scott.simulate_and_check(ctx, Node("add", (nat_term(n), nat_term(2))), 1000)
        assert v.consistent is True
        betas.append((v.crs_steps, v.beta_steps))
    margins = [(b2 - b1) / (n2 - n1)
               for (n1, b1), (n2, b2) in zip(betas, betas[1:])]
    assert len(set(margins[2:])) == 1


def test_pattern_variables_shaped_like_gensyms(ctx):
    # user rules may name their variables anything, including names the
    # matcher compiler would otherwise pick for spliced children
    sig = Signature({"zero": 0, "succ": 1}, {"f": 2})
    rules = [Rule("f", (Node("succ", (Var("mv1"),)), Var("mv2")), Var("mv1")),
             Rule("f", (Node("zero"), Var("mv2")), Var("mv2"))]
    c = scott.ScottContext(crs.validate_system(sig, rules))
    v = scott.simulate_and_check(c, Node("f", (nat_term(3), nat_term(1))), 100)
    assert v.consistent is True
    assert v.crs_term == nat_term(2)


def test_mixed_term_compositional(ctx):
    # function symbol nested under a constructor: add(succ(add(0,1)), 1)
    t = Node("add", (Node("succ", (Node("add", (nat_term(0), nat_term(1))),)), nat_term(1)))
    v = scott.simulate_and_check(ctx, t, 100)
    assert v.consistent is True
    assert v.crs_term == nat_term(3)


# --- continuations run only once their rule is selected ---------------------------------

NULLARY = "constructor c0/0;\nconstructor c1/0;\n"
# the variable x meets the nullary c0 while column 2 is still undecided
REBUILD = NULLARY + ("function f/2;\nfunction h/1;\n"
                     "rule f(x, c0) -> h(x);\nrule f(c1, c1) -> c0;\n")


def load(text, term):
    f = crs.parse_system(f"{text}term {term};\n")
    return scott.ScottContext(f.system), f.term


def test_variable_free_rule_calling_a_function():
    # f0(c0) -> f0(f1(c0)) used to run its rhs on every call of f0
    text = NULLARY + ("function f0/1;\nfunction f1/1;\n"
                      "rule f0(c0) -> f0(f1(c0));\nrule f0(c1) -> c0;\n"
                      "rule f1(c1) -> f0(c1);\n")
    c, t = load(text, "f1(f0(c0))")
    v = scott.simulate_and_check(c, t, 60)
    assert (v.crs_kind, v.crs_steps) == ("stuck", 1)
    assert v.beta_kind == "normal"
    assert lam.alpha_eq(v.beta_term, scott.bottom(c))
    assert v.consistent is True


@pytest.mark.parametrize("term,kind", [("f(c0, c1)", "stuck"),
                                       ("f(c1, c1)", "constructor")])
def test_rebuild_without_binders_waits_for_other_columns(term, kind):
    c, t = load(REBUILD + "rule h(y) -> h(y);\n", term)
    v = scott.simulate_and_check(c, t, 60)
    assert v.crs_kind == kind
    assert v.consistent is True


def test_delayed_rebuild_is_forced_once_selected():
    c, t = load(REBUILD + "rule h(y) -> y;\n", "f(c0, c0)")
    v = scott.simulate_and_check(c, t, 60)
    assert v.crs_term == Node("c0")
    assert v.consistent is True


def test_unselected_rhs_costs_nothing():
    # the stuck input never selects f(x, c0), so the cost of h is irrelevant
    steps = set()
    for h_rules in ("rule h(y) -> y;\n",
                    "rule h(c0) -> h(c1);\nrule h(c1) -> c1;\n",
                    "rule h(y) -> h(y);\n"):
        c, t = load(REBUILD + h_rules, "f(c0, c1)")
        v = scott.simulate_and_check(c, t, 60)
        assert v.crs_kind == "stuck" and v.consistent is True
        steps.add(v.beta_steps)
    assert len(steps) == 1


def test_match_forces_delayed_continuation(ctx):
    alphas = [(Node("succ", (Var("x"),)),), (Node("zero"),)]
    m = scott.compile_match(ctx, alphas, 1, delayed=[False, True])
    sel1, sel2 = markers(2)
    out = run(apps(m, [scott.scott_encode(ctx, nat_term(0)),
                       abss(["b1"], sel1), lam.Abs("u", sel2)]))
    assert lam.alpha_eq(out.term, sel2)
    with pytest.raises(scott.ScottError):
        scott.compile_match(ctx, alphas, 1, delayed=[True, False])


def test_value_continuations_keep_their_step_count():
    # reverse(nil) -> nil binds nothing but its rhs is already a value
    f = crs.parse_system((Path(__file__).resolve().parents[1]
                          / "corpus" / "crs" / "list_reverse.trs").read_text())
    v = scott.simulate_and_check(scott.ScottContext(f.system), f.term, 10_000)
    assert v.consistent is True
    assert v.beta_steps == 576


# --- depth beyond the recursion limit -------------------------------------------------

def test_term_to_lambda_deep_nested_calls():
    depth = 20_000
    t = Node("zero")
    for _ in range(depth):
        t = Node("add", (t, Node("zero")))
    ctx = scott.ScottContext(nat_system())
    m = scott.term_to_lambda(ctx, t)
    add, zero = scott.interpret_function(ctx, "add"), scott.scott_encode(ctx, Node("zero"))
    for _ in range(depth):
        assert lam.alpha_eq(m.arg, zero)
        assert m.fun.fun is add
        m = m.fun.arg
    assert lam.alpha_eq(m, zero)


def test_interpret_function_deep_pattern():
    # f(succ^6400(x)) -> x: the matcher nests one sub-matcher per succ
    depth = 6400
    pat = Var("x")
    for _ in range(depth):
        pat = Node("succ", (pat,))
    sig = Signature({"zero": 0, "succ": 1}, {"f": 1})
    system = crs.validate_system(sig, [Rule("f", (Node("zero"),), Node("zero")),
                                       Rule("f", (pat,), Var("x"))])
    ctx = scott.ScottContext(system)
    assert lam.is_closed(scott.interpret_function(ctx, "f"))
    out = run(scott.term_to_lambda(ctx, Node("f", (nat_term(depth + 1),))), 1_000_000)
    assert out.kind == "normal"
    assert lam.alpha_eq(out.term, scott.scott_encode(ctx, nat_term(1)))
