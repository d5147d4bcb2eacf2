import hashlib
import random
import time
import types
from pathlib import Path

import pytest

from normbench import crs, graphs, lam, scott
from normbench.crs import Node, Rule, Signature, Var
from normbench.lam import App, abss, apps
from tests_util import (bench_workloads, cbv_step, default_staircase, fixpoint_family,
                        lam_is_closed, nat_term, random_patterns_system, random_system,
                        reference_first_overlap, reference_free_set, staircase)


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
        assert lam_is_closed(e)
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


def test_match_rejects_overlap_before_copying_rows(ctx, monkeypatch):
    # 64 sequences of which 0 and 2 are the least overlapping pair: a
    # split that copies each variable row into every branch takes
    # hundreds of thousands of groups for 16 of them, so none is
    # translated; the translation of the first group takes its binders
    def no_translation(*args):
        raise AssertionError("a group was translated")

    monkeypatch.setattr(scott, "_binders", no_translation)
    alphas = [rule.lhs for rule in staircase(64)]
    t0 = time.perf_counter()
    with pytest.raises(scott.MatchOverlapError, match="^sequences 0 and 2 overlap$"):
        scott.compile_match(ctx, alphas, 64)
    assert time.perf_counter() - t0 < 1.0


def test_rows_waiting_in_a_default_are_translated_once_per_group():
    # the staircase of test_match_tree_stays_linear_when_variables_share_columns
    # at n rows: each switch's rows with a variable enter every branch of
    # the copying split, and the constructors that no row names there
    # share one translation of them.  The printed terms at 3 to 5 rows
    # are those of a split that translated them once per constructor,
    # which took 17 s to compile 6 rows
    digests = {
        3: "de7fc73c5cb05e6a6b70962ce3e895ed392c33ff0808c41681979d906b5dc6f9",
        4: "7e6e8a471373a75c6177aed22abdc945d703687e5e270cbf62659f0db4ce0ed5",
        5: "6f2640081933d34f7f32fab4646ee46b0f7680c18af51a4101ff9b2452713d55",
    }
    for n, beta_steps in zip(range(3, 7), (77, 121, 176, 242)):
        system, t = default_staircase(n)
        c = scott.ScottContext(system)
        verdict = scott.simulate_and_check(c, t)
        assert (verdict.consistent, verdict.beta_steps) == (True, beta_steps)
        if n in digests:
            printed = lam.to_str(scott.term_to_lambda(c, t)).encode()
            assert hashlib.sha256(printed).hexdigest() == digests[n]
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        scott.term_to_lambda(scott.ScottContext(system), t)
        best = min(best, time.perf_counter() - t0)
    assert best < 1.0


def test_match_overlap_is_the_first_pair_a_pairwise_scan_meets():
    # seeded random sequences of linear patterns: compile_match names the
    # least overlapping (i, j), as a scan of every pair in order does, and
    # compiles when no pair overlaps
    sig = Signature({"zero": 0, "succ": 1, "pair": 2}, {"id": 1})
    c = scott.ScottContext(crs.validate_system(sig, [Rule("id", (Var("x"),), Var("x"))]))
    rng = random.Random(25)
    count = iter(range(10**6))

    def pattern(depth):
        if depth == 0 or rng.random() < 0.2:
            return Var(f"x{next(count)}")
        sym = rng.choice(tuple(sig.constructors))
        return Node(sym, tuple(pattern(depth - 1) for _ in range(sig.arity(sym))))

    pairs, compiled = [], 0
    for _ in range(400):
        m = rng.randint(0, 3)
        alphas = [tuple(pattern(3) for _ in range(m)) for _ in range(rng.randint(1, 8))]
        want = reference_first_overlap([Rule("f", a, Node("zero")) for a in alphas])[0]
        if want is None:
            scott.compile_match(c, alphas, m)
            compiled += 1
        else:
            with pytest.raises(scott.MatchOverlapError,
                               match=f"^sequences {want[0]} and {want[1]} overlap$"):
                scott.compile_match(c, alphas, m)
            pairs.append(want)
    assert len(pairs) > 100 and compiled > 100 and len(set(pairs)) > 10


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
    hs, bound = fixpoint_family(1)
    assert bound == 2
    v = lam.parse("\\u. u")
    target = App(v, lam.Abs("x", apps(hs[0], [v, lam.Var("x")])))
    assert steps_to(App(hs[0], v), target, 2) == 2


def test_fixpoint_pair():
    hs, bound = fixpoint_family(2)
    assert bound == 4
    v1 = lam.parse("\\u. \\w. u")
    v2 = lam.parse("\\u. \\w. w u")
    unf = [lam.Abs("x", apps(h, [v1, v2, lam.Var("x")])) for h in hs]
    target = apps(v2, unf)
    assert steps_to(apps(hs[1], [v1, v2]), target, 4) == 4


def test_fixpoint_unfoldings_are_values():
    hs, _ = fixpoint_family(3)
    for h in hs:
        assert lam_is_closed(h)
    # the eta-guarded unfolding shape is an abstraction, hence a value
    v = [lam.parse("\\a. \\b. \\c. a")] * 3
    t = apps(hs[0], v)
    out = lam.reduce(t, "cbv", 6)
    assert out.steps == 6  # 2n steps to the unfolded application


def test_fixpoint_bound_randomized():
    rng = random.Random(3)
    for n in range(1, 6):
        hs, bound = fixpoint_family(n)
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


@pytest.mark.parametrize("term,nf,beta", [("f(zero, succ(zero), b)", "succ(succ(zero))", 70),
                                          ("f(succ(zero), zero, b)", "succ(zero)", 58)])
def test_rebuild_after_variable_columns(term, nf, beta):
    # the column decided is the second one, so the rebuild wrapper of
    # f(y, z, b) passes the variable of the first column before the
    # rebuilt scrutinee
    c, t = load("constructor zero/0;\nconstructor succ/1;\nconstructor a/0;\n"
                "constructor b/0;\nfunction f/3;\nrule f(x, zero, a) -> x;\n"
                "rule f(y, z, b) -> succ(z);\n", term)
    v = scott.simulate_and_check(c, t)
    assert crs.term_to_str(v.crs_term) == nf
    assert v.consistent is True
    assert v.beta_steps == beta


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
    assert lam_is_closed(scott.interpret_function(ctx, "f"))
    t = Node("f", (nat_term(depth + 1),))
    out = run(scott.term_to_lambda(ctx, t), 1_000_000)
    assert out.kind == "normal"
    assert lam.alpha_eq(out.term, scott.scott_encode(ctx, nat_term(1)))
    # both rewrite engines walk f's match tree, 6,400 switches deep
    crs_out, graph_out = crs.reduce(system, t), graphs.graph_reduce(t, system)
    assert crs_out.steps == graph_out.steps == 1 and crs_out.term == nat_term(1)
    assert graphs.graph_to_term(graph_out.graph) == nat_term(1)


# --- each part built and checked closed once per system ------------------------------

CRS_DIR = Path(__file__).resolve().parents[1] / "corpus" / "crs"


def test_all_variable_rule_compiles_at_dag_cost():
    # the matcher for f(x0..x11) over four nullary constructors unfolds to
    # about 5^12 nodes; compiling and checking it walk its distinct objects
    m = 12
    xs = ", ".join(f"x{i}" for i in range(m))
    text = ("constructor a/0;\nconstructor b/0;\nconstructor c/0;\nconstructor d/0;\n"
            f"function f/{m};\nrule f({xs}) -> x0;\n")
    c, t = load(text, f"f({', '.join(['b'] * m)})")
    t0 = time.perf_counter()
    scott.term_to_lambda(c, t)
    v = scott.simulate_and_check(c, t)
    assert time.perf_counter() - t0 < 1.0
    assert v.consistent is True
    assert v.beta_steps == 256


def compiled_projection(*args):
    """The compiled term of f(args) for f(x0..x8) -> x0 over four nullary
    constructors; f(b..b) unfolds to 5,971,117 nodes."""
    xs = ", ".join(f"x{i}" for i in range(9))
    text = ("constructor a/0;\nconstructor b/0;\nconstructor c/0;\nconstructor d/0;\n"
            f"function f/9;\nrule f({xs}) -> x0;\n")
    return scott.term_to_lambda(*load(text, f"f({', '.join(args)})"))


def test_compiled_size_costs_the_dag():
    # lam.size counts the 5,971,117 nodes of the compiled f(b..b) in one
    # walk over its distinct objects
    compiled = compiled_projection(*"bbbbbbbbb")
    t0 = time.perf_counter()
    assert lam.size(compiled) == 5_971_117
    assert time.perf_counter() - t0 < 0.1


def test_compiled_term_compares_and_hashes_at_dag_cost():
    # hash of the compiled f(b..b), and == against a second build, each
    # in one walk over its distinct objects; the build for f(c, b..b)
    # differs from it
    first, second, other = (compiled_projection(*args)
                            for args in ("bbbbbbbbb", "bbbbbbbbb", "cbbbbbbbb"))
    assert first is not second
    t0 = time.perf_counter()
    hash(first)
    assert time.perf_counter() - t0 < 0.1
    t0 = time.perf_counter()
    assert first == second and hash(first) == hash(second)
    assert first != other and other != first
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("body,closed", [("oops", False), ("k", True)])
def test_closedness_check_decides_free_variables(monkeypatch, body, closed):
    # a constructor function with a free variable: "k" is bound by the
    # all-variable matcher's branches around every use, "oops" by nothing
    monkeypatch.setattr(scott, "constructor_function",
                        lambda ctx, name: lam.Abs("p1", lam.Var(body)))
    c = scott.ScottContext(nat_system())
    if closed:
        assert lam_is_closed(scott.interpret_function(c, "add"))
    else:
        with pytest.raises(AssertionError):
            scott.interpret_function(c, "add")


def fixpoint_args(term, h):
    """V1..Vh of an interpretation Hi V1..Vh."""
    args = []
    for _ in range(h):
        args.append(term.arg)
        term = term.fun
    return args[::-1]


def test_interpretations_share_their_parts():
    c = scott.ScottContext(crs.parse_system((CRS_DIR / "nat_mul.trs").read_text()).system)
    add, mul = scott.interpret_function(c, "add"), scott.interpret_function(c, "mul")
    assert scott.interpret_function(c, "add") is add
    for v_add, v_mul in zip(fixpoint_args(add, 2), fixpoint_args(mul, 2), strict=True):
        assert v_add is v_mul
    assert scott.bottom(c) is scott.bottom(c)
    assert scott.constructor_function(c, "succ") is scott.constructor_function(c, "succ")
    # the pieces repeated within the parts are built once per context
    assert scott._binders(c, "x", 2) is scott._binders(c, "x", 2)
    assert scott._rebuilt_node(c, 1, "z", 0) is scott._rebuilt_node(c, 1, "z", 0)
    assert scott._rebuild_wrapper(c, 2, 0, 1) is scott._rebuild_wrapper(c, 2, 0, 1)
    assert scott._fail(c, ("x1", "k1")) is scott._fail(c, ("x1", "k1"))
    # \w. w B_zero B_succ spill: the spill of the last argument is the
    # error value, and the zero branch rebuilds zero from the shared node
    succ = scott.strict_constructor(c, "succ")
    assert succ.body.arg is scott.bottom(c)
    assert succ.body.fun.fun.arg.arg is scott._rebuilt_node(c, 1, "z", 0)
    # every continuation (\w. w) k.. passed on unchanged holds one \w. w
    ident = lam.Abs("w", lam.Var("w"))
    passed = {id(t.fun) for t in distinct_objects(fixpoint_args(add, 2))
              if isinstance(t, App) and t.fun == ident}
    assert passed == {id(c._ident)}


def distinct_objects(terms):
    """The objects the terms are made of, each once."""
    seen = {}
    todo = list(terms)
    while todo:
        s = todo.pop()
        if id(s) not in seen:
            seen[id(s)] = s
            if isinstance(s, lam.Abs):
                todo.append(s.body)
            elif isinstance(s, App):
                todo += (s.fun, s.arg)
    return list(seen.values())


def test_compiled_parts_share_repeated_pieces():
    # flatten's parts H1 H2 V1 V2 hold 750 distinct objects when each
    # builder call makes its own binder names, rebuilt nodes, wrappers
    # and fail branches, against 473 structurally distinct subterms
    c = scott.ScottContext(crs.parse_system(bench_workloads().SYSTEMS["flatten"]).system)
    scott.interpret_function(c, "flatten")
    hs, vs = c._parts
    assert len(distinct_objects(hs + vs)) == 524


def test_composed_free_sets_equal_the_unfolded_walk():
    # every term a builder made, down to each branch, carries the free
    # variables a walk over its unfolding finds: over the corpus systems,
    # the benchmark's systems and seeded random ones
    systems = [crs.parse_system(path.read_text()).system
               for path in sorted(CRS_DIR.glob("*.trs"))]
    systems += [crs.parse_system(bench_workloads().SYSTEMS[name]).system
                for name in ("add", "mul", "reverse", "flatten", "b1")]
    rng = random.Random(2606)
    systems += [random_system(rng) for _ in range(60)]
    parts = 0
    for system in systems:
        c = scott.ScottContext(system)
        for fname in c.functions:
            scott.interpret_function(c, fname)
        for t, free in c._built.free.values():
            assert free == reference_free_set(t), lam.to_str(t)
            parts += 1
    assert parts > 3_000


def test_compiled_terms_and_beta_counts_unchanged():
    # the printed interpretations and compiled start terms of the
    # rewrite-scale inputs (seed 3), as they were compiled before the
    # parts shared their repeated pieces, and their beta counts
    workloads, rng = bench_workloads(), random.Random(3)
    digest = hashlib.sha256()
    steps = []
    for fam in workloads.REWRITE_SCALE:
        for n in fam.sizes:
            f = crs.parse_system(workloads.rewrite_instance(fam.name, n, rng)[0])
            c = scott.ScottContext(f.system)
            for fname in c.functions:
                digest.update(lam.to_str(scott.interpret_function(c, fname)).encode() + b"\n")
            digest.update(lam.to_str(scott.term_to_lambda(c, f.term)).encode() + b"\n")
            steps.append(scott.simulate_and_check(c, f.term).beta_steps)
    assert digest.hexdigest() == (
        "14398a4776f735e896de0873d795a82f8e1d36b8382af5fca4045ffc388715b3")
    assert steps == [392, 760, 1496, 355, 1079, 3703, 117, 304, 945, 57, 304, 903, 61]


def test_compiled_matchers_unchanged():
    # the printed matchers of seeded row sets deeper and wider than the
    # rewrite-scale ones: the left sides of each head of
    # random_patterns_system that overlap nowhere, nested up to depth 3
    # in up to 3 columns, variables and constructors mixed, with a random
    # half of the variable-free rows delayed
    rng = random.Random(31)
    digest = hashlib.sha256()
    sets = rows = delayed = 0
    for _ in range(600):
        sig, rules = random_patterns_system(rng)
        c = scott.ScottContext(crs.validate_system(sig, []))
        by_head: dict[str, list] = {}
        for rule in rules:
            by_head.setdefault(rule.head, []).append(rule)
        for head, group in by_head.items():
            alphas = [rule.lhs for rule in group]
            if len(alphas) < 2 or reference_first_overlap(group)[0]:
                continue
            flags = [not any(map(crs.variables, a)) and rng.random() < 0.5 for a in alphas]
            m = scott.compile_match(c, alphas, sig.functions[head], flags)
            digest.update(lam.to_str(m).encode() + b"\n")
            sets, rows, delayed = sets + 1, rows + len(alphas), delayed + sum(flags)
    assert (sets, rows, delayed) == (243, 536, 73)
    assert digest.hexdigest() == (
        "63c8fa8d24e2934a79d8e8b0d7bafe0d71dc5a1342baaaa92c3a8acb34d43ce4")


# a system whose compiled f runs the builder site named
NAT_DECL = "constructor zero/0;\nconstructor succ/1;\n"
SITES = {
    "strict_constructor": "rule f(x) -> succ(x);\n",
    "_translate": "rule f(x) -> x;\n",
    "_all_vars_matcher": "rule f(x) -> x;\n",
    "_rebuild_wrapper": "rule f(zero, zero) -> zero;\nrule f(x, succ(y)) -> x;\n",
}


@pytest.mark.parametrize("inside", [True, False], ids=["built", "outside"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_free_variable_at_each_builder_site_is_found(monkeypatch, site, inside):
    # the site's term gains a free variable, by a builder call that
    # composes it or as a term no builder made, which is walked; each
    # builder around the site carries it up to the check on H1..Hh V1..Vh
    text = SITES[site]
    arity = 1 if "f(x)" in text else 2
    c = scott.ScottContext(crs.parse_system(
        f"{NAT_DECL}function f/{arity};\n{text}").system)
    assert lam_is_closed(scott.interpret_function(c, "f"))
    original = getattr(scott, site)

    def with_free_variable(ctx, *args):
        t = original(ctx, *args)
        if inside:
            return ctx._built.build((), t, (lam.Var("oops"),))
        return App(t, lam.Var("oops"))

    monkeypatch.setattr(scott, site, with_free_variable)
    c = scott.ScottContext(c.system)
    with pytest.raises(AssertionError):
        scott.interpret_function(c, "f")


def test_unbound_right_side_variable_is_found():
    # a rule the rewrite checker would reject: its right side's y is bound
    # by nothing, and its set is its own name
    sig = Signature({"zero": 0, "succ": 1}, {"f": 1})
    system = types.SimpleNamespace(signature=sig, rules=(
        Rule("f", (Node("zero"),), Node("zero")),
        Rule("f", (Node("succ", (Var("x"),)),), Node("succ", (Var("y"),)))))
    with pytest.raises(AssertionError):
        scott.interpret_function(scott.ScottContext(system), "f")


@pytest.mark.parametrize("path", sorted(CRS_DIR.glob("*.trs")), ids=lambda p: p.stem)
def test_corpus_interpretations_closed_by_unfolded_walk(path):
    c = scott.ScottContext(crs.parse_system(path.read_text()).system)
    for fname in c.functions:
        assert lam_is_closed(scott.interpret_function(c, fname))
