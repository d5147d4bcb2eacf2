import itertools
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from normbench import lam, workbench
from normbench.lam import Abs, App, Var
from tests_util import (
    cbn_step, cbv_redexes, cbv_step, church_two, contract, lam_is_closed, random_closed,
    reference_cbv_reduce, reference_free_set, replace_at, subterm_at, two_tower)


def p(s):
    return lam.parse(s)


# --- basics -------------------------------------------------------------------

def test_size():
    assert lam.size(Var("x")) == 1
    assert lam.size(p("\\x. x")) == 2
    assert lam.size(p("x y")) == 3
    assert lam.size(p("(\\x. x x) (\\y. y y)")) == 9


def test_free_vars_closed_identity():
    assert lam.free_vars(p("\\x. x")) == ()
    assert lam_is_closed(p("\\x. x"))


def test_free_vars_ordered():
    assert lam.free_vars(p("(\\x. x y) z")) == ("y", "z")


def test_free_vars_example_body():
    # body of the outer abstraction in (\x. (\y. x) x) (\z. z)
    assert lam.free_vars(p("(\\y. x) x")) == ("x",)


def test_substitute_closed_value():
    got = lam.substitute(p("x x"), "x", p("\\y. y"))
    assert got == p("(\\y. y) (\\y. y)")


def test_substitute_under_binder():
    got = lam.substitute(p("(\\y. x) x"), "x", p("\\z. z"))
    assert got == p("(\\y. \\z. z) (\\z. z)")


def test_substitute_other_var():
    assert lam.substitute(Var("y"), "x", p("\\z. z")) == Var("y")


def test_substitute_avoids_capture():
    # (\y. x){y/x} must not capture the free y
    got = lam.substitute(p("\\y. x"), "x", Var("y"))
    assert isinstance(got, Abs)
    assert got.binder != "y"
    assert got.body == Var("y")
    assert lam.alpha_eq(got, Abs("w", Var("y"))) is False or got.body == Var("y")


def test_alpha_eq():
    assert lam.alpha_eq(p("\\x. x"), p("\\y. y"))
    assert lam.alpha_eq(p("\\x. x y"), p("\\z. z y"))
    assert not lam.alpha_eq(p("\\x. x y"), p("\\z. z w"))
    assert not lam.alpha_eq(p("\\x. \\y. x"), p("\\x. \\y. y"))


# --- single steps ---------------------------------------------------------------

def test_cbv_step_single_redex():
    assert cbv_step(p("(\\x. x) (\\y. y)")) == p("\\y. y")


def test_cbv_step_self_application():
    assert cbv_step(p("(\\x. x x) (\\y. y y)")) == p("(\\y. y y) (\\y. y y)")


def test_cbv_step_not_under_lambda():
    assert cbv_step(p("\\x. (\\y. y) (\\z. z)")) is None


def test_cbv_step_argument_must_be_value():
    t = p("(\\x. x) ((\\y. y) (\\z. z))")
    assert cbv_step(t) == p("(\\x. x) (\\z. z)")


def test_cbn_step_substitutes_unevaluated():
    t = p("(\\x. \\y. x) ((\\z. z) (\\z. z))")
    assert cbn_step(t) == p("\\y. (\\z. z) (\\z. z)")


def test_cbn_step_identity():
    assert cbn_step(p("(\\x. x) (\\y. y)")) == p("\\y. y")


def test_cbn_step_free_head():
    assert cbn_step(p("x ((\\y. y) (\\z. z))")) is None


# --- full reduction --------------------------------------------------------------

def test_reduce_dup_drop_example():
    out = lam.reduce(p("(\\x. (\\y. x) x) (\\z. z)"), "cbv", 10)
    assert out.kind == "normal"
    assert out.steps == 2
    assert out.term == p("\\z. z")


def test_reduce_omega_exhausts():
    out = lam.reduce(p("(\\x. x x) (\\y. y y)"), "cbv", 50)
    assert out.kind == "exhausted"
    assert out.steps == 50
    assert lam.alpha_eq(out.term, p("(\\x. x x) (\\y. y y)"))


def test_tower_steps_linear():
    # Hand-unrolled: 2two applied to a value takes one step to its normal
    # form, and the tower reduces innermost-first, so Time(M_n) = n.
    for n in (1, 2, 5, 10):
        out = lam.reduce(two_tower(n), "cbv", 10_000)
        assert out.kind == "normal"
        assert out.steps == n


def test_tower_hand_unrolled_n1():
    t = two_tower(1)
    s1 = cbv_step(t)
    assert s1 is not None and cbv_step(s1) is None
    assert lam.alpha_eq(s1, p("\\x. (\\x. x) ((\\x. x) x)"))


def test_tower_hand_unrolled_n2():
    # the inner tower must become a value before the outer redex fires
    w1 = p("\\x. (\\x. x) ((\\x. x) x)")
    t = two_tower(2)
    s1 = cbv_step(t)
    assert lam.alpha_eq(s1, App(church_two(), w1))
    s2 = cbv_step(s1)
    assert lam.alpha_eq(s2, Abs("x", App(w1, App(w1, Var("x")))))
    assert cbv_step(s2) is None


def test_reduce_cbn_of_cbv_divergent():
    t = App(p("\\x. \\y. y"), p("(\\x. x x) (\\x. x x)"))
    out = lam.reduce(t, "cbn", 100)
    assert out.kind == "normal"
    assert out.steps == 1
    assert lam.alpha_eq(out.term, p("\\y. y"))
    assert lam.reduce(t, "cbv", 100).kind == "exhausted"


def test_budget_zero():
    out = lam.reduce(p("(\\x. x) (\\y. y)"), "cbv", 0)
    assert out.kind == "exhausted" and out.steps == 0


def _step_loop(t, step, budget):
    # the reference: iterate the step relation, (kind, steps, term)
    steps = 0
    while True:
        nxt = step(t)
        if nxt is None:
            return "normal", steps, t
        if steps == budget:
            return "exhausted", steps, t
        t, steps = nxt, steps + 1


def _assert_machine_matches(t, strategy, budget):
    step = cbv_step if strategy == "cbv" else cbn_step
    fast = lam.reduce(t, strategy, budget)
    assert (fast.kind, fast.steps, fast.term) == _step_loop(t, step, budget)


def test_machine_matches_step_loop():
    for budget in (0, 3, 7, 150):
        rng = random.Random(1)
        for _ in range(200):
            _assert_machine_matches(random_closed(rng, 24), "cbv", budget)


# --- properties -------------------------------------------------------------------

def test_diamond_step_count_invariance():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        t = random_closed(rng, 20)
        base = lam.reduce(t, "cbv", 200)
        if base.kind != "normal":
            continue
        checked += 1
        for seed in range(3):
            out = lam.reduce(t, "cbv", 400, rng=random.Random(seed))
            assert out.kind == "normal"
            assert out.steps == base.steps
            assert lam.alpha_eq(out.term, base.term)
    assert checked > 50


def test_step_additivity():
    rng = random.Random(11)
    for _ in range(100):
        t = random_closed(rng, 20)
        for strategy in ("cbv", "cbn"):
            whole = lam.reduce(t, strategy, 60)
            b1 = 7
            part = lam.reduce(t, strategy, b1)
            rest = lam.reduce(part.term, strategy, 60 - b1)
            assert part.steps + rest.steps == whole.steps
            assert rest.term == whole.term


def _head_redexes(t):
    # independent enumeration of the head relation: beta at the root, or
    # recursively in the left part of an application
    out = []
    if isinstance(t, App):
        if isinstance(t.fun, Abs):
            out.append(lam.substitute(t.fun.body, t.fun.binder, t.arg))
        out.extend(App(s, t.arg) for s in _head_redexes(t.fun))
    return out


def test_cbn_step_deterministic():
    rng = random.Random(19)
    for _ in range(200):
        t = random_closed(rng, 20)
        reducts = _head_redexes(t)
        assert len(reducts) <= 1
        got = cbn_step(t)
        if reducts:
            assert got == reducts[0]
        else:
            assert got is None


def test_cbn_machine_matches_step_loop():
    for budget in (0, 3, 7, 150):
        rng = random.Random(23)
        for _ in range(200):
            _assert_machine_matches(random_closed(rng, 22), "cbn", budget)


@pytest.mark.parametrize("strategy", ["cbv", "cbn"])
def test_machines_match_step_loop_on_corpus(strategy):
    corpus = workbench.Corpus.load(Path(__file__).resolve().parents[1] / "corpus")
    assert len(corpus.lambda_entries) >= 60
    for entry in corpus.lambda_entries:
        _assert_machine_matches(entry.term, strategy, workbench.DEFAULT_BUDGET)


# --- the environment machines: open inputs, long runs, deep terms -------------------

@pytest.mark.parametrize("strategy", ["cbv", "cbn"])
@pytest.mark.parametrize("src, expected", [
    ("(\\x. \\y. x) y", "\\w. y"),
    ("(\\x. \\y. x y) (\\z. y)", "\\w. (\\z. y) w"),
])
def test_open_input_readback_avoids_capture(strategy, src, expected):
    # the free y must stay free: readback renames the binder as substitute does
    step = cbv_step if strategy == "cbv" else cbn_step
    out = lam.reduce(p(src), strategy, 10)
    assert (out.kind, out.steps) == ("normal", 1)
    assert lam.alpha_eq(out.term, p(expected))
    assert lam.alpha_eq(out.term, step(p(src)))


def test_cbn_omega_runs_in_constant_time_per_step():
    # a variable argument is pushed as its closure; an indirection per
    # step would make this run quadratic (minutes instead of well under 1 s)
    omega = p("(\\x. x x) (\\x. x x)")
    start = time.perf_counter()
    out = lam.reduce(omega, "cbn", 100_000)
    assert time.perf_counter() - start < 30
    assert (out.kind, out.steps) == ("exhausted", 100_000)
    assert out.term == omega


@pytest.mark.parametrize("strategy", ["cbv", "cbn"])
@pytest.mark.parametrize("nesting", ["left", "right"])
def test_machines_on_deep_applications(strategy, nesting):
    n = 10**5
    ident = p("\\x. x")
    t = ident
    for _ in range(n):
        t = App(t, ident) if nesting == "left" else App(ident, t)
    out = lam.reduce(t, strategy, 2 * n)
    assert (out.kind, out.steps) == ("normal", n)
    assert lam.size(out.term) == 2      # not ==: dataclass equality recurses


def test_closedness_preserved():
    rng = random.Random(13)
    for _ in range(200):
        t = random_closed(rng, 20)
        assert lam_is_closed(t)
        nxt = cbv_step(t)
        if nxt is not None:
            assert lam_is_closed(nxt)
        nxt = cbn_step(t)
        if nxt is not None:
            assert lam_is_closed(nxt)


def test_closed_cbv_never_needs_renaming():
    # every fired redex of a closed term has a closed argument
    rng = random.Random(17)
    for _ in range(100):
        t = random_closed(rng, 20)
        for _ in range(50):
            path = next(cbv_redexes(t), None)
            if path is None:
                break
            redex = subterm_at(t, path)
            assert lam_is_closed(redex.arg)
            t = replace_at(t, path, contract(redex))


# --- the random CBV policy against the substituting loop ----------------------------

def _assert_random_matches(t, seed, budget, exact=True):
    # the machine and the reference loop draw alike, so both rngs end in
    # the same state; on open inputs the binder names may differ
    r_got, r_want = random.Random(seed), random.Random(seed)
    got = lam.reduce(t, "cbv", budget, r_got)
    want = reference_cbv_reduce(t, budget, r_want)
    assert (got.kind, got.steps) == (want.kind, want.steps), lam.to_str(t)
    assert r_got.getstate() == r_want.getstate()
    if exact:
        assert lam.to_str(got.term) == lam.to_str(want.term), lam.to_str(t)
    else:
        assert lam.alpha_eq(got.term, want.term), lam.to_str(t)


def test_random_policy_matches_reference_draw_for_draw():
    corpus = workbench.Corpus.load(Path(__file__).resolve().parents[1] / "corpus")
    rng = random.Random(5)
    terms = [e.term for e in corpus.lambda_entries] + [random_closed(rng, 24)
                                                       for _ in range(1000)]
    assert len(terms) >= 1060
    for t in terms:
        for seed in range(4):
            for budget in (0, 1, 3, 10, 400):
                _assert_random_matches(t, seed, budget)


@pytest.mark.parametrize("src", [
    "(\\x. \\y. x (\\y. y)) (\\q. y)",
    "(\\x. \\y. x y) (\\z. y)",
    "(\\x. \\y. \\y_0. x y_0) y",
    "(\\x. x) ((\\a. \\y. a) y) ((\\b. \\y. b y) y)",
    "(\\f. \\y. f y) (\\z. y) ((\\x. \\y. x) (\\w. y))",
    "y ((\\x. \\y. x) y) ((\\x. \\z. x z) (\\w. z))",
    "(\\x. (\\y. x y) (\\y. x)) (\\q. y)",
])
def test_random_policy_on_open_inputs_with_capture(src):
    for seed in range(4):
        for budget in (1, 100):
            _assert_random_matches(p(src), seed, budget, exact=False)


def test_random_policy_on_random_open_inputs():
    rng = random.Random(29)
    for _ in range(500):
        t = random_open(rng, rng.randrange(1, 30))
        for seed in range(2):
            _assert_random_matches(t, seed, 200, exact=False)


def test_random_policy_church_numeral_in_linear_time():
    # c_n I I: the second step builds the n applications of the body and
    # each other step is O(1); the substituting loop took 15 s at n = 4000
    n = 10**5
    body = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    ident = p("\\x. x")
    t = App(App(Abs("f", Abs("x", body)), ident), ident)
    start = time.perf_counter()
    out = lam.reduce(t, "cbv", 2 * n, random.Random(0))
    assert time.perf_counter() - start < 10
    assert (out.kind, out.steps) == ("normal", n + 2)
    assert out.term == ident


# --- surface syntax -----------------------------------------------------------------

@st.composite
def terms(draw, depth=4, env=()):
    cls = draw(st.sampled_from(["var", "abs", "app"] if env else ["abs", "app"]))
    if depth <= 1:
        if env:
            return Var(draw(st.sampled_from(env)))
        cls = "abs"
    if cls == "var":
        return Var(draw(st.sampled_from(env)))
    if cls == "abs":
        b = draw(st.sampled_from(["x", "y", "z", "f", "w'"]))
        return Abs(b, draw(terms(depth=depth - 1, env=env + (b,))))
    return App(draw(terms(depth=depth - 1, env=env)),
               draw(terms(depth=depth - 1, env=env)))


@given(terms())
@settings(max_examples=300)
def test_parse_print_roundtrip(t):
    assert lam.parse(lam.to_str(t)) == t


def test_printer_minimal_parens():
    assert lam.to_str(p("\\x. x y")) == "\\x. x y"
    assert lam.to_str(App(App(Var("a"), Var("b")), Var("c"))) == "a b c"
    assert lam.to_str(App(Var("a"), App(Var("b"), Var("c")))) == "a (b c)"
    assert lam.to_str(App(Abs("x", Var("x")), Var("y"))) == "(\\x. x) y"
    assert lam.to_str(Abs("x", App(Var("x"), Abs("y", Var("y"))))) == "\\x. x (\\y. y)"


def test_parse_errors():
    for bad in ["", "(", "\\x x", "\\. x", "x )", "\\x. \\", "?"]:
        with pytest.raises(lam.LamParseError):
            lam.parse(bad)


def test_identifiers_with_primes_and_digits():
    t = p("\\f1. f1 x'2")
    assert lam.to_str(t) == "\\f1. f1 x'2"


def test_deep_terms_no_recursion_blowup():
    t = Var("x")
    for _ in range(5000):
        t = Abs("x", t)
    assert lam.size(t) == 5001
    assert lam.free_vars(t) == ()
    assert lam.alpha_eq(t, t)
    assert lam.substitute(t, "y", p("\\z. z")) == t


def test_readback_walks_shared_subterms_once():
    # D_22 unfolds to 2^22 copies of I, but is 23 objects: the readback of
    # the exhausted run must not walk the unfolding to find free variables
    ident = p("\\x. x")
    d = ident
    for _ in range(22):
        d = App(d, d)
    t0 = time.perf_counter()
    out = lam.reduce(App(App(ident, ident), d), "cbv", 0)
    assert time.perf_counter() - t0 < 1.0
    assert out.kind == "exhausted" and out.term.arg is d
    # the same free variables on a shared open term as on its unfolding
    x = App(Var("x"), p("\\y. y"))
    shared = App(Abs("x", x), x)
    assert lam._free_set_shared(shared, {}) == reference_free_set(shared) == {"x"}


def open_doubling(n, names=("y", "x")):
    """D_n with the open D_0 = y (\\x. x) and D_{i+1} = D_i D_i: n + 1
    application objects, 2^n copies of D_0 unfolded."""
    y, x = names
    d = App(Var(y), Abs(x, Var(x)))
    for _ in range(n):
        d = App(d, d)
    return d


def unfolded_names(t):
    """Every variable and binder name of t, by a walk of the unfolding."""
    names = set()
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Var):
            names.add(s.name)
        elif isinstance(s, Abs):
            names.add(s.binder)
            todo.append(s.body)
        else:
            todo += (s.fun, s.arg)
    return names


def test_open_readback_walks_shared_subterms_once():
    # the readback of an open input collects its names over the objects
    # of the term, not over its 2^30 unfolded copies of D_0
    ident = p("\\x. x")
    d = open_doubling(30)
    t0 = time.perf_counter()
    out = lam.reduce(App(App(ident, ident), d), "cbv", 0)
    assert time.perf_counter() - t0 < 1.0
    assert out.kind == "exhausted" and out.term.arg is d
    for n in range(6):
        d = open_doubling(n)
        assert lam._names(d) == unfolded_names(d) == {"x", "y"}
        t = App(Abs("z", App(d, open_doubling(n, ("w", "z")))), d)
        assert lam._names(t) == unfolded_names(t) == {"w", "x", "y", "z"}


def random_dag(rng, n):
    """n term objects over three names, each built from earlier ones, so
    later objects share earlier ones, some under binders of their names."""
    pool = [Var(name) for name in "xyz"]
    for _ in range(n):
        r = rng.random()
        if r < 0.15:
            pool.append(Var(rng.choice("xyz")))
        elif r < 0.5:
            pool.append(Abs(rng.choice("xyz"), rng.choice(pool)))
        else:
            pool.append(App(rng.choice(pool), rng.choice(pool)))
    return pool


def unfolded_size(t, memo):
    todo = [t]
    while todo:
        s = todo.pop()
        if id(s) in memo:
            continue
        kids = [] if type(s) is Var else [s.body] if type(s) is Abs else [s.fun, s.arg]
        missing = [k for k in kids if id(k) not in memo]
        if missing:
            todo += [s] + missing
        else:
            memo[id(s)] = 1 + sum(memo[id(k)] for k in kids)
    return memo[id(t)]


def test_free_set_shared_matches_unfolded_walk():
    # every object of each DAG, in a random order, through one shared
    # memo and through a fresh one: the same set as the unfolded walk
    s = App(Var("x"), Var("y"))
    for t in (App(Abs("x", s), s), App(s, Abs("x", s)), Abs("y", App(Abs("x", s), s))):
        assert lam._free_set_shared(t, {}) == reference_free_set(t)
        memo = {}
        assert lam._free_set_shared(s, memo) == {"x", "y"}
        assert lam._free_set_shared(t, memo) == reference_free_set(t)
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        pool = random_dag(rng, rng.randrange(1, 40))
        sizes, memo = {}, {}
        for t in rng.sample(pool, len(pool)):
            if unfolded_size(t, sizes) > 20_000:
                continue
            want = reference_free_set(t)
            assert lam._free_set_shared(t, memo) == want
            assert lam._free_set_shared(t, {}) == want
            checked += 1
    assert checked > 3000


def test_free_set_shared_keeps_shared_objects_only():
    # a set kept per object would cost quadratic memory on a tree whose
    # subterms have many free names, as \b0 .. \bn. x b0 .. bn: the memo
    # keeps the root's set and those of the objects reached twice
    bs = [f"b{i}" for i in range(2000)]
    t = lam.abss(bs, lam.apps(Var("x"), [Var(b) for b in bs]))
    memo = {}
    assert lam._free_set_shared(t, memo) == {"x"}
    assert list(memo) == [id(t)]
    d = open_doubling(5)
    memo = {}
    assert lam._free_set_shared(d, memo) == {"y"}
    assert len(memo) == 6 and memo[id(d.fun)] == {"y"}


# --- iterative substitution and printing --------------------------------------------

DEEP = 20_000


def reference_substitute(t, x, v, counter=None):
    """The recursive substitution that asks reference_free_set at every
    abstraction whether x occurs free below it: the reference on open
    values.  Like substitute, it numbers its fresh names from 0 in each
    top-level call."""
    fv_v = reference_free_set(v)
    counter = itertools.count() if counter is None else counter

    def go(t):
        if isinstance(t, Var):
            return v if t.name == x else t
        if isinstance(t, Abs):
            if t.binder == x or x not in reference_free_set(t.body):
                return t
            if t.binder in fv_v:
                y = lam.fresh_name(t.binder, fv_v | reference_free_set(t.body), counter)
                return Abs(y, go(reference_substitute(t.body, t.binder, Var(y), counter)))
            return Abs(t.binder, go(t.body))
        return App(go(t.fun), go(t.arg))

    return go(t)


def random_open(rng, size):
    """Random term of at most size nodes over four names, free or bound."""
    if size <= 1:
        return Var(rng.choice("xyzw"))
    if rng.random() < 0.4:
        return Abs(rng.choice("xyzw"), random_open(rng, size - 1))
    k = rng.randrange(1, size)
    return App(random_open(rng, k), random_open(rng, max(1, size - k)))


def test_substitute_open_matches_reference():
    # the same fresh names in the same order: structurally equal results
    rng = random.Random(31)
    renamed = 0
    for _ in range(3000):
        t = random_open(rng, rng.randrange(1, 25))
        v = random_open(rng, rng.randrange(1, 6))
        x = rng.choice("xyzw")
        want = reference_substitute(t, x, v)
        got = lam.substitute(t, x, v)
        assert got == want, (lam.to_str(t), x, lam.to_str(v))
        renamed += "_" in lam.to_str(got)     # t and v use no "_": a fresh name
    assert renamed > 300


def test_substitute_open_value_deep():
    # \b1 ... \bn. x b1 ... bn with x := z: one pass, no recursion
    assert DEEP > sys.getrecursionlimit()
    bs = [f"b{i}" for i in range(DEEP)]
    t = lam.abss(bs, lam.apps(Var("x"), [Var(b) for b in bs]))
    got = lam.substitute(t, "x", Var("z"))
    want = lam.abss(bs, lam.apps(Var("z"), [Var(b) for b in bs]))
    assert lam.to_str(got) == lam.to_str(want)  # not ==: dataclass equality recurses


def reference_to_str(t):
    """The recursive printer."""

    def go(t, ctx):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Abs):
            s = f"\\{t.binder}. {go(t.body, 'top')}"
            return s if ctx == "top" else f"({s})"
        s = f"{go(t.fun, 'fun')} {go(t.arg, 'arg')}"
        return f"({s})" if ctx == "arg" else s

    return go(t, "top")


@given(terms(depth=5))
@settings(max_examples=200)
def test_to_str_matches_recursive_printer(t):
    assert lam.to_str(t) == reference_to_str(t)


def test_to_str_deep():
    assert DEEP > sys.getrecursionlimit()
    a = Var("a")
    chain, left, right, args = Var("x"), a, a, a
    for _ in range(DEEP):
        chain = Abs("x", chain)
        left = App(left, a)
        right = App(a, right)
        args = App(a, Abs("x", args))
    assert lam.to_str(chain) == "\\x. " * DEEP + "x"
    assert lam.to_str(left) == " ".join(["a"] * (DEEP + 1))
    assert lam.to_str(right) == "a (" * (DEEP - 1) + "a a" + ")" * (DEEP - 1)
    assert lam.to_str(args) == "a (\\x. " * DEEP + "a" + ")" * DEEP


def test_substitute_renames_in_one_pass():
    # \z. ... \z. x with x := z renames every binder; the renaming no
    # longer walks each renamed body again (2.2 s at n = 2000 before)
    n = 2000
    t = Var("x")
    for _ in range(n):
        t = Abs("z", t)
    start = time.perf_counter()
    got = lam.substitute(t, "x", Var("z"))
    assert time.perf_counter() - start < 1
    binders = set()
    while isinstance(got, Abs):
        binders.add(got.binder)
        got = got.body
    assert got == Var("z")
    assert len(binders) == n and "z" not in binders


# --- depth beyond the recursion limit -------------------------------------------------

def test_parse_deep_parentheses():
    depth = 100_000
    assert depth > sys.getrecursionlimit()
    assert lam.parse("(" * depth + "x" + ")" * depth) == Var("x")
    with pytest.raises(lam.LamParseError, match=r"expected '\)', got None"):
        lam.parse("(" * depth + "x" + ")" * (depth - 1))


def test_parse_deep_abstractions_in_arguments():
    assert DEEP > sys.getrecursionlimit()
    text = "f (\\x. " * DEEP + "x" + ")" * DEEP
    t = lam.parse(text)
    assert lam.size(t) == 3 * DEEP + 1
    assert lam.to_str(t) == text


def test_cbv_step_deep():
    # a a (... ((\y. y) (\z. z))) under the argument spine, and the
    # function spine ((\y. y) (\z. z)) a ... a
    assert DEEP > sys.getrecursionlimit()
    redex = App(Abs("y", Var("y")), Abs("z", Var("z")))
    right, left = redex, redex
    for _ in range(DEEP):
        right = App(Var("a"), right)
        left = App(left, Var("a"))
    # the left one goes on with (\z. z) a a ... a -> a a ... a
    cases = ((right, (1,) * DEEP, 1, None),
             (left, (0,) * DEEP, 2, lam.apps(Var("a"), [Var("a")] * (DEEP - 1))))
    for t, path, steps, nf in cases:
        assert list(cbv_redexes(t)) == [path]
        want = replace_at(t, path, Abs("z", Var("z")))
        assert subterm_at(want, path) == Abs("z", Var("z"))
        for rng in (None, random.Random(1)):
            assert lam.to_str(cbv_step(t, rng)) == lam.to_str(want)
        out = lam.reduce(t, rng=random.Random(2))
        assert (out.kind, out.steps) == ("normal", steps)
        assert lam.to_str(out.term) == lam.to_str(nf or want)


def test_cbn_step_deep_left_spine():
    assert DEEP > sys.getrecursionlimit()
    t, want = App(Abs("y", Var("y")), Abs("z", Var("z"))), Abs("z", Var("z"))
    for _ in range(DEEP):
        t, want = App(t, Var("a")), App(want, Var("a"))
    assert lam.to_str(cbn_step(t)) == lam.to_str(want)
    assert cbn_step(lam.apps(Var("a"), [Var("a")] * DEEP)) is None
