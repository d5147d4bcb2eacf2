import random
import sys
import time
from pathlib import Path

import pytest

from normbench import crs, encode, lam, scott, workbench
from normbench.crs import Node
from normbench.encode import APP, CAPP

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def p(s):
    return lam.parse(s)


def con_of(img, src):
    """Constructor node for an abstraction of the image's registry."""
    t = encode._image_term(p(src), img.registry)
    assert isinstance(t, Node)
    return t


# --- CBV encoding ----------------------------------------------------------------

def test_encode_self_application():
    img = encode.encode_cbv(p("(\\x. x x) (\\y. y y)"))
    # both abstractions are alpha-equal, so the image is app(c, c)
    assert isinstance(img.term, Node) and img.term.symbol == APP
    u, v = img.term.children
    assert u == v
    assert len(img.registry.by_name) == 1
    # one step reproduces the term itself: the self-application loops
    nxt = rewrite_step(img.system, img.term)
    assert nxt == img.term


def test_encode_dup_drop_example():
    img = encode.encode_cbv(p("(\\x. (\\y. x) x) (\\z. z)"))
    outer = con_of(img, "\\x. (\\y. x) x")
    ident = con_of(img, "\\z. z")
    assert img.term == Node(APP, (outer, ident))
    # \y. x has the free variable x, so its constructor is unary
    inner = img.registry.lookup(
        encode._image_term(p("\\y. x"), img.registry).symbol)
    assert inner.arity == 1 and inner.free == ("x",)


def test_encode_closed_abstraction_nullary():
    img = encode.encode_cbv(p("\\x. x"))
    assert img.term == Node(img.term.symbol)
    assert img.registry.lookup(img.term.symbol).arity == 0


def test_encode_open_term_rejected():
    with pytest.raises(encode.OpenTermError):
        encode.encode_cbv(p("x y"))


def test_phi_reduction_two_step_trace():
    img = encode.encode_cbv(p("(\\x. (\\y. x) x) (\\z. z)"))
    ident = con_of(img, "\\z. z")
    t1 = rewrite_step(img.system, img.term)
    inner_name = encode._image_term(p("\\y. x"), img.registry).symbol
    assert t1 == Node(APP, (Node(inner_name, (ident,)), ident))
    t2 = rewrite_step(img.system, t1)
    assert t2 == ident
    assert rewrite_step(img.system, t2) is None


def test_readback_constructor():
    img = encode.encode_cbv(p("(\\x. (\\y. x) x) (\\z. z)"))
    ident = con_of(img, "\\z. z")
    assert encode.readback(ident, img.registry) == p("\\z. z")


def test_readback_definition_clauses():
    img = encode.encode_cbv(p("(\\x. \\y. x) (\\z. z)"))
    assert lam.alpha_eq(encode.readback(img.term, img.registry), img.source)


def test_readback_counterexample_term():
    # c for \x. y applied to a frozen redex: reads back under the binder
    img = encode.encode_cbv(p("(\\y'. (\\x. y') ((\\z. z) (\\z. z))) (\\q. q)"))
    cxy = encode._image_term(p("\\x. y'"), img.registry)
    ident = con_of(img, "\\z. z")
    t = Node(cxy.symbol, (Node(APP, (ident, ident)),))
    got = encode.readback(t, img.registry)
    assert lam.alpha_eq(got, p("\\x. (\\z. z) (\\z. z)"))
    assert not encode.is_canonical(t, img.system.signature)


def test_readback_inverts_encode():
    rng = random.Random(5)
    from tests_util import random_closed
    for _ in range(150):
        m = random_closed(rng, 24)
        img = encode.encode_cbv(m)
        assert lam.alpha_eq(encode.readback(img.term, img.registry), m)


from hypothesis import given, settings
from tests_util import (
    cbv_redexes, closed_terms, contract, replace_at, rewrite_step, same_structure, subterm_at,
    two_tower)


@given(closed_terms())
@settings(max_examples=200)
def test_readback_inverts_encode_property(m):
    img = encode.encode_cbv(m)
    assert lam.alpha_eq(encode.readback(img.term, img.registry), m)
    img2 = encode.encode_cbn(m)
    assert lam.alpha_eq(encode.readback(img2.term, img2.registry), m)


@given(closed_terms())
@settings(max_examples=100)
def test_images_canonical_property(m):
    img = encode.encode_cbv(m)
    assert encode.is_canonical(img.term, img.system.signature)
    img2 = encode.encode_cbn(m)
    assert encode.psi_is_canonical(img2.term, img2.system.signature, img2.registry)


def test_is_canonical():
    img = encode.encode_cbv(p("(\\x. x x) (\\y. y y)"))
    sig = img.system.signature
    assert encode.is_canonical(img.term, sig)
    c = img.term.children[0]
    assert encode.is_canonical(c, sig)
    # a function symbol under a constructor is not canonical
    img2 = encode.encode_cbv(p("(\\y'. (\\x. y') ((\\z. z) (\\z. z))) (\\q. q)"))
    cxy = encode._image_term(p("\\x. y'"), img2.registry)
    ident = con_of(img2, "\\z. z")
    bad = Node(cxy.symbol, (Node(APP, (ident, ident)),))
    assert not encode.is_canonical(bad, img2.system.signature)


def test_is_canonical_deep_app_spine():
    # one walk: app nodes are descended, never searched for a function
    img = encode.encode_cbv(p("\\z. z"))
    t = img.term
    for _ in range(100_000):
        t = Node(APP, (t, img.term))
    start = time.perf_counter()
    assert encode.is_canonical(t, img.system.signature)
    assert time.perf_counter() - start < 5


def test_unknown_constructor():
    img = encode.encode_cbv(p("\\x. x"))
    with pytest.raises(encode.UnknownConstructor):
        encode.readback(Node("lam_ffffffffff"), img.registry)


def test_readback_open_term_rejected():
    img = encode.encode_cbv(p("\\z. z"))
    with pytest.raises(encode.OpenTermError):
        encode.readback(Node(APP, (crs.Var("x"), img.term)), img.registry)


def test_readback_pattern_variables_free_and_not_captured():
    # c(x) for c = \x. y binds y to the variable x: the binder is renamed
    img = encode.encode_cbv(p("(\\y. \\x. y) (\\z. z)"))
    c = encode._image_term(p("\\x. y"), img.registry).symbol
    pattern = Node(APP, (Node(c, (crs.Var("x"),)), crs.Var("x")))
    got = encode.readback(pattern, img.registry, variables=True)
    assert lam.alpha_eq(got, p("(\\w. x) x"))
    assert lam.free_vars(got) == ("x",)


# --- readback against substitution ----------------------------------------------------

def reference_readback(t, reg):
    """Readback by substitution: a constructor re-opens its abstraction and
    substitutes the decoded arguments for its free variables one at a
    time, which equals simultaneous substitution for closed values."""
    if t.symbol in (APP, CAPP):
        return lam.App(reference_readback(t.children[0], reg),
                       reference_readback(t.children[1], reg))
    con = reg.lookup(t.symbol)
    out = con.abstraction()
    for x, child in zip(con.free, t.children):
        out = lam.substitute(out, x, reference_readback(child, reg))
    return out


def readback_cases(m, budget):
    """Terms to read back from the phi and psi images of m: the image, the
    states after its first 50 rewrite steps and the normal form reached."""
    for img in (encode.encode_cbv(m), encode.encode_cbn(m)):
        states = [img.term]

        def on_step(rule, subst, state):
            if len(states) <= 50:
                states.append(state())

        out = crs.reduce(img.system, img.term, budget, on_step=on_step)
        if out.kind != "exhausted":
            states.append(out.term)
        for s in states:
            yield s, img.registry


def test_readback_equals_substitution_on_corpus():
    cases = 0
    for entry in workbench.Corpus.load(CORPUS).lambda_entries:
        for s, reg in readback_cases(entry.term, workbench.DEFAULT_BUDGET):
            assert encode.readback(s, reg) == reference_readback(s, reg), entry.name
            cases += 1
    assert cases > 1000


def test_readback_equals_substitution_on_random_terms():
    from tests_util import random_closed
    rng = random.Random(17)
    for _ in range(1000):
        m = random_closed(rng, 24)
        for s, reg in readback_cases(m, 300):
            assert encode.readback(s, reg) == reference_readback(s, reg), lam.to_str(m)


DEEP = 20_000


def identity_chain(n, left):
    """n + 1 identities, applied left- or right-nested."""
    ident = p("\\z. z")
    t = ident
    for _ in range(n):
        t = lam.App(t, ident) if left else lam.App(ident, t)
    return t


@pytest.mark.parametrize("left", [True, False])
def test_deep_images_encode_and_read_back(left):
    assert DEEP > sys.getrecursionlimit()
    m = identity_chain(DEEP, left)
    for img in (encode.encode_cbv(m), encode.encode_cbn(m)):
        assert lam.alpha_eq(encode.readback(img.term, img.registry), m)


# --- step-exact CBV simulation ------------------------------------------------------

def test_cbv_simulation_lockstep():
    rng = random.Random(9)
    from tests_util import random_closed
    checked = 0
    for _ in range(120):
        m = random_closed(rng, 22)
        lam_out = lam.reduce(m, "cbv", 300)
        img = encode.encode_cbv(m)
        run = (reference_run_phi if checked < 25 else encode.run_phi)(img, 300)
        if lam_out.kind == "normal":
            checked += 1
            assert run.outcome.kind == "constructor"
            assert run.outcome.steps == lam_out.steps
            assert lam.alpha_eq(run.readback_nf, lam_out.term)
        else:
            assert run.outcome.kind == "exhausted"
    assert checked > 30


def test_canonicity_preserved_and_provenance():
    img = encode.encode_cbv(two_tower(4))
    run = encode.run_phi(img, budget=100)  # asserts once per image
    assert run.outcome.steps == 4


# --- checked runs against the whole-term checker ---------------------------------------

def reference_run_phi(image, budget):
    """run_phi checking the whole term after every step, the reference for
    the per-rule checks: canonical, of registered constructors, and read
    back as one CBV step of the previous term's readback."""
    sig, reg = image.system.signature, image.registry

    def on_step(rule, subst, state):
        after = state()
        assert encode.is_canonical(after, sig), "canonicity lost"
        assert encode.check_provenance(after, reg), "unregistered constructor"
        before, prev[0] = prev[0], encode.readback(after, reg)
        assert any(lam.alpha_eq(replace_at(before, path, contract(subterm_at(before, path))),
                                prev[0])
                   for path in cbv_redexes(before)), "not one CBV step"

    assert encode.is_canonical(image.term, sig)
    assert encode.check_provenance(image.term, reg), "unregistered constructor"
    prev = [encode.readback(image.term, reg)]
    out = crs.reduce(image.system, image.term, budget, on_step=on_step)
    rb = None
    if out.kind != "exhausted":
        rb = encode.readback(out.term, reg)
        if out.kind == "constructor":
            assert lam.reduce(rb, "cbv", 0).kind == "normal"
    return encode.PhiRun(out, rb)


def reference_run_psi(image, budget):
    """run_psi checking every administrative step on the whole terms
    before and after it: one more app, and the same readback."""
    sig, reg = image.system.signature, image.registry
    counts = {"admin": 0, "ordinary": 0}
    prev = [image.term]

    def on_step(rule, subst, state):
        before, after = prev[0], state()
        prev[0] = after
        if rule is image.admin_rule:
            counts["admin"] += 1
            assert crs.count_symbol(after, APP) == crs.count_symbol(before, APP) + 1
            assert lam.alpha_eq(encode.readback(before, reg), encode.readback(after, reg))
        else:
            counts["ordinary"] += 1

    assert encode.psi_is_canonical(image.term, sig, reg)
    out = crs.reduce(image.system, image.term, budget, on_step=on_step)
    rb = None
    if out.kind != "exhausted":
        rb = encode.readback(out.term, reg)
        if out.kind == "constructor":
            assert encode.psi_is_canonical(out.term, sig, reg)
    return encode.PsiRun(out, rb, counts["admin"], counts["ordinary"])


def assert_checked_runs_agree(m, budget):
    phi = encode.encode_cbv(m)
    got, ref = encode.run_phi(phi, budget), reference_run_phi(phi, budget)
    # not ==: the dataclass equality recurses over the term's depth
    assert same_structure((got.outcome, got.readback_nf), (ref.outcome, ref.readback_nf))
    psi = encode.encode_cbn(m)
    got, ref = encode.run_psi(psi, budget), reference_run_psi(psi, budget)
    assert same_structure(
        (got.outcome, got.readback_nf, got.admin_steps, got.ordinary_steps),
        (ref.outcome, ref.readback_nf, ref.admin_steps, ref.ordinary_steps))


def test_checked_runs_match_whole_term_checker_on_corpus():
    entries = workbench.Corpus.load(CORPUS).lambda_entries
    assert len(entries) >= 62
    for entry in entries:
        assert_checked_runs_agree(entry.term, workbench.DEFAULT_BUDGET)


def test_run_psi_counts_as_a_step_hook_does():
    # run_psi reads the administrative steps from the outcome's firing
    # counts; a hook on every step of the same image counts the same
    from tests_util import bench_workloads
    terms = [e.term for e in workbench.Corpus.load(CORPUS).lambda_entries]
    workloads, rng = bench_workloads(), random.Random(3)
    terms += [p(workloads.church_instance(fam.name, n, rng)[0])
              for fam in workloads.LAMBDA_SCALE for n in fam.sizes]
    admin_steps = 0
    for m in terms:
        image = encode.encode_cbn(m)
        run = encode.run_psi(image, workbench.DEFAULT_BUDGET)
        hooked = []
        out = crs.reduce(image.system, image.term, workbench.DEFAULT_BUDGET,
                         on_step=lambda rule, subst, state: hooked.append(rule))
        admin = sum(rule is image.admin_rule for rule in hooked)
        assert (run.admin_steps, run.ordinary_steps) == (admin, out.steps - admin), lam.to_str(m)
        assert (run.outcome.kind, run.outcome.steps) == (out.kind, out.steps)
        admin_steps += admin
    assert len(terms) == 68 and admin_steps > 1000


def test_checked_runs_match_whole_term_checker_on_random_terms():
    from tests_util import random_closed
    rng = random.Random(23)
    for _ in range(1000):
        assert_checked_runs_agree(random_closed(rng, 24), 300)


def replace_rule(image, old, new, constructors=()):
    """The image with rule old replaced by new and extra nullary
    constructors declared."""
    sig = image.system.signature
    sig = crs.Signature({**sig.constructors, **{c: 0 for c in constructors}},
                        dict(sig.functions))
    rules = [new if r is old else r for r in image.system.rules]
    return crs.validate_system(sig, rules)


def phi_mutants():
    """Images that break provenance or canonicity, each on a run that
    reaches the broken term in one step."""
    img = encode.encode_cbv(p("(\\x. x) (\\y. y)"))
    (rule,) = img.system.rules
    yield "rhs names an unregistered constructor", encode.PhiImage(
        img.term, replace_rule(img, rule, crs.Rule(APP, rule.lhs, Node("bogus")), ["bogus"]),
        img.registry, img.source)
    ident = img.term.children[0]
    yield "input names an unregistered constructor", encode.PhiImage(
        Node(APP, (ident, Node("bogus"))), replace_rule(img, rule, rule, ["bogus"]),
        img.registry, img.source)
    img = encode.encode_cbv(p("(\\x. \\y. x) (\\z. z)"))
    # app(c, x) -> c'(x) for c = \x. \y. x and c' = \y. x becomes c'(app(x, x))
    rule = next(r for r in img.system.rules if r.lhs[0] == img.term.children[0])
    x = rule.lhs[1]
    bad = crs.Rule(APP, rule.lhs, Node(rule.rhs.symbol, (Node(APP, (x, x)),)))
    yield "rhs puts app under a constructor", encode.PhiImage(
        img.term, replace_rule(img, rule, bad), img.registry, img.source)


def psi_mutants():
    """The admin rule of an image with one administrative step, changed to
    alter the readback or to add no app."""
    img = encode.encode_cbn(p("(\\x. x (\\z. z)) ((\\y. y) (\\w. w))"))
    x, y, z = crs.Var("x"), crs.Var("y"), crs.Var("z")
    for why, rhs in (("rhs changes the readback", Node(APP, (x, Node(APP, (y, z))))),
                     ("rhs adds no app", Node(APP, (Node(CAPP, (x, y)), z)))):
        admin = crs.Rule(APP, img.admin_rule.lhs, rhs)
        yield why, encode.PsiImage(img.term, replace_rule(img, img.admin_rule, admin),
                                   img.registry, img.source, admin)


MUTANTS = [(why, image, (encode.run_phi, reference_run_phi)) for why, image in phi_mutants()] \
    + [(why, image, (encode.run_psi, reference_run_psi)) for why, image in psi_mutants()]


@pytest.mark.parametrize("why,image,runs", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_images_rejected(why, image, runs):
    for run in runs:
        with pytest.raises(AssertionError):
            run(image, 10)


def test_unmutated_admin_rule_and_images_accepted():
    # the mutants' sources pass, so the rejections above are the mutations'
    m = p("(\\x. x (\\z. z)) ((\\y. y) (\\w. w))")
    assert encode.run_psi(encode.encode_cbn(m), 10).admin_steps == 1
    for src in ("(\\x. x) (\\y. y)", "(\\x. \\y. x) (\\z. z)"):
        assert encode.run_phi(encode.encode_cbv(p(src)), 10).outcome.steps == 1


def church_mult(n):
    numeral = "(\\f. \\x. " + "f (" * n + "x" + ")" * n + ")"
    return p(f"(\\m. \\n. \\f. m (n f)) {numeral} {numeral} (\\u. u) (\\v. v)")


def test_checked_runs_build_no_whole_term(monkeypatch):
    # counts the whole-term builds made while steps run: those of a step
    # hook's state(), not the outcome's, which reduce makes itself
    builds = []
    unframe = crs._unframe

    def counted(root):
        if sys._getframe(1).f_code is not crs.reduce.__code__:
            builds.append(1)
        return unframe(root)

    monkeypatch.setattr(crs, "_unframe", counted)
    m = church_mult(32)
    phi = encode.run_phi(encode.encode_cbv(m))
    psi = encode.run_psi(encode.encode_cbn(m))
    assert (phi.outcome.kind, phi.outcome.steps) == ("constructor", 1062)
    assert (psi.outcome.kind, psi.outcome.steps) == ("constructor", 1125)
    assert builds == []
    # the count sees builds: the reference builds one whole term per step
    run = reference_run_phi(encode.encode_cbv(church_mult(3)), 10_000)
    assert len(builds) == run.outcome.steps > 0


# --- invariants decided once ------------------------------------------------------------

ADMIN_SOURCE = "(\\x. x (\\z. z)) ((\\y. y) (\\w. w))"   # one administrative step


def test_admin_rule_is_one_constant():
    assert encode._admin_rule_ok(encode.ADMIN_RULE)
    for entry in workbench.Corpus.load(CORPUS).lambda_entries:
        image = encode.encode_cbn(entry.term)
        assert image.system.rules[-1] is image.admin_rule is encode.ADMIN_RULE


def test_admin_rule_with_renamed_variables_rejected():
    # the rule keeps the property, but run_psi accepts only ADMIN_RULE
    img = encode.encode_cbn(p(ADMIN_SOURCE))
    a, b, c = crs.Var("a"), crs.Var("b"), crs.Var("c")
    renamed = crs.Rule(APP, (Node(CAPP, (a, b)), c), Node(APP, (Node(APP, (a, b)), c)))
    assert encode._admin_rule_ok(renamed)
    image = encode.PsiImage(img.term, replace_rule(img, img.admin_rule, renamed),
                            img.registry, img.source, renamed)
    assert reference_run_psi(image, 10).admin_steps == 1
    with pytest.raises(AssertionError):
        encode.run_psi(image, 10)


def test_compare_decides_no_admin_rule(monkeypatch):
    decided = []
    admin_rule_ok = encode._admin_rule_ok
    monkeypatch.setattr(encode, "_admin_rule_ok",
                        lambda *args: decided.append(args) or admin_rule_ok(*args))
    entry = next(e for e in workbench.Corpus.load(CORPUS).lambda_entries
                 if e.name == "church_mult")
    assert workbench.compare_engines(entry.term)["relations"]["psi_admin_steps"] == 2
    assert decided == []


def test_run_phi_walks_each_root_once(monkeypatch):
    # the input term and each rule's rhs are walked once for both
    # predicates; readback's walk of the result is not counted
    walks = []
    walk = encode.distinct_nodes

    def counted(t, known=()):
        if sys._getframe(1).f_code is not encode.readback.__code__:
            walks.append(t)
        return walk(t, known)

    monkeypatch.setattr(encode, "distinct_nodes", counted)
    for m in (church_mult(3), p(ADMIN_SOURCE), p("(\\x. \\y. x) (\\z. z)")):
        image = encode.encode_cbv(m)
        walks.clear()
        encode.run_phi(image)
        assert 0 < len(walks) <= len(image.system.rules) + 1


def reference_psi_is_canonical(t, sig, reg):
    """psi_is_canonical down the left spine, with one walk per argument
    and one for the head constructor."""
    while True:
        if isinstance(t, crs.Var):
            return False
        if t.symbol in reg.by_name:
            return not crs.contains_function(t, sig)
        if t.symbol != APP:
            return False
        if not crs.is_constructor_term(t.children[1], sig):
            return False
        t = t.children[0]


def random_psi_term(rng, sig, reg, depth):
    """A random term over the symbols of a CBN image, variables and an
    undeclared symbol, which shares some of its subterms."""
    symbols = [(APP, 2), (CAPP, 2), ("bogus", 1),
               *((name, con.arity) for name, con in reg.by_name.items())]
    made = []

    def term(d):
        if made and rng.random() < 0.2:
            return rng.choice(made)
        if d <= 0 or rng.random() < 0.15:
            return crs.Var("x") if rng.random() < 0.3 else Node(next(iter(reg.by_name)))
        name, ar = rng.choice(symbols)
        t = Node(name, tuple(term(d - 1) for _ in range(ar)))
        made.append(t)
        return t

    # most random terms fail at the root; spines of app reach deeper
    t = term(depth)
    for _ in range(rng.randrange(4)):
        t = Node(APP, (t, term(depth)))
    return t


def test_psi_canonicity_in_one_walk(monkeypatch):
    # the same verdict as the spine walk on every corpus image's input and
    # outcome, the mutants' and random terms, from one walk of each
    walks = []
    walk = encode.distinct_nodes
    for module in (encode, crs):
        monkeypatch.setattr(module, "distinct_nodes",
                            lambda t, known=(): walks.append(t) or walk(t, known))
    images = [encode.encode_cbn(e.term) for e in workbench.Corpus.load(CORPUS).lambda_entries]
    images += [image for _, image in psi_mutants()]
    rng = random.Random(36)
    verdicts = set()
    for image in images:
        sig, reg = image.system.signature, image.registry
        out = crs.reduce(image.system, image.term, workbench.DEFAULT_BUDGET)
        terms = [image.term, out.term] + [random_psi_term(rng, sig, reg, 4) for _ in range(30)]
        for t in terms:
            walks.clear()
            got = encode.psi_is_canonical(t, sig, reg)
            assert len(walks) == 1
            assert got is reference_psi_is_canonical(t, sig, reg), crs.term_to_str(t)
            verdicts.add(got)
    assert verdicts == {True, False}


def psi_rules_node_by_node(reg, identity):
    """The rules of a CBN image with every constructor pattern built
    afresh where a rule names it."""
    names = list(reg.by_name)
    w, f, g, h = crs.Var("w"), crs.Var("f"), crs.Var("g"), crs.Var("h")
    rules = [crs.Rule(APP, (Node(identity.name), Node(CAPP, (w, f))), Node(APP, (w, f)))]
    for name in names:
        argvars = tuple(crs.Var(f"v{i+1}") for i in range(reg.by_name[name].arity))
        rules.append(crs.Rule(APP, (Node(identity.name), Node(name, argvars)),
                              Node(name, argvars)))
    for name in names:
        con = reg.by_name[name]
        if isinstance(con.body, lam.Var) and con.body.name != con.binder:
            rules.append(crs.Rule(APP, (Node(name, (Node(CAPP, (f, g)),)), h),
                                  Node(APP, (f, g))))
            for name2 in names:
                argvars = tuple(crs.Var(f"v{i+1}") for i in range(reg.by_name[name2].arity))
                rules.append(crs.Rule(APP, (Node(name, (Node(name2, argvars),)), h),
                                      Node(name2, argvars)))
    for name in names:
        con = reg.by_name[name]
        if not isinstance(con.body, lam.Var):
            lhs = (Node(name, tuple(crs.Var(v) for v in con.free)), crs.Var(con.binder))
            rules.append(crs.Rule(APP, lhs, encode._image_term(con.body, reg, CAPP)))
    return rules + [encode.ADMIN_RULE]


def test_psi_enumeration_rules_share_one_pattern_per_constructor():
    # the rules that enumerate the constructors, the identity's and the
    # variable bodies', name one object per constructor pattern, and
    # equal the rules built node by node
    shared = 0
    for entry in workbench.Corpus.load(CORPUS).lambda_entries:
        image = encode.encode_cbn(entry.term)
        reg = image.registry
        identity = reg.by_name[next(iter(reg.by_name))]
        assert identity.abstraction() == lam.Abs("z", lam.Var("z"))
        assert list(image.system.rules) == psi_rules_node_by_node(reg, identity)
        patterns: dict[str, set[int]] = {}
        for rule in image.system.rules:
            arg, rhs = rule.lhs[0], rule.rhs
            if arg.symbol == identity.name:
                named = [arg] + ([rule.lhs[1], rhs] if rhs.symbol != APP else [])
            elif len(arg.children) == 1 and type(arg.children[0]) is Node \
                    and arg.children[0].symbol != CAPP:
                named = [arg.children[0], rhs]
            else:
                continue
            for t in named:
                patterns.setdefault(t.symbol, set()).add(id(t))
        assert all(len(ids) == 1 for ids in patterns.values()), entry.name
        shared += len(patterns)
    assert shared > 200


def test_names_hash_each_key_once(monkeypatch):
    import hashlib
    hashed = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
    identity = encode._canonical(lam.Abs("z", lam.Var("z")))[0]
    for entry in workbench.Corpus.load(CORPUS).lambda_entries:
        hashed.clear()
        phi = encode.encode_cbv(entry.term)
        encode.encode_cbn(entry.term, phi.registry.table)
        table = phi.registry.table
        keys = {table.entry(t)[0] for t in table.abstractions} | {identity}
        assert sorted(hashed) == sorted(k.encode() for k in keys), entry.name


# --- CBN encoding --------------------------------------------------------------------

def test_encode_cbn_simple():
    img = encode.encode_cbn(p("(\\x. x) (\\y. y)"))
    assert isinstance(img.term, Node) and img.term.symbol == APP
    u, v = img.term.children
    assert u == v  # both identities collapse to one constructor


def test_encode_cbn_freezes_argument():
    img = encode.encode_cbn(p("(\\x. x) ((\\y. y) (\\z. z))"))
    ident = img.term.children[0]
    assert img.term == Node(APP, (ident, Node(CAPP, (ident, ident))))


def test_encode_cbn_abstraction_clause():
    img = encode.encode_cbn(p("\\x. x x"))
    assert img.term.symbol in img.registry.by_name
    assert img.registry.lookup(img.term.symbol).arity == 0


def test_psi_readback_clauses():
    img = encode.encode_cbn(p("(\\x. x) ((\\y. y) (\\z. z))"))
    ident = img.term.children[0]
    frozen = Node(CAPP, (ident, ident))
    assert lam.alpha_eq(encode.readback(frozen, img.registry),
                        p("(\\y. y) (\\z. z)"))
    assert lam.alpha_eq(encode.readback(img.term, img.registry), img.source)


def test_psi_canonicity():
    img = encode.encode_cbn(p("(\\x. x) ((\\y. y) (\\z. z))"))
    sig = img.system.signature
    reg = img.registry
    ident = img.term.children[0]
    assert encode.psi_is_canonical(img.term, sig, reg)
    # a capp at the root is not canonical
    assert not encode.psi_is_canonical(Node(CAPP, (ident, ident)), sig, reg)
    # app(app(c, c'), d) needs d to be a constructor term
    inner = Node(APP, (ident, ident))
    assert encode.psi_is_canonical(Node(APP, (inner, ident)), sig, reg)
    assert not encode.psi_is_canonical(Node(APP, (ident, inner)), sig, reg)


def test_psi_identity_rules_trace():
    # (\x. x) ((\y. y) (\z. z)): two head steps, no administrative step
    img = encode.encode_cbn(p("(\\x. x) ((\\y. y) (\\z. z))"))
    run = encode.run_psi(img, budget=10)
    assert run.outcome.kind == "constructor"
    assert run.ordinary_steps == 2 and run.admin_steps == 0
    assert lam.alpha_eq(run.readback_nf, p("\\z. z"))


def test_psi_administrative_trace():
    # (\x. x (\z. z)) ((\y. y) (\w. w)): the frozen argument reaches head
    # position and must be re-activated once.
    m = p("(\\x. x (\\z. z)) ((\\y. y) (\\w. w))")
    n = lam.reduce(m, "cbn", 100).steps
    img = encode.encode_cbn(m)
    run = encode.run_psi(img, budget=100)
    assert run.outcome.kind == "constructor"
    assert n == 3
    assert run.ordinary_steps == 3 and run.admin_steps == 1
    assert run.outcome.steps == 4
    assert lam.alpha_eq(run.readback_nf, p("\\z. z"))


def test_psi_variable_body_returns_stored_binding():
    # \x. w has the free variable w; applying it returns w's stored value
    m = p("(\\w. (\\x. w) (\\z. z)) (\\q. q)")
    n = lam.reduce(m, "cbn", 100).steps
    img = encode.encode_cbn(m)
    run = encode.run_psi(img, budget=100)
    assert n == 2
    assert run.ordinary_steps == 2 and run.admin_steps == 0
    assert lam.alpha_eq(run.readback_nf, p("\\q. q"))


def test_psi_variable_body_reactivates_frozen_binding():
    # the stored binding is a frozen application: returning it must switch
    # it back to an active app, in one ordinary step
    m = p("(\\w. (\\x. w) (\\z. z)) ((\\q. q) (\\r. r))")
    n = lam.reduce(m, "cbn", 100).steps
    img = encode.encode_cbn(m)
    ident = encode._image_term(p("\\z. z"), img.registry, CAPP)
    t1 = rewrite_step(img.system, img.term)
    cxw = encode._image_term(p("\\x. w"), img.registry, CAPP).symbol
    frozen = Node(CAPP, (ident, ident))
    assert t1 == Node(APP, (Node(cxw, (frozen,)), ident))
    t2 = rewrite_step(img.system, t1)
    assert t2 == Node(APP, (ident, ident))
    t3 = rewrite_step(img.system, t2)
    assert t3 == ident
    assert n == 3
    run = encode.run_psi(img, budget=100)
    assert run.ordinary_steps == 3 and run.admin_steps == 0


def test_cbn_bounds_on_random_terms():
    rng = random.Random(21)
    from tests_util import random_closed
    checked = 0
    for _ in range(120):
        m = random_closed(rng, 22)
        lam_out = lam.reduce(m, "cbn", 300)
        img = encode.encode_cbn(m)
        run = encode.run_psi(img, budget=700)
        if lam_out.kind == "normal":
            checked += 1
            n, msteps = lam_out.steps, run.outcome.steps
            assert run.outcome.kind == "constructor"
            assert n <= msteps <= 2 * n
            assert run.ordinary_steps == n
            assert lam.alpha_eq(run.readback_nf, lam_out.term)
        else:
            assert run.outcome.kind == "exhausted"
    assert checked > 30


def test_emitted_system_reparses():
    img = encode.encode_cbv(p("(\\x. (\\y. x) x) (\\z. z)"))
    text = encode.system_with_table(img)
    f = crs.parse_system(text)
    assert f.system.rules == img.system.rules
    assert f.term == img.term


def test_phi_step_count_policy_invariant():
    rng = random.Random(31)
    from tests_util import random_closed
    checked = 0
    while checked < 20:
        m = random_closed(rng, 20)
        if lam.reduce(m, "cbv", 200).kind != "normal":
            continue
        img = encode.encode_cbv(m)
        base = crs.reduce(img.system, img.term, 400)
        for seed in range(3):
            states = []
            out = crs.reduce(img.system, img.term, 400, rng=random.Random(seed),
                             on_step=lambda rule, subst, state: states.append(state()))
            assert out.steps == base.steps == len(states)
            assert out.term == base.term == (states[-1] if states else img.term)
        checked += 1


def test_psi_graph_run_within_cbn_bounds():
    from normbench import graphs
    for src in ("(\\x. x (\\z. z)) ((\\y. y) (\\w. w))",
                "(\\x. (\\y. x) x) (\\z. z)",
                "(\\w. (\\x. w) (\\z. z)) ((\\q. q) (\\r. r))"):
        m = p(src)
        n = lam.reduce(m, "cbn", 500).steps
        img = encode.encode_cbn(m)
        crs_run = crs.reduce(img.system, img.term, 1000)
        g = graphs.term_to_graph(img.term)
        out = graphs.graph_reduce(g, img.system, 1000)
        assert out.kind == "normal"
        assert out.steps == crs_run.steps
        assert n <= out.steps <= 2 * n


# --- the abstraction table against per-occurrence registration -----------------

def compiled_terms():
    """The lambda images of the Scott-compiled terms of the corpus systems
    and of the rewrite-scale families: terms that share subterms."""
    from tests_util import bench_workloads
    corpus = workbench.Corpus.load(CORPUS)
    pairs = [(e.system, e.term) for e in corpus.crs_entries]
    workloads, rng = bench_workloads(), random.Random(3)
    for fam in workloads.REWRITE_SCALE:
        for n in fam.sizes:
            f = crs.parse_system(workloads.rewrite_instance(fam.name, n, rng)[0])
            pairs.append((f.system, f.term))
    return [scott.term_to_lambda(scott.ScottContext(s), t) for s, t in pairs]


def constructor_table(reg):
    return [(name, con.binder, con.body, con.free) for name, con in reg.by_name.items()]


def assert_images_match_reference(m):
    from tests_util import reference_encode_cbn, reference_encode_cbv
    phi = encode.encode_cbv(m)
    term, system, reg = reference_encode_cbv(m)
    assert phi.term == term
    assert phi.system.rules == system.rules
    assert list(phi.system.signature.constructors.items()) == \
        list(system.signature.constructors.items())
    assert constructor_table(phi.registry) == constructor_table(reg)
    term, system, reg, admin = reference_encode_cbn(m)
    for psi in (encode.encode_cbn(m, phi.registry.table), encode.encode_cbn(m)):
        assert psi.term == term
        assert psi.system.rules == system.rules
        assert list(psi.system.signature.constructors.items()) == \
            list(system.signature.constructors.items())
        assert constructor_table(psi.registry) == constructor_table(reg)
        assert psi.admin_rule == admin


def test_images_match_per_occurrence_registration():
    # corpus terms, seeded random terms and compiled terms: the table,
    # one walk per distinct abstraction object, registers the constructors
    # of per-occurrence registration, in its order
    corpus = workbench.Corpus.load(CORPUS)
    terms = [e.term for e in corpus.lambda_entries]
    assert len(terms) == 62
    rng = random.Random(22)
    from tests_util import random_closed
    terms += [random_closed(rng, rng.randrange(1, 40)) for _ in range(300)]
    compiled = compiled_terms()
    assert len(compiled) == 21
    for m in terms + compiled:
        assert_images_match_reference(m)


def test_table_walks_each_abstraction_object_once(monkeypatch):
    # a compiled term is a DAG: its table walks each distinct abstraction
    # object once, far fewer than its occurrences
    from tests_util import abstraction_occurrences
    m = compiled_terms()[7]                 # tree_flatten
    walked = []
    canonical = encode._canonical
    monkeypatch.setattr(encode, "_canonical", lambda t: walked.append(t) or canonical(t))
    table = encode.AbstractionTable(m)
    assert len({id(t) for t in walked}) == len(walked) == len(table.abstractions)
    assert 3 * len(walked) < len(abstraction_occurrences(m))
    phi = encode.encode_cbv(m)
    walked.clear()
    encode.encode_cbn(m, phi.registry.table)
    assert [t.body for t in walked] == [lam.Var("z")]   # the CBN identity alone


def test_table_of_another_term_rejected():
    m = p("\\x. x")
    with pytest.raises(ValueError):
        encode.encode_cbn(p("\\x. x"), encode.encode_cbv(m).registry.table)


def test_open_terms_rejected_by_the_table():
    # a variable, or an abstraction with a free variable, reached through
    # applications alone; a free variable under a binder is found through
    # the abstraction that holds it
    shared = p("\\y. x")
    for m in (p("x"), p("(\\y. y) x"), p("(\\y. y) (\\y. x)"), lam.App(shared, shared),
              p("\\z. (\\y. y) (\\y. x)")):
        for encoder in (encode.encode_cbv, encode.encode_cbn):
            with pytest.raises(encode.OpenTermError, match=r"free variables: \('x',\)"):
                encoder(m)
