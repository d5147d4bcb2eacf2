import random
import sys
import time
from pathlib import Path

import pytest

from normbench import crs, encode, lam, workbench
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
