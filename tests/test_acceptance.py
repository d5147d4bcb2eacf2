"""Acceptance suite: every simulation theorem as an executable check.

Each criterion runs at its stated tolerance (step counts are exact unless
noted) and prints one PASS line; a failing criterion fails its test.
"""

import json
import random
import statistics
from pathlib import Path

import pytest

from normbench import cli, crs, encode, graphs, lam, scott, workbench
from normbench.lam import apps
from tests_util import cbv_step, fixpoint_family, leaf_count, term_size, two_tower

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
BUDGET = 10_000


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def corpus():
    return workbench.Corpus.load(CORPUS)


@pytest.fixture(scope="module")
def cbv_normalizing(corpus):
    out = []
    for entry in corpus.lambda_entries:
        run = lam.reduce(entry.term, "cbv", BUDGET)
        if run.kind == "normal":
            out.append((entry, run))
    return out


def nat(n):
    t = crs.Node("zero")
    for _ in range(n):
        t = crs.Node("succ", (t,))
    return t


def nat_list(payloads):
    t = crs.Node("nil")
    for p in reversed(payloads):
        t = crs.Node("cons", (nat(p), t))
    return t


def load_system(name):
    f = crs.parse_system((CORPUS / "crs" / f"{name}.trs").read_text())
    return f.system, f.term


# --- 1: exact CBV simulation ---------------------------------------------------------

def test_acceptance_1_exact_cbv_simulation(cbv_normalizing):
    assert len(cbv_normalizing) >= 50, "corpus too small"
    for entry, cbv_run in cbv_normalizing:
        image = encode.encode_cbv(entry.term)
        phi_run = encode.run_phi(image, BUDGET)
        assert phi_run.outcome.kind == "constructor", entry.name
        assert phi_run.outcome.steps == cbv_run.steps, entry.name
        assert lam.alpha_eq(phi_run.readback_nf, cbv_run.term), entry.name

        g = graphs.term_to_graph(image.term)
        graph_run = graphs.graph_reduce(g, image.system, BUDGET)
        assert graph_run.kind == "normal", entry.name
        assert graph_run.steps == cbv_run.steps, entry.name
        unfolded = graphs.graph_to_term(graph_run.graph, 200_000)
        assert lam.alpha_eq(encode.readback(unfolded, image.registry),
                            cbv_run.term), entry.name
    _passed(1, f"lambda/crs/graph step counts identical (tolerance 0) and "
               f"readbacks alpha-equal on {len(cbv_normalizing)} corpus terms")


# --- 2: CBN bounds --------------------------------------------------------------------

def test_acceptance_2_cbn_bounds(corpus):
    checked = 0
    admin_total = 0
    for entry in corpus.lambda_entries:
        cbn_run = lam.reduce(entry.term, "cbn", BUDGET)
        if cbn_run.kind != "normal":
            continue
        checked += 1
        n = cbn_run.steps
        image = encode.encode_cbn(entry.term)
        # run_psi asserts, per administrative step, that the readback is
        # unchanged and the app count rises by exactly one
        psi_run = encode.run_psi(image, 2 * n + 2)
        assert psi_run.outcome.kind == "constructor", entry.name
        m = psi_run.outcome.steps
        assert n <= m <= 2 * n, (entry.name, n, m)
        assert psi_run.ordinary_steps == n, entry.name
        admin_total += psi_run.admin_steps
        assert lam.alpha_eq(psi_run.readback_nf, cbn_run.term), entry.name
    assert checked >= 50
    _passed(2, f"n <= m <= 2n on {checked} CBN-normalizing corpus terms; "
               f"{admin_total} administrative steps each kept the readback "
               f"and raised the app count by exactly 1")


# --- 3: linear-overhead reverse simulation ----------------------------------------------

def _ratio_series(system, instances, budget=BUDGET):
    ctx = scott.ScottContext(system)
    out = []
    for t in instances:
        v = scott.simulate_and_check(ctx, t, budget)
        assert v.consistent is True, crs.term_to_str(t)
        out.append((term_size(t), v.crs_steps, v.beta_steps))
    return out


def test_acceptance_3_linear_overhead():
    add_sys, _ = load_system("nat_add")
    mul_sys, _ = load_system("nat_mul")
    app_sys, _ = load_system("list_append")
    rev_sys, _ = load_system("list_reverse")
    flat_sys, _ = load_system("tree_flatten")

    # (a) term size growing three decades at a fixed rewrite run: the
    # beta/crs ratio must be identical, so the max over the larger half
    # is bounded by the max over the smaller half with tolerance 0.
    size_families = [
        (add_sys, [crs.Node("add", (nat(3), nat(s))) for s in (2, 20, 200, 2000)]),
        (app_sys, [crs.Node("append", (nat_list([s, s]), nat_list([s])))
                   for s in (2, 20, 200, 2000)]),
        (rev_sys, [crs.Node("reverse", (nat_list([s, s, s]),))
                   for s in (2, 20, 200, 2000)]),
        (flat_sys, [crs.Node("flatten", (crs.Node("node", (
            crs.Node("leaf", (nat(s),)), crs.Node("leaf", (nat(s),)))),))
            for s in (2, 20, 200, 2000)]),
        # mul has no size axis with a fixed run, so its size family uses the
        # add fragment of the same system; part (b) drives the mul rules
        (mul_sys, [crs.Node("add", (nat(3), nat(s))) for s in (2, 20, 200, 2000)]),
    ]
    for system, instances in size_families:
        rows = _ratio_series(system, instances, budget=BUDGET)
        ratios = [beta / steps for _, steps, beta in rows]
        half = len(ratios) // 2
        assert max(ratios[half:]) <= max(ratios[:half]) + 0, rows

    # (b) rewrite runs growing linearly: the marginal beta cost per rewrite
    # step is exactly constant in the tail
    step_families = [
        (add_sys, [crs.Node("add", (nat(n), nat(3))) for n in range(1, 9)]),
        (mul_sys, [crs.Node("mul", (nat(n), nat(2))) for n in range(1, 7)]),
        (app_sys, [crs.Node("append", (nat_list([0] * n), nat_list([1])))
                   for n in range(1, 9)]),
    ]
    for system, instances in step_families:
        rows = _ratio_series(system, instances, budget=BUDGET)
        margins = [(b2 - b1) / (n2 - n1) for (_, n1, b1), (_, n2, b2)
                   in zip(rows, rows[1:])]
        tail = margins[len(margins) // 2:]
        assert len(set(tail)) == 1, margins

    # (c) stuck inputs reduce to exactly the error value
    stuck_sys, stuck_term = load_system("stuck")
    ctx = scott.ScottContext(stuck_sys)
    v = scott.simulate_and_check(ctx, stuck_term, BUDGET)
    assert v.crs_kind == "stuck"
    assert lam.alpha_eq(v.beta_term, scott.bottom(ctx))
    deeper = crs.Node("half", (nat(5),))
    v = scott.simulate_and_check(ctx, deeper, BUDGET)
    assert v.crs_kind == "stuck"
    assert lam.alpha_eq(v.beta_term, scott.bottom(ctx))

    # (d) looping inputs exhaust the budget on both sides
    loop_sys, loop_term = load_system("loop")
    v = scott.simulate_and_check(scott.ScottContext(loop_sys), loop_term, 500)
    assert v.crs_kind == "exhausted" and v.beta_kind == "exhausted"

    _passed(3, "beta/crs ratio size-independent (tolerance 0), marginal cost "
               "tail-constant, stuck -> error value, loops exhaust both sides")


# --- 4: fixed-point bound ----------------------------------------------------------------

def test_acceptance_4_fixpoint_bound():
    rng = random.Random(42)
    trials = 0
    for n in range(1, 9):
        hs, bound = fixpoint_family(n)
        assert bound == 2 * n
        for _ in range(14):
            vals = [lam.abss([f"q{j}" for j in range(rng.randrange(1, n + 2))],
                             lam.Var(f"q{rng.randrange(1, n + 2) - 1}"))
                    for _ in range(n)]
            vals = [v if isinstance(v, lam.Abs) else lam.Abs("q0", v) for v in vals]
            i = rng.randrange(n)
            unf = [lam.Abs("x", apps(h, vals + [lam.Var("x")])) for h in hs]
            target = apps(vals[i], unf)
            term = apps(hs[i], vals)
            steps = 0
            while not lam.alpha_eq(term, target):
                term = cbv_step(term)
                assert term is not None
                steps += 1
                assert steps <= 2 * n, (n, i, steps)
            trials += 1
    assert trials >= 100
    _passed(4, f"unfolding reached in <= 2n steps in all {trials} randomized "
               f"trials, n = 1..8")


# --- 5: matcher bound ---------------------------------------------------------------------

def test_acceptance_5_matcher_bound():
    add_sys, _ = load_system("nat_add")
    ctx = scott.ScottContext(add_sys)
    alphas = [(crs.Node("succ", (crs.Var("x"),)), crs.Var("y")),
              (crs.Node("zero"), crs.Var("y"))]
    matcher = scott.compile_match(ctx, alphas, 2)
    sel1 = lam.abss(["m1", "m2"], lam.Var("m1"))
    sel2 = lam.abss(["m1", "m2"], lam.Var("m2"))
    v1 = lam.abss(["bx", "by"], sel1)
    v2 = lam.abss(["by"], sel2)
    sizes = (2, 20, 200, 2000)

    branch1 = set()
    for s in sizes:
        t = apps(matcher, [scott.scott_encode(ctx, nat(s)),
                           scott.scott_encode(ctx, nat(5)), v1, v2])
        out = lam.reduce(t, "cbv", 10_000)
        assert lam.alpha_eq(out.term, sel1)
        branch1.add(out.steps)
    assert len(branch1) == 1, branch1

    branch2 = set()
    for s in sizes:
        t = apps(matcher, [scott.scott_encode(ctx, nat(0)),
                           scott.scott_encode(ctx, nat(s)), v1, v2])
        out = lam.reduce(t, "cbv", 10_000)
        assert lam.alpha_eq(out.term, sel2)
        branch2.add(out.steps)
    assert len(branch2) == 1, branch2

    list_sys, _ = load_system("list_append")
    lctx = scott.ScottContext(list_sys)
    lalphas = [(crs.Node("cons", (crs.Var("h"), crs.Var("t"))), crs.Var("y")),
               (crs.Node("nil"), crs.Var("y"))]
    lmatcher = scott.compile_match(lctx, lalphas, 2)
    w1 = lam.abss(["bh", "bt", "by"], sel1)
    w2 = lam.abss(["by"], sel2)
    branch3 = set()
    for s in sizes:
        t = apps(lmatcher, [scott.scott_encode(lctx, nat_list([s, 0])),
                            scott.scott_encode(lctx, nat_list([1])), w1, w2])
        out = lam.reduce(t, "cbv", 10_000)
        assert lam.alpha_eq(out.term, sel1)
        branch3.add(out.steps)
    assert len(branch3) == 1, branch3
    _passed(5, f"steps-to-continuation identical per branch across scrutinee "
               f"sizes {sizes[0]}..{sizes[-1]} (three orders of magnitude)")


# --- 6: graph invariants ---------------------------------------------------------------

def test_acceptance_6_graph_invariants(cbv_normalizing):
    violations = 0
    runs = 0
    for entry, _ in cbv_normalizing:
        image = encode.encode_cbv(entry.term)
        g = graphs.term_to_graph(image.term)
        try:
            graphs.graph_reduce(g, image.system, BUDGET)
        except graphs.SharingViolation:
            violations += 1
        runs += 1

    # the control: sharing a function node breaks step agreement 1 vs 2
    sig = crs.Signature({"c": 0}, {"a": 2})
    system = crs.validate_system(
        sig, [crs.Rule("a", (crs.Node("c"), crs.Node("c")), crs.Node("c"))])
    g = graphs.TermGraph()
    c1, c2 = g.new_node("c"), g.new_node("c")
    inner = g.new_node("a")
    g.set_children(inner, (c1, c2))
    top = g.new_node("a")
    g.set_children(top, (inner, inner))
    g.root = top
    assert not graphs.is_constructor_shared(g, sig)
    term = graphs.graph_to_term(g)
    redex = graphs.find_redex(g, system)
    graphs.fire_redex(g, redex, sig)
    graph_steps_to_acc = 1
    term_out_partial = crs.reduce(system, term, 2)
    assert graphs.graph_to_term(g) == crs.parse_term("a(c, c)", sig)
    assert term_out_partial.steps == 2
    assert term_out_partial.term == crs.parse_term("a(c, c)", sig)

    assert violations == 0
    _passed(6, f"constructor-sharedness held after every firing on {runs} "
               f"corpus runs; shared control reproduces the 1-vs-2 step gap")


# --- 7: polynomial invariance at desk scale -----------------------------------------------

def test_acceptance_7_polynomial_invariance(cbv_normalizing):
    # per-step size bound on every corpus graph run
    for entry, _ in cbv_normalizing:
        image = encode.encode_cbv(entry.term)
        msize = lam.size(entry.term)
        g = graphs.term_to_graph(image.term)
        out = graphs.graph_reduce(g, image.system, BUDGET)
        for i, sz in enumerate(out.sizes):
            assert sz <= (i + 1) * msize, (entry.name, i, sz, msize)

    # the 2-tower family: graph normal forms grow linearly
    nodes = []
    for n in range(1, 17):
        image = encode.encode_cbv(two_tower(n))
        g = graphs.term_to_graph(image.term)
        out = graphs.graph_reduce(g, image.system, 1000)
        assert out.kind == "normal" and out.steps == n
        nodes.append(out.graph.node_count())
    fit = statistics.linear_regression(range(1, 17), nodes)
    residual = max(abs(fit.slope * n + fit.intercept - v)
                   for n, v in zip(range(1, 17), nodes))
    value_range = max(nodes) - min(nodes)
    assert residual <= 0.05 * value_range, (nodes, residual)

    # while the readback of the unfolded normal form grows as Theta(2^n):
    # leaf counts double within one node per increment and the term length
    # follows s(n+1) = 2 s(n) + 4 exactly
    sizes = []
    leaves = []
    for n in range(1, 9):
        image = encode.encode_cbv(two_tower(n))
        run = encode.run_phi(image, 1000)
        rb = run.readback_nf
        sizes.append(lam.size(rb))
        leaves.append(leaf_count(rb))
    for a, b in zip(leaves, leaves[1:]):
        assert abs(b - 2 * a) <= 1, leaves
    for a, b in zip(sizes, sizes[1:]):
        assert b == 2 * a + 4, sizes
    assert all(s >= 2 ** n for n, s in enumerate(sizes, start=1))
    _passed(7, "node count <= (i+1)|M| on all corpus runs; tower normal-form "
               f"graphs grow linearly (max residual {residual:.2f}) while "
               f"readback sizes double per level: {sizes}")


# --- 8: reduction-order invariance ---------------------------------------------------------

def test_acceptance_8_diamond(cbv_normalizing):
    total_runs = 0
    for entry, base in cbv_normalizing:
        for seed in range(100):
            out = lam.reduce(entry.term, "cbv", BUDGET,
                             rng=random.Random(seed))
            assert out.kind == "normal", entry.name
            assert out.steps == base.steps, (entry.name, seed)
            assert lam.alpha_eq(out.term, base.term), (entry.name, seed)
            total_runs += 1
    _passed(8, f"{total_runs} randomized-policy runs agree with leftmost on "
               f"step count and normal form")


# --- 9: oracle sidecars -----------------------------------------------------------------

def test_acceptance_9_oracle_sidecars(tmp_path, corpus, capsys):
    written = workbench.regenerate_expectations(CORPUS, out_root=tmp_path)
    assert len(written) == len(corpus.lambda_entries) + len(corpus.crs_entries)
    for fresh in written:
        rel = fresh.relative_to(tmp_path)
        assert fresh.read_text() == (CORPUS / rel).read_text(), rel

    for entry in corpus.lambda_entries:
        code = cli.main(["compare", str(entry.path)])
        capsys.readouterr()
        assert code == 0, entry.name
    for entry in corpus.crs_entries:
        report_path = tmp_path / f"{entry.name}.roundtrip.json"
        code = cli.main(["roundtrip", str(entry.path), "--out", str(report_path)])
        capsys.readouterr()
        assert code == 0, entry.name
        # exit 0 also covers an undecided (None) check; the simulation
        # must actually be confirmed on every corpus system
        report = json.loads(report_path.read_text())
        assert report["checks"]["scott_consistent"] is True, entry.name

    # sidecars agree with fresh engine runs
    for entry in corpus.lambda_entries:
        exp = json.loads(workbench.expectation_path(entry.path).read_text())
        out = lam.reduce(entry.term, "cbv", exp["budget"])
        assert out.kind == exp["cbv"]["outcome"]
        assert out.steps == exp["cbv"]["steps"]
    _passed(9, f"all {len(written)} sidecars byte-identical to regenerated "
               f"oracles; compare/roundtrip exit 0 over the whole corpus, "
               f"scott_consistent true on every rewrite system")
