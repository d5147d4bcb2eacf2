import hashlib
import io
import json
import os
import random
from pathlib import Path

import pytest

from normbench import cli, crs, encode, graphs, lam, workbench
from tests_util import lam_is_closed

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def p(s):
    return lam.parse(s)


# --- cross-engine comparison ---------------------------------------------------------

def test_compare_dup_drop_example():
    report = workbench.compare_engines(p("(\\x. (\\y. x) x) (\\z. z)"), 1000)
    by_engine = {r["engine"]: r for r in report["runs"]}
    assert by_engine["lambda-cbv"]["steps"] == 2
    assert by_engine["phi-crs"]["steps"] == 2
    assert by_engine["phi-graph"]["steps"] == 2
    assert all(v is True for v in report["checks"].values()
               if v is not None)
    assert workbench.report_ok(report)


def test_compare_identity_redex():
    report = workbench.compare_engines(p("(\\x. x) (\\y. y)"), 100)
    by_engine = {r["engine"]: r for r in report["runs"]}
    for eng in ("lambda-cbv", "phi-crs", "phi-graph"):
        assert by_engine[eng]["steps"] == 1


def test_compare_omega_records_exhaustion():
    report = workbench.compare_engines(p("(\\x. x x) (\\y. y y)"), 60)
    by_engine = {r["engine"]: r for r in report["runs"]}
    for run in report["runs"]:
        assert run["outcome"] == "exhausted"
        assert run["steps"] == 60
    # flags restricted to terminated pairs stay null or report joint divergence
    assert report["checks"]["phi_readback_alpha_eq"] is None
    assert workbench.report_ok(report)


def test_compare_cbn_only_term():
    report = workbench.compare_engines(
        p("(\\x. \\y. y) ((\\x. x x) (\\x. x x))"), 80)
    by_engine = {r["engine"]: r for r in report["runs"]}
    assert by_engine["lambda-cbv"]["outcome"] == "exhausted"
    assert by_engine["lambda-cbn"]["steps"] == 1
    assert by_engine["psi-crs"]["steps"] == 1
    assert report["checks"]["cbn_bounds"] is True
    assert workbench.report_ok(report)


def test_report_determinism():
    m = p("(\\x. (\\y. x) x) (\\z. z)")
    reports = [workbench.compare_engines(m, 500) for _ in range(2)]
    for report in reports:
        report.pop("timing")
    r1, r2 = (workbench.render_report(report) for report in reports)
    assert r1 == r2
    assert "_final_graph" not in r1


def json_reference(report):
    clean = {k: v for k, v in report.items() if not k.startswith("_")}
    return json.dumps(clean, indent=2, sort_keys=True) + "\n"


def test_render_report_writes_what_json_writes_on_the_corpus():
    corpus = workbench.Corpus.load(CORPUS)
    reports = [workbench.compare_engines(e.term) for e in corpus.lambda_entries]
    reports += [workbench.roundtrip_check(e.system, e.term) for e in corpus.crs_entries]
    assert len(reports) == 70
    for report in reports:
        assert workbench.render_report(report) == json_reference(report)


def test_render_report_writes_what_json_writes_on_eval_reports(tmp_path, monkeypatch):
    seen = []
    render = workbench.render_report
    monkeypatch.setattr(workbench, "render_report", lambda r: seen.append(r) or render(r))
    for path in sorted((CORPUS / "crs").glob("*.trs")):
        for engine in ("crs", "graph"):
            cli.main(["eval", str(path), "--engine", engine, "--out", str(tmp_path / "r.json")])
    assert len(seen) == 16
    for report in seen:
        assert render(report) == json_reference(report)


def test_render_report_writes_what_json_writes_on_every_kind_of_value():
    report = {
        "empty": {}, "none": [], "tuple": (1, 2), "empty_tuple": (),
        "scalars": [True, False, None, 0, -3, "", "x"], "ints_and_a_bool": [1, True, 2],
        "bools": [False, True], "floats": [1e-7, 1e20, -0.0, float("nan"), float("inf"), 2.5],
        "text": "caf\u00e9 \u2192 \u03bb\"q\"\n\\", "\u00fcber": {"b": 1, "a": [0]},
        "nested": [[1, [2, [3, []]]], [], [[]], {"k": [{}]}],
        "int_keys": {2: "b", 1: [1]}, "float": 0.1, "bool": True, "null": None,
        "_hidden": [object()],
    }
    assert workbench.render_report(report) == json_reference(report)
    assert workbench.render_report({}) == "{}\n"


def test_roundtrip_add():
    f = crs.parse_system((CORPUS / "crs" / "nat_add.trs").read_text())
    report = workbench.roundtrip_check(f.system, f.term, 1000)
    assert report["checks"]["scott_consistent"] is True
    assert report["checks"]["graph_steps_equal"] is True
    assert report["checks"]["graph_term_equal"] is True
    assert report["measured_k"] is not None
    assert workbench.report_ok(report)


def test_roundtrip_stuck():
    f = crs.parse_system((CORPUS / "crs" / "stuck.trs").read_text())
    report = workbench.roundtrip_check(f.system, f.term, 1000)
    runs = {r["engine"]: r for r in report["runs"]}
    assert runs["crs"]["outcome"] == "stuck"
    assert report["checks"]["scott_consistent"] is True


def test_roundtrip_loop():
    f = crs.parse_system((CORPUS / "crs" / "loop.trs").read_text())
    report = workbench.roundtrip_check(f.system, f.term, 50)
    runs = {r["engine"]: r for r in report["runs"]}
    assert runs["crs"]["outcome"] == "exhausted"
    assert runs["lambda-cbv"]["outcome"] == "exhausted"
    assert report["checks"]["scott_consistent"] is True


def test_roundtrip_function_without_rules():
    # a call with no governing rules is immediately stuck, and the compiled
    # term agrees by reducing to the error value
    f = crs.parse_system(
        "constructor zero/0;\nfunction f/1;\nterm f(zero);")
    report = workbench.roundtrip_check(f.system, f.term, 100)
    runs = {r["engine"]: r for r in report["runs"]}
    assert runs["crs"]["outcome"] == "stuck" and runs["crs"]["steps"] == 0
    assert report["checks"]["scott_consistent"] is True
    assert workbench.report_ok(report)


def one_step_short(module, name, strategy=None):
    """module.name with one step less of budget than asked (for
    lam.reduce, under `strategy` only): a mutant engine."""
    fn = getattr(module, name)
    if strategy is None:
        return lambda *args, **kw: fn(*args[:2], args[2] - 1, *args[3:], **kw)
    return lambda t, s="cbv", budget=10_000, rng=None: fn(t, s, budget - (s == strategy), rng)


# both engines get the same budget, so the theorem rules out each split:
# (command, input, budget, mutant engine, the checks that must fail)
SPLITS = [("compare", "lambda/id_redex.lam", 1, (graphs, "graph_reduce"),
           ["graph_steps_equal"]),
          ("roundtrip", "crs/nat_add.trs", 4, (graphs, "graph_reduce"), ["graph_steps_equal"]),
          ("compare", "lambda/id_redex.lam", 1, (lam, "reduce", "cbn"),
           ["cbn_bounds", "cbn_ordinary_steps_equal"])]


@pytest.mark.parametrize("command,entry,budget,mutant,failing", SPLITS,
                         ids=["graph-vs-cbv", "graph-vs-crs", "cbn-vs-psi"])
def test_budget_split_fails_the_check(monkeypatch, capsys, command, entry, budget,
                                      mutant, failing):
    argv = [command, str(CORPUS / entry), "--budget", str(budget)]
    assert cli.main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert all(checks[c] is True for c in failing)
    monkeypatch.setattr(*mutant[:2], one_step_short(*mutant))
    assert cli.main(argv) == 3
    mutated = json.loads(capsys.readouterr().out)["checks"]
    assert {c: v for c, v in mutated.items() if v is False} == dict.fromkeys(failing, False)


def test_report_ok_detects_failure():
    assert not workbench.report_ok({"checks": {"a": True, "b": False}})
    assert workbench.report_ok({"checks": {"a": True, "b": None}})


# --- corpus -----------------------------------------------------------------------------

def test_corpus_loads_and_validates():
    corpus = workbench.Corpus.load(CORPUS)
    assert len(corpus.lambda_entries) >= 50
    assert len(corpus.crs_entries) >= 5
    for entry in corpus.lambda_entries:
        assert lam_is_closed(entry.term)


def test_expectations_regenerate_deterministically(tmp_path):
    workbench.regenerate_expectations(CORPUS, out_root=tmp_path)
    for fresh in sorted(tmp_path.rglob("*.expect.json")):
        rel = fresh.relative_to(tmp_path)
        assert fresh.read_text() == (CORPUS / rel).read_text(), rel


# --- CLI ---------------------------------------------------------------------------------

def test_cli_eval_lambda(tmp_path, capsys):
    src = tmp_path / "t.lam"
    src.write_text("(\\x. (\\y. x) x) (\\z. z)\n")
    assert cli.main(["eval", "--engine", "lambda-cbv", "--budget", "1000",
                     str(src)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"][0]["steps"] == 2
    assert report["runs"][0]["normal_form"] == "\\z. z"
    assert report["input"]["sha256"] == workbench.digest(src.read_bytes())


def test_cli_eval_crs_and_graph(tmp_path, capsys):
    src = CORPUS / "crs" / "nat_add.trs"
    assert cli.main(["eval", "--engine", "crs", str(src)]) == 0
    steps_crs = json.loads(capsys.readouterr().out)["runs"][0]["steps"]
    assert cli.main(["eval", "--engine", "graph", str(src)]) == 0
    graph_run = json.loads(capsys.readouterr().out)["runs"][0]
    assert graph_run["steps"] == steps_crs
    assert graph_run["unfolded"] is True
    assert "size_series" in graph_run


def test_cli_eval_crs_engine_on_lambda_input(capsys):
    # .lam inputs run through the CBV encoding first
    src = CORPUS / "lambda" / "dup_drop.lam"
    assert cli.main(["eval", "--engine", "crs", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["runs"][0]["steps"] == 2
    assert cli.main(["eval", "--engine", "graph", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["runs"][0]["steps"] == 2


def test_cli_eval_random_policy(tmp_path, capsys):
    src = tmp_path / "t.lam"
    src.write_text("(\\x. (\\y. x) x) (\\z. z)\n")
    assert cli.main(["eval", "--engine", "lambda-cbv", "--policy", "random",
                     "--seed", "7", str(src)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"][0]["steps"] == 2


def test_cli_eval_open_term_same_report_every_call(tmp_path, capsys):
    # fresh names are numbered per call, not per process
    src = tmp_path / "open.lam"
    src.write_text("(\\x. \\y. x) y\n")
    for engine in (["lambda-cbv"], ["lambda-cbn"], ["lambda-cbv", "--policy", "random"]):
        reports = []
        for _ in range(2):
            assert cli.main(["eval", "--engine", *engine, str(src)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            reports[-1].pop("timing")
        assert reports[0] == reports[1], engine
        assert reports[0]["runs"][0]["normal_form"] == "\\y_0. y", engine


def test_cli_random_policy_agrees_with_leftmost_on_the_corpus(capsys):
    # the diamond, end to end: a diverging entry runs the whole budget
    # under either policy
    files = sorted((CORPUS / "lambda").glob("*.lam"))
    assert len(files) >= 60
    for path in files:
        reports = []
        for policy in ([], ["--policy", "random", "--seed", "0"],
                       ["--policy", "random", "--seed", "3"]):
            assert cli.main(["eval", "--engine", "lambda-cbv", *policy, str(path)]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["policy"], report["timing"]
            reports.append(report)
        assert reports[0] == reports[1] == reports[2], path.name


OMEGA = str(CORPUS / "lambda" / "omega.lam")


@pytest.mark.parametrize("argv", [
    *(["eval", "--engine", engine, *policy, OMEGA]
      for engine in ("lambda-cbv", "lambda-cbn", "crs", "graph")
      for policy in ([], ["--policy", "random"])),
    ["compare", OMEGA],
    ["roundtrip", str(CORPUS / "crs" / "nat_add.trs")],
], ids=lambda argv: "-".join(a for a in argv[:-1] if a != "--policy"))
def test_cli_refuses_a_negative_budget(capsys, argv):
    assert cli.main([*argv, "--budget", "-1"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", "normbench: --budget must be >= 0\n")


@pytest.mark.parametrize("policy", [None, 0])
@pytest.mark.parametrize("engine", ["lambda-cbv", "lambda-cbn", "crs", "graph"])
def test_engines_refuse_a_negative_budget(engine, policy):
    # omega diverges: an engine that took a negative budget would never stop
    omega = p("(\\x. x x) (\\x. x x)")
    image = encode.encode_cbv(omega)
    rng = None if policy is None else random.Random(policy)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        if engine.startswith("lambda"):
            lam.reduce(omega, engine[-3:], -1, rng)
        elif engine == "crs":
            crs.reduce(image.system, image.term, -1, rng)
        else:
            graphs.graph_reduce(image.term, image.system, -1, rng=rng)


def test_lam_reduce_refuses_an_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy 'cbv '"):
        lam.reduce(p("(\\x. x) (\\y. y)"), "cbv ", 10)


def test_cli_encode_roundtrips(tmp_path, capsys):
    src = tmp_path / "t.lam"
    src.write_text("(\\x. x x) (\\y. y y)\n")
    dest = tmp_path / "t.trs"
    assert cli.main(["encode", "--to", "crs", str(src), "--out", str(dest)]) == 0
    f = crs.parse_system(dest.read_text())
    assert f.term is not None
    assert cli.main(["encode", "--to", "crs-cbn", str(src)]) == 0
    text = capsys.readouterr().out
    assert "capp/2" in text
    assert cli.main(["encode", "--to", "lambda",
                     str(CORPUS / "crs" / "nat_add.trs")]) == 0
    compiled = capsys.readouterr().out.strip()
    assert lam_is_closed(lam.parse(compiled))


def test_cli_compare_corpus_file(capsys):
    assert cli.main(["compare", str(CORPUS / "lambda" / "dup_drop.lam")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["cbv_steps_equal"] is True


def test_cli_roundtrip(capsys):
    assert cli.main(["roundtrip", str(CORPUS / "crs" / "nat_add.trs")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["measured_k"] is not None


def test_cli_graph_dot(tmp_path):
    dest = tmp_path / "g.dot"
    assert cli.main(["graph-dot", str(CORPUS / "crs" / "nat_add.trs"),
                     "--out", str(dest)]) == 0
    assert dest.read_text().startswith("digraph")


def test_cli_emit_dot(tmp_path, capsys):
    dest = tmp_path / "final.dot"
    assert cli.main(["eval", "--engine", "graph",
                     str(CORPUS / "crs" / "nat_add.trs"),
                     "--emit-dot", str(dest)]) == 0
    capsys.readouterr()
    assert "digraph" in dest.read_text()


def count_write_backs(monkeypatch) -> list:
    calls = []
    write_back = graphs._write_back
    monkeypatch.setattr(graphs, "_write_back",
                        lambda *args: calls.append(args) or write_back(*args))
    return calls


@pytest.mark.parametrize("argv", [["eval", "--engine", "graph", "crs/nat_add.trs"],
                                  ["eval", "--engine", "graph", "lambda/dup_drop.lam"],
                                  ["eval", "--engine", "graph", "--policy", "random",
                                   "crs/nat_add.trs"],
                                  ["roundtrip", "crs/nat_add.trs"]])
def test_graph_result_written_back_only_for_dot(tmp_path, monkeypatch, capsys, argv):
    # the report prints the normal form from the result's records: the
    # result becomes a TermGraph once, and only for --emit-dot
    calls = count_write_backs(monkeypatch)
    src = [*argv[:-1], str(CORPUS / argv[-1])]
    assert cli.main(src) == 0
    assert calls == []
    report = json.loads(capsys.readouterr().out)
    dest = tmp_path / "final.dot"
    assert cli.main([*src, "--emit-dot", str(dest)]) == 0
    assert len(calls) == 1 and dest.read_text().startswith("digraph")
    with_dot = json.loads(capsys.readouterr().out)
    report.pop("timing"), with_dot.pop("timing")
    assert report == with_dot


def test_final_graph_is_the_outcome(monkeypatch):
    # the reports hold the graph run's outcome, not its graph, so that
    # building them forces no write-back: compare reads the graph verdict
    # off the phi run, whose result prints the same
    calls = count_write_backs(monkeypatch)
    f = crs.parse_system((CORPUS / "crs" / "nat_add.trs").read_text())
    report = workbench.roundtrip_check(f.system, f.term)
    assert isinstance(report["_final_graph"], graphs.GraphOutcome) and calls == []
    report = workbench.compare_engines(p("(\\x. (\\y. x) x) (\\z. z)"), 1000)
    assert isinstance(report["_final_graph"], graphs.GraphOutcome) and calls == []
    assert report["checks"]["graph_readback_alpha_eq"] is True


def full_graph_alpha_eq(m, report):
    """graph_readback_alpha_eq decided from the graph result itself:
    written back, unfolded, read back and compared with the CBV result."""
    cbv = lam.reduce(m, "cbv", report["budget"])
    graph = report["_final_graph"]
    record = next(r for r in report["runs"] if r["engine"] == "phi-graph")
    registry = encode.encode_cbv(m).registry
    return workbench.decide(
        (cbv, graph), lambda: lam.alpha_eq(
            encode.readback(graphs.graph_to_term(graph.graph), registry), cbv.term)
        if record["unfolded"] else None, None)


def test_graph_verdict_from_the_phi_run_on_the_corpus(monkeypatch):
    calls = count_write_backs(monkeypatch)
    entries = workbench.Corpus.load(CORPUS).lambda_entries
    decided = 0
    for entry in entries:
        report = workbench.compare_engines(entry.term)
        assert calls == [], entry.name
        got = report["checks"]["graph_readback_alpha_eq"]
        assert got is full_graph_alpha_eq(entry.term, report), entry.name
        calls.clear()
        decided += got is not None
    assert len(entries) == 62 and decided > 40


def test_graph_verdict_when_the_prints_differ(monkeypatch):
    # a phi run patched to end elsewhere prints another normal form: the
    # graph result is then read back itself, and its verdict is not the
    # phi run's
    calls = count_write_backs(monkeypatch)
    run_phi = encode.run_phi
    other = encode.encode_cbv(p("(\\x. x) (\\y. \\w. y)"))
    monkeypatch.setattr(encode, "run_phi", lambda image, budget: run_phi(other, budget))
    m = p("(\\x. (\\y. x) x) (\\z. z)")
    report = workbench.compare_engines(m, 1000)
    checks = report["checks"]
    assert (checks["phi_readback_alpha_eq"], checks["graph_readback_alpha_eq"]) == (False, True)
    assert len(calls) == 1 and full_graph_alpha_eq(m, report) is True


@pytest.mark.parametrize("name, argvs", [
    ("lambda/dup_drop.lam", [["eval", "--engine", "lambda-cbn"], ["eval", "--engine", "graph"],
                             ["compare"], ["encode", "--to", "crs-cbn"], ["graph-dot"]]),
    ("crs/nat_add.trs", [["eval", "--engine", "crs"], ["roundtrip"], ["encode", "--to", "lambda"],
                         ["graph-dot"]]),
])
def test_cli_reads_its_input_once(tmp_path, monkeypatch, capsys, name, argvs):
    # each command opens its input once: the stanza hashes the bytes read,
    # and the text is decoded from them as Path.read_text() would, so a
    # copy with CRLF line ends gives the same report but for the stanza
    src = CORPUS / name
    crlf = tmp_path / src.name
    crlf.write_bytes(src.read_bytes().replace(b"\n", b"\r\n"))
    reads = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) in (src, crlf):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    for argv in argvs:
        outs = []
        for path in (src, crlf):
            reads.clear()
            assert cli.main([*argv, str(path)]) == 0
            assert len(reads) == 1, argv
            out = capsys.readouterr().out
            if out.startswith("{"):
                report = json.loads(out)
                report.pop("timing")
                assert report.pop("input") == {
                    "path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                out = report
            outs.append(out)
        assert outs[0] == outs[1], argv


def test_cli_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.lam"
    bad.write_text("\\x. (\n")
    assert cli.main(["eval", str(bad)]) == 1
    capsys.readouterr()
    # bytes that do not decode are a parse error too, not a traceback
    bad.write_bytes(b"\\x. x \xff\n")
    assert cli.main(["eval", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"normbench: {bad}: ")


def test_cli_validation_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.trs"
    bad.write_text("constructor zero/0;\nfunction f/1;\n"
                   "rule f(x) -> f(x);\nrule f(zero) -> zero;\n")
    assert cli.main(["eval", "--engine", "crs", str(bad)]) == 2
    capsys.readouterr()
    open_term = tmp_path / "open.lam"
    open_term.write_text("x y\n")
    assert cli.main(["compare", str(open_term)]) == 2
    capsys.readouterr()


# (subcommand and input under the corpus, output option): every --out,
# and --emit-dot wherever a final graph is written
UNWRITABLE = [(["eval", "--engine", "crs", "crs/nat_add.trs"], "--out"),
              (["encode", "--to", "crs", "lambda/dup_drop.lam"], "--out"),
              (["compare", "lambda/dup_drop.lam"], "--out"),
              (["roundtrip", "crs/nat_add.trs"], "--out"),
              (["graph-dot", "crs/nat_add.trs"], "--out"),
              (["eval", "--engine", "graph", "crs/nat_add.trs"], "--emit-dot"),
              (["compare", "lambda/dup_drop.lam"], "--emit-dot"),
              (["roundtrip", "crs/nat_add.trs"], "--emit-dot")]


@pytest.mark.parametrize("argv, option", UNWRITABLE,
                         ids=[f"{argv[0]}{option}" for argv, option in UNWRITABLE])
def test_cli_unwritable_output_exit_2(tmp_path, capsys, argv, option):
    # a path in a directory that does not exist: one line on stderr and
    # exit 2, as for other usage errors
    dest = tmp_path / "missing" / "x.out"
    assert cli.main([*argv[:-1], str(CORPUS / argv[-1]), option, str(dest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"normbench: cannot write {dest}: ") and err.count("\n") == 1


def test_cli_trs_without_term_exit_2(tmp_path, capsys):
    src = tmp_path / "no_term.trs"
    src.write_text("constructor zero/0;\nfunction f/1;\nrule f(zero) -> zero;\n")
    for argv in (["eval", "--engine", "crs"], ["eval", "--engine", "graph"],
                 ["graph-dot"]):
        assert cli.main(argv + [str(src)]) == 2, argv
        assert "no term declaration in input" in capsys.readouterr().err


def test_cli_check_failure_exit_3(tmp_path, capsys, monkeypatch):
    src = tmp_path / "t.lam"
    src.write_text("\\x. x\n")

    def fake_compare(term, budget):
        return {"schema": 1, "command": "compare", "budget": budget,
                "term_size": 2, "runs": [], "checks": {"cbv_steps_equal": False},
                "timing": {}}

    monkeypatch.setattr(workbench, "compare_engines", fake_compare)
    assert cli.main(["compare", str(src)]) == 3
    capsys.readouterr()


def test_cli_parser_reused_across_calls(capsys):
    # the parser is built once per process; each report (timing aside)
    # equals the one a fresh parser gives, so no default or state leaks
    lam_src = str(CORPUS / "lambda" / "dup_drop.lam")
    trs_src = str(CORPUS / "crs" / "nat_add.trs")
    calls = [["eval", "--policy", "random", "--seed", "3", lam_src],
             ["eval", lam_src],
             ["compare", lam_src],
             ["eval", "--engine", "graph", "--policy", "random", "--seed", "3", trs_src],
             ["eval", "--engine", "crs", "--budget", "2", trs_src],
             ["roundtrip", trs_src]]

    def report(argv):
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        out.pop("timing")
        return out

    cli.build_parser.cache_clear()
    reused = [report(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(report(argv))
    assert reused == fresh
    assert [r.get("policy") for r in reused] == ["random", "leftmost", None,
                                                "random", "leftmost", None]
    assert reused[4]["budget"] == 2 and reused[5]["budget"] == workbench.DEFAULT_BUDGET


# --- depth beyond the recursion limit -------------------------------------------------

NAT_ADD = ("constructor zero/0;\nconstructor succ/1;\nfunction add/2;\n"
           "rule add(zero, y) -> y;\nrule add(succ(x), y) -> succ(add(x, y));\n")


def test_roundtrip_long_numeral():
    # add(nat(4000), nat(2)): the graph's normal form is compared as printed
    n = 4000
    f = crs.parse_system(NAT_ADD + "term add(" + "succ(" * n + "zero" + ")" * n
                         + ", succ(succ(zero)));\n")
    report = workbench.roundtrip_check(f.system, f.term)
    assert report["checks"] == {"scott_consistent": True, "graph_steps_equal": True,
                                "graph_term_equal": True}
    crs_run, _, graph_run = report["runs"]
    assert graph_run["normal_form"] == crs_run["normal_form"]
    assert crs_run["normal_form"] == "succ(" * (n + 2) + "zero" + ")" * (n + 2)


def test_roundtrip_deep_nested_calls(tmp_path, capsys):
    depth = 20_000
    text = ("constructor z/0;\nfunction f/1;\nrule f(z) -> z;\n"
            "term " + "f(" * depth + "z" + ")" * depth + ";\n")
    f = crs.parse_system(text)
    report = workbench.roundtrip_check(f.system, f.term, budget=5)
    assert [(r["outcome"], r["steps"]) for r in report["runs"]] == [("exhausted", 5)] * 3
    assert report["checks"] == {"scott_consistent": True, "graph_steps_equal": True,
                                "graph_term_equal": None}
    path = tmp_path / "deep.trs"
    path.write_text(text)
    assert cli.main(["roundtrip", str(path), "--budget", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == report["checks"]
