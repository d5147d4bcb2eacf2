"""The benchmark's tracer times normbench functions by module and name,
so every name it lists must stay a callable of the package, and the
calls between the modules must go through those names."""

import importlib
import importlib.util
from pathlib import Path

from normbench import crs, encode, graphs, workbench

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_a_callable_of_the_package():
    tracer = load_tracer()
    assert len(tracer.TRACED) >= 20
    missing = [f"{module}.{attr}" for module, attr in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"normbench.{module}"),
                                       attr, None))]
    assert missing == []


def test_the_trace_covers_every_graph_run(tmp_path):
    # eval, compare and roundtrip each record one graph_reduce span, whose
    # counts are those of the same run untraced
    tracer = load_tracer()
    corpus = Path(__file__).resolve().parents[1] / "corpus"
    trs, lam_path = corpus / "crs" / "nat_mul.trs", corpus / "lambda" / "church_mult.lam"
    f = crs.parse_system(trs.read_text())
    image = encode.encode_cbv(workbench.load_lambda_file(lam_path))
    cases = [
        (["eval", str(trs), "--engine", "graph"], (f.term, f.system)),
        (["compare", str(lam_path)], (image.term, image.system)),
        (["roundtrip", str(trs)], (f.term, f.system)),
    ]
    modules = {m: importlib.import_module(f"normbench.{m}")
               for m in {module for module, _ in tracer.TRACED}}
    tr, reduce = tracer.Tracer(modules), graphs.graph_reduce
    span = tr.name_id["graphs.graph_reduce"]
    width = len(tracer.FIELDS)
    for argv, (term, system) in cases:
        out = reduce(term, system, workbench.DEFAULT_BUDGET)
        assert out.steps > 0
        tr.reset_op()
        tr.install()
        try:
            modules["cli"].main([*argv, "--out", str(tmp_path / "report.json")])
        finally:
            tr.uninstall()
        spans = [tr.spans[i:i + width] for i in range(0, len(tr.spans), width)]
        assert sum(s[1] == span and s[5] == tr.op for s in spans) == 1, argv
        assert tr.counts["graphs.steps"] == out.steps, argv
        assert tr.counts["graphs.work_nodes"] == sum(out.work), argv
    assert graphs.graph_reduce is reduce
