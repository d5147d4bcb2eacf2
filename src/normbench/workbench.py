"""Cross-engine runs, theorem checks and report assembly.

A report is a plain JSON-ready dict with a fixed key layout; wall-clock
numbers live only under "timing" so reports are otherwise byte-stable for
identical inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from . import crs, encode, graphs, lam, scott

SCHEMA = 1
DEFAULT_BUDGET = 10_000


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextmanager
def timed(timing: dict[str, float], key: str):
    """Record the wall time of the with-block as timing[key]."""
    t0 = time.perf_counter()
    yield
    timing[key] = time.perf_counter() - t0


def lam_run_dict(out: lam.ReductionOutcome) -> dict:
    """The record of a run: outcome, steps and, once finished, the normal
    form.  Reports add the engine; the sidecars store the record as is."""
    d = {"outcome": out.kind, "steps": out.steps}
    if out.kind == "normal":
        d["normal_form"] = lam.to_str(out.term)
    return d


def crs_run_dict(out: crs.CrsOutcome) -> dict:
    d = {"outcome": out.kind, "steps": out.steps}
    if out.kind != "exhausted":
        d["normal_form"] = crs.term_to_str(out.term)
    return d


def graph_run_dict(out: graphs.GraphOutcome) -> dict:
    """The run's record.  A normal run's normal form is printed from the
    result's node records (graphs.unfold_to_str), so the record builds
    neither the result's TermGraph nor its term; unfolded is False when
    the unfolding passes the size limit."""
    d = {"outcome": out.kind, "steps": out.steps,
         "final_nodes": out.sizes[-1], "size_series": list(out.sizes)}
    if out.kind == "normal":
        try:
            d["normal_form"] = graphs.unfold_to_str(out)
            d["unfolded"] = True
        except graphs.UnfoldTooLarge:
            d["unfolded"] = False
    return d


def decide(runs: tuple, both: Callable[[], Optional[bool]], exhausted: Optional[bool],
           split: tuple[Optional[bool], Optional[bool]] = (None, None)) -> Optional[bool]:
    """The value of a check that relates two runs given the same budget.

    `both()` decides the check when both runs finished, `exhausted` is its
    value when neither did, and `split[i]` its value when only runs[i]
    did.  None means the check cannot be decided, so a split that the
    theorem behind the check rules out is False, not None."""
    done = [out.kind != "exhausted" for out in runs]
    if all(done):
        return both()
    if not any(done):
        return exhausted
    return split[0] if done[0] else split[1]


def _runs(records: dict[str, dict]) -> list[dict]:
    return [{"engine": engine, **record} for engine, record in records.items()]


def compare_engines(m: lam.Term, budget: int = DEFAULT_BUDGET) -> dict:
    """Run all five engines on a closed term and evaluate the step-count
    theorems, each check through `decide`."""
    timing: dict[str, float] = {}
    with timed(timing, "lambda-cbv"):
        cbv = lam.reduce(m, "cbv", budget)
    with timed(timing, "phi-crs"):
        phi = encode.encode_cbv(m)
        phi_run = encode.run_phi(phi, budget)
    with timed(timing, "phi-graph"):
        graph = graphs.graph_reduce(phi.term, phi.system, budget)
    with timed(timing, "lambda-cbn"):
        cbn = lam.reduce(m, "cbn", budget)
    with timed(timing, "psi-crs"):
        psi_run = encode.run_psi(encode.encode_cbn(m, phi.registry.table), budget)
    phi_out, psi_out = phi_run.outcome, psi_run.outcome
    graph_record = graph_run_dict(graph)
    runs = {"lambda-cbv": lam_run_dict(cbv), "phi-crs": crs_run_dict(phi_out),
            "phi-graph": graph_record, "lambda-cbn": lam_run_dict(cbn),
            "psi-crs": {**crs_run_dict(psi_out), "ordinary_steps": psi_run.ordinary_steps,
                        "admin_steps": psi_run.admin_steps}}

    cbv_phi, cbv_graph, cbn_psi = (cbv, phi_out), (cbv, graph), (cbn, psi_out)
    msize = lam.size(m)
    checks = {
        # exact CBV simulation: lambda == crs == graph step counts
        "cbv_steps_equal": decide(
            cbv_phi, lambda: phi_out.kind == "constructor" and phi_out.steps == cbv.steps,
            True, (False, False)),
        "phi_readback_alpha_eq": decide(
            cbv_phi, lambda: lam.alpha_eq(phi_run.readback_nf, cbv.term), None),
        "graph_steps_equal": decide(
            cbv_graph, lambda: graph.steps == cbv.steps, True, (False, False)),
        "graph_readback_alpha_eq": decide(
            cbv_graph, lambda: lam.alpha_eq(
                encode.readback(graphs.graph_to_term(graph.graph), phi.registry), cbv.term)
            if graph_record["unfolded"] else None, None),
        # graph size bound: nodes after step i bounded by (i+1)|M|
        "graph_size_bound": all(map(operator.le, graph.sizes, itertools.count(msize, msize))),
        # CBN bounds n <= m <= 2n plus the bookkeeping split: psi cannot
        # finish within a budget CBN runs out of, but m <= 2n may exceed a
        # budget that n fits
        "cbn_bounds": decide(
            cbn_psi, lambda: (psi_out.kind == "constructor"
                              and cbn.steps <= psi_out.steps <= 2 * cbn.steps),
            True, (None, False)),
        "cbn_ordinary_steps_equal": decide(
            cbn_psi, lambda: psi_run.ordinary_steps == cbn.steps, None, (None, False)),
        "psi_readback_alpha_eq": decide(
            cbn_psi, lambda: lam.alpha_eq(psi_run.readback_nf, cbn.term), None),
    }
    relations = {
        "lambda_cbv_steps": cbv.steps,
        "phi_crs_steps": phi_out.steps,
        "phi_graph_steps": graph.steps,
        "lambda_cbn_steps": cbn.steps,
        "psi_crs_steps": psi_out.steps,
        "psi_admin_steps": psi_run.admin_steps,
    }
    return {"schema": SCHEMA, "command": "compare", "budget": budget,
            "term_size": msize, "runs": _runs(runs), "relations": relations,
            "checks": checks, "timing": timing, "_final_graph": graph}


def roundtrip_check(system: crs.CrsSystem, t: crs.Term,
                    budget: int = DEFAULT_BUDGET) -> dict:
    """Reverse simulation plus the graph engine on one closed term."""
    timing: dict[str, float] = {}
    ctx = scott.ScottContext(system)
    with timed(timing, "scott"):
        verdict = scott.simulate_and_check(ctx, t, budget)
    with timed(timing, "graph"):
        graph = graphs.graph_reduce(t, system, budget)
    crs_out = crs.CrsOutcome(verdict.crs_kind, verdict.crs_term, verdict.crs_steps)
    crs_record, graph_record = crs_run_dict(crs_out), graph_run_dict(graph)
    checks = {
        "scott_consistent": verdict.consistent,
        "graph_steps_equal": decide(
            (crs_out, graph), lambda: graph.steps == verdict.crs_steps, True, (False, False)),
        # both normal forms are closed, and term_to_str is injective on
        # closed terms
        "graph_term_equal": decide(
            (crs_out, graph), lambda: (graph_record["normal_form"] == crs_record["normal_form"]
                                       if graph_record["unfolded"] else None), None),
    }
    runs = {"crs": crs_record,
            "lambda-cbv": {"outcome": verdict.beta_kind, "steps": verdict.beta_steps},
            "graph": graph_record}
    return {"schema": SCHEMA, "command": "roundtrip", "budget": budget,
            "runs": _runs(runs), "checks": checks,
            "measured_k": verdict.ratio, "timing": timing, "_final_graph": graph}


def report_ok(report: dict) -> bool:
    """False iff some computed check failed (None means not computable)."""
    return all(v is not False for v in report["checks"].values())


def _float_text(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


# how json writes a scalar, by its type
_SCALARS: dict[type, Callable] = {
    str: json.encoder.encode_basestring_ascii, int: int.__repr__, float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__}


def render_report(report: dict) -> str:
    """The report without its "_" keys, exactly as
    json.dumps(clean, indent=2, sort_keys=True) + "\n" writes it, from
    one explicit-stack walk.  A scalar is written where its container
    is, and a list of plain ints, such as a graph run's size_series, is
    joined in one call.  What the walk does not take apart (an empty or
    non-str-keyed dict, an empty list, another type) json.dumps writes
    at its indent."""
    scalars, key = _SCALARS, json.encoder.encode_basestring_ascii
    out: list[str] = []
    todo: list = [({k: v for k, v in report.items() if not k.startswith("_")}, "\n")]
    while todo:
        item = todo.pop()
        if type(item) is str:           # written values and punctuation
            out.append(item)
            continue
        v, nl = item                    # a container; nl: a newline and its indent
        t, inner = type(v), nl + "  "
        if t is dict and v and {*map(type, v)} == {str}:
            keys = sorted(v)
            items = zip([inner + key(k) + ": " for k in keys], map(v.__getitem__, keys))
            out.append("{")
            close = nl + "}"
        elif (t is list or t is tuple) and v:
            if {*map(type, v)} == {int}:
                out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, v))}{nl}]")
                continue
            items = zip(itertools.repeat(inner), v)
            out.append("[")
            close = nl + "]"
        else:
            out.append(json.dumps(v, indent=2, sort_keys=True).replace("\n", nl))
            continue
        parts: list = []
        for head, x in items:
            if parts:
                head = "," + head
            text = scalars.get(type(x))
            parts += (head + text(x),) if text else (head, (x, inner))
        parts.append(close)
        todo += reversed(parts)
    out.append("\n")
    return "".join(out)


# --- corpus -----------------------------------------------------------------------------

@dataclass
class LambdaEntry:
    name: str
    path: Path
    term: lam.Term


@dataclass
class CrsEntry:
    name: str
    path: Path
    system: crs.CrsSystem
    term: crs.Term


@dataclass
class Corpus:
    lambda_entries: list[LambdaEntry] = field(default_factory=list)
    crs_entries: list[CrsEntry] = field(default_factory=list)

    @classmethod
    def load(cls, root: Path) -> "Corpus":
        """Load and validate every corpus entry; raises on any bad file."""
        root = Path(root)
        corpus = cls()
        for path in sorted((root / "lambda").glob("*.lam")):
            corpus.lambda_entries.append(
                LambdaEntry(path.stem, path, load_lambda_file(path)))
        for path in sorted((root / "crs").glob("*.trs")):
            f = crs.parse_system(path.read_text())
            if f.term is None:
                raise crs.CrsParseError(f"{path}: corpus entry needs a term declaration")
            corpus.crs_entries.append(CrsEntry(path.stem, path, f.system, f.term))
        return corpus


def load_lambda_file(path: Path) -> lam.Term:
    return parse_lambda_text(Path(path).read_text())


def parse_lambda_text(text: str) -> lam.Term:
    """The term of a .lam file's text: its lines joined, without blank
    lines and # comment lines."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    return lam.parse(" ".join(lines))


def lambda_expectation(term: lam.Term, budget: int) -> dict:
    return {"schema": SCHEMA, "budget": budget,
            **{strategy: lam_run_dict(lam.reduce(term, strategy, budget))
               for strategy in ("cbv", "cbn")}}


def crs_expectation(system: crs.CrsSystem, term: crs.Term, budget: int) -> dict:
    return {"schema": SCHEMA, "budget": budget,
            **crs_run_dict(crs.reduce(system, term, budget))}


def expectation_path(entry_path: Path) -> Path:
    return entry_path.with_suffix(".expect.json")


def regenerate_expectations(root: Path, budget: int = DEFAULT_BUDGET,
                            out_root: Optional[Path] = None) -> list[Path]:
    """Recompute every sidecar from the engines; the sidecars are the
    frozen oracle outputs, so this must be deterministic."""
    root = Path(root)
    corpus = Corpus.load(root)
    expectations = itertools.chain(
        ((e.path, lambda_expectation(e.term, budget)) for e in corpus.lambda_entries),
        ((e.path, crs_expectation(e.system, e.term, budget)) for e in corpus.crs_entries))
    written = []
    for path, exp in expectations:
        target = expectation_path(path)
        if out_root is not None:
            target = Path(out_root) / target.relative_to(root)
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(exp, indent=2, sort_keys=True) + "\n")
        written.append(target)
    return written
