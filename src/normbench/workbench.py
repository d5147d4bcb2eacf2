"""Cross-engine runs, theorem checks and report assembly.

A report is a plain JSON-ready dict with a fixed key layout; wall-clock
numbers live only under "timing" so reports are otherwise byte-stable for
identical inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import crs, encode, graphs, lam, scott

SCHEMA = 1
DEFAULT_BUDGET = 10_000


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def lam_run_dict(engine: str, out: lam.ReductionOutcome) -> dict:
    d = {"engine": engine, "outcome": out.kind, "steps": out.steps}
    if out.kind == "normal":
        d["normal_form"] = lam.to_str(out.term)
    return d


def crs_run_dict(engine: str, out: crs.CrsOutcome) -> dict:
    d = {"engine": engine, "outcome": out.kind, "steps": out.steps}
    if out.kind != "exhausted":
        d["normal_form"] = crs.term_to_str(out.term)
    return d


def graph_run_dict(engine: str,
                   out: graphs.GraphOutcome) -> tuple[dict, Optional[crs.Term]]:
    """The run's report entry, and the term a normal run unfolds to (None
    when the run is exhausted or its unfolding is too large)."""
    term = None
    d = {"engine": engine,
         "outcome": "normal" if out.kind == "normal" else "exhausted",
         "steps": out.steps,
         "final_nodes": out.graph.node_count(),
         "size_series": list(out.sizes)}
    if out.kind == "normal":
        try:
            term = graphs.graph_to_term(out.graph)
            d["normal_form"] = crs.term_to_str(term)
            d["unfolded"] = True
        except graphs.UnfoldTooLarge:
            d["unfolded"] = False
    return d, term


def compare_engines(m: lam.Term, budget: int = DEFAULT_BUDGET) -> dict:
    """Run all five engines on a closed term and evaluate the step-count
    theorems; checks stay null when a needed run hit the budget."""
    timing: dict[str, float] = {}
    runs: list[dict] = []
    checks: dict[str, Optional[bool]] = {}

    t0 = time.perf_counter()
    cbv = lam.reduce(m, "cbv", budget)
    timing["lambda-cbv"] = time.perf_counter() - t0
    runs.append(lam_run_dict("lambda-cbv", cbv))

    t0 = time.perf_counter()
    phi = encode.encode_cbv(m)
    phi_run = encode.run_phi(phi, budget)
    timing["phi-crs"] = time.perf_counter() - t0
    runs.append(crs_run_dict("phi-crs", phi_run.outcome))

    t0 = time.perf_counter()
    g = graphs.term_to_graph(phi.term)
    grules = graphs.system_to_graph_rules(phi.system)
    graph_run = graphs.graph_reduce(g, grules, phi.system.signature, budget)
    timing["phi-graph"] = time.perf_counter() - t0
    graph_dict, unfolded = graph_run_dict("phi-graph", graph_run)
    runs.append(graph_dict)

    t0 = time.perf_counter()
    cbn = lam.reduce(m, "cbn", budget)
    timing["lambda-cbn"] = time.perf_counter() - t0
    runs.append(lam_run_dict("lambda-cbn", cbn))

    t0 = time.perf_counter()
    psi = encode.encode_cbn(m)
    psi_run = encode.run_psi(psi, budget)
    timing["psi-crs"] = time.perf_counter() - t0
    pd = crs_run_dict("psi-crs", psi_run.outcome)
    pd["ordinary_steps"] = psi_run.ordinary_steps
    pd["admin_steps"] = psi_run.admin_steps
    runs.append(pd)

    # exact CBV simulation: lambda == crs == graph step counts
    if cbv.kind == "normal" and phi_run.outcome.kind != "exhausted":
        checks["cbv_steps_equal"] = (phi_run.outcome.kind == "constructor"
                                     and phi_run.outcome.steps == cbv.steps)
        checks["phi_readback_alpha_eq"] = (phi_run.readback_nf is not None
                                           and lam.alpha_eq(phi_run.readback_nf, cbv.term))
    else:
        checks["cbv_steps_equal"] = None
        checks["phi_readback_alpha_eq"] = None
        if cbv.kind == "exhausted" and phi_run.outcome.kind == "exhausted":
            checks["cbv_steps_equal"] = True  # both diverge within budget
    if cbv.kind == "normal" and graph_run.kind == "normal":
        checks["graph_steps_equal"] = graph_run.steps == cbv.steps
        checks["graph_readback_alpha_eq"] = (
            None if unfolded is None
            else lam.alpha_eq(encode.readback(unfolded, phi.registry), cbv.term))
    else:
        checks["graph_steps_equal"] = True if (
            cbv.kind == "exhausted" and graph_run.kind == "exhausted") else None
        checks["graph_readback_alpha_eq"] = None

    # graph size bound: nodes after step i bounded by (i+1)|M|
    msize = lam.size(m)
    checks["graph_size_bound"] = all(
        sz <= (i + 1) * msize for i, sz in enumerate(graph_run.sizes))

    # CBN bounds n <= m <= 2n plus the bookkeeping split
    if cbn.kind == "normal" and psi_run.outcome.kind != "exhausted":
        n, msteps = cbn.steps, psi_run.outcome.steps
        checks["cbn_bounds"] = (psi_run.outcome.kind == "constructor"
                                and n <= msteps <= 2 * n)
        checks["cbn_ordinary_steps_equal"] = psi_run.ordinary_steps == n
        checks["psi_readback_alpha_eq"] = (psi_run.readback_nf is not None
                                           and lam.alpha_eq(psi_run.readback_nf, cbn.term))
    else:
        checks["cbn_bounds"] = None
        checks["cbn_ordinary_steps_equal"] = None
        checks["psi_readback_alpha_eq"] = None
        if cbn.kind == "exhausted" and psi_run.outcome.kind == "exhausted":
            checks["cbn_bounds"] = True

    relations = {
        "lambda_cbv_steps": cbv.steps,
        "phi_crs_steps": phi_run.outcome.steps,
        "phi_graph_steps": graph_run.steps,
        "lambda_cbn_steps": cbn.steps,
        "psi_crs_steps": psi_run.outcome.steps,
        "psi_admin_steps": psi_run.admin_steps,
    }
    return {"schema": SCHEMA, "command": "compare", "budget": budget,
            "term_size": msize, "runs": runs, "relations": relations,
            "checks": checks, "timing": timing, "_final_graph": graph_run.graph}


def roundtrip_check(system: crs.CrsSystem, t: crs.Term,
                    budget: int = DEFAULT_BUDGET) -> dict:
    """Reverse simulation plus the graph engine on one closed term."""
    timing: dict[str, float] = {}
    ctx = scott.ScottContext(system)

    t0 = time.perf_counter()
    verdict = scott.simulate_and_check(ctx, t, budget)
    timing["scott"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    g = graphs.term_to_graph(t)
    grules = graphs.system_to_graph_rules(system)
    graph_run = graphs.graph_reduce(g, grules, system.signature, budget)
    timing["graph"] = time.perf_counter() - t0

    runs = [
        {"engine": "crs", "outcome": verdict.crs_kind, "steps": verdict.crs_steps,
         **({"normal_form": crs.term_to_str(verdict.crs_term)}
            if verdict.crs_kind != "exhausted" else {})},
        {"engine": "lambda-cbv", "outcome": verdict.beta_kind, "steps": verdict.beta_steps},
        graph_run_dict("graph", graph_run)[0],
    ]
    checks: dict[str, Optional[bool]] = {"scott_consistent": verdict.consistent}
    if verdict.crs_kind != "exhausted" and graph_run.kind == "normal":
        checks["graph_steps_equal"] = graph_run.steps == verdict.crs_steps
        # both normal forms are closed, and term_to_str is injective on
        # closed terms
        checks["graph_term_equal"] = (runs[2]["normal_form"] == runs[0]["normal_form"]
                                      if runs[2]["unfolded"] else None)
    elif verdict.crs_kind == "exhausted" and graph_run.kind == "exhausted":
        checks["graph_steps_equal"] = True
        checks["graph_term_equal"] = None
    else:
        checks["graph_steps_equal"] = None
        checks["graph_term_equal"] = None
    report = {"schema": SCHEMA, "command": "roundtrip", "budget": budget,
              "runs": runs, "checks": checks,
              "measured_k": verdict.ratio, "timing": timing,
              "_final_graph": graph_run.graph}
    return report


def report_ok(report: dict) -> bool:
    """False iff some computed check failed (None means not computable)."""
    return all(v is not False for v in report["checks"].values())


def render_report(report: dict, strip_timing: bool = False) -> str:
    clean = {k: v for k, v in report.items() if not k.startswith("_")}
    if strip_timing:
        clean.pop("timing", None)
    return json.dumps(clean, indent=2, sort_keys=True) + "\n"


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
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    return lam.parse(" ".join(lines))


def lambda_expectation(term: lam.Term, budget: int) -> dict:
    exp: dict = {"schema": SCHEMA, "budget": budget}
    for strategy in ("cbv", "cbn"):
        out = lam.reduce(term, strategy, budget)
        entry = {"outcome": out.kind, "steps": out.steps}
        if out.kind == "normal":
            entry["normal_form"] = lam.to_str(out.term)
        exp[strategy] = entry
    return exp


def crs_expectation(system: crs.CrsSystem, term: crs.Term, budget: int) -> dict:
    out = crs.reduce(system, term, budget)
    exp = {"schema": SCHEMA, "budget": budget,
           "outcome": out.kind, "steps": out.steps}
    if out.kind != "exhausted":
        exp["normal_form"] = crs.term_to_str(out.term)
    return exp


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
