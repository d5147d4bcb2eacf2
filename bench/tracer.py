"""Outside-in tracer: times the public functions of every normbench layer
without changing a file of the program.

`Tracer.install` replaces module attributes with timing wrappers and
`uninstall` restores them.  The modules call each other through module
attributes, so calls inside one module are caught too.  A function that
calls itself records only its outermost call.  Spans stay in memory in
one float array and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute) -> span name; lam.reduce is split by its strategy
TRACED = {
    ("cli", "main"): "cli.main",
    ("workbench", "compare_engines"): "workbench.compare_engines",
    ("workbench", "roundtrip_check"): "workbench.roundtrip_check",
    ("workbench", "render_report"): "workbench.render_report",
    ("lam", "reduce"): "lam.reduce",
    ("lam", "substitute"): "lam.substitute",
    ("lam", "alpha_eq"): "lam.alpha_eq",
    ("lam", "parse"): "lam.parse",
    ("crs", "reduce"): "crs.reduce",
    ("crs", "parse_system"): "crs.parse_system",
    ("encode", "encode_cbv"): "encode.encode_cbv",
    ("encode", "encode_cbn"): "encode.encode_cbn",
    ("encode", "run_phi"): "encode.run_phi",
    ("encode", "run_psi"): "encode.run_psi",
    ("encode", "readback"): "encode.readback",
    ("encode", "is_canonical"): "encode.is_canonical",
    ("encode", "check_provenance"): "encode.check_provenance",
    ("encode", "psi_is_canonical"): "encode.psi_is_canonical",
    ("scott", "simulate_and_check"): "scott.simulate_and_check",
    ("scott", "term_to_lambda"): "scott.term_to_lambda",
    ("graphs", "graph_reduce"): "graphs.graph_reduce",
    ("graphs", "find_redex"): "graphs.find_redex",
    ("graphs", "fire_redex"): "graphs.fire_redex",
    ("graphs", "is_constructor_shared"): "graphs.is_constructor_shared",
    ("graphs", "graph_to_term"): "graphs.graph_to_term",
}

SPAN_NAMES = sorted(set(TRACED.values()) - {"lam.reduce"} | {"lam.reduce.cbv", "lam.reduce.cbn"})

# the span fields, in the order they are stored
FIELDS = ("index", "name", "start", "end", "parent", "op")


class Tracer:
    """Span recorder with per-operation aggregates and count hooks."""

    def __init__(self, modules):
        self.modules = modules            # module name -> module object
        self.name_id = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.spans = array("d")           # FIELDS per span, in end order
        self.n = 0                        # spans started so far
        self.stack: list[int] = []        # open span indices
        self.covered: list[float] = []    # child time inside each open span
        self.active: set[str] = set()     # names with an open span
        self.op = -1
        self.compiled: list = []          # term_to_lambda results of this op
        self.reset_op()
        self._saved = {}

    def reset_op(self) -> None:
        """Start the aggregates of a new operation."""
        self.op += 1
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.compiled.clear()

    # --- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        for (mod, attr), name in TRACED.items():
            module = self.modules[mod]
            orig = getattr(module, attr)
            self._saved[(mod, attr)] = orig
            setattr(module, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        for (mod, attr), orig in self._saved.items():
            setattr(self.modules[mod], attr, orig)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        on_return = _HOOKS.get(name)
        if name == "lam.reduce":
            def wrapper(*args, **kwargs):
                strategy = args[1] if len(args) > 1 else kwargs.get("strategy", "cbv")
                return self._call(f"lam.reduce.{strategy}", fn, args, kwargs, on_return)
        else:
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs, on_return)
        return wrapper

    def _call(self, name, fn, args, kwargs, on_return):
        if name in self.active:           # recursion: outermost call only
            return fn(*args, **kwargs)
        index = self.n
        self.n += 1
        parent = self.stack[-1] if self.stack else -1
        self.active.add(name)
        self.stack.append(index)
        self.covered.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            child = self.covered.pop()
            self.active.discard(name)
            dur = end - start
            if self.covered:
                self.covered[-1] += dur
            self.self_s[name] += dur - child
            self.incl_s[name] += dur
            self.spans.extend((index, self.name_id[name], start, end, parent, self.op))
        if on_return is not None:
            on_return(self, name, result)
        return result

    # --- output -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as raw float64 records plus a JSON header naming the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".f64"), "wb") as f:
            self.spans.tofile(f)
        path.with_suffix(".json").write_text(json.dumps(
            {"fields": FIELDS, "names": SPAN_NAMES, "spans": len(self.spans) // len(FIELDS)}))


# --- counts from public return values -------------------------------------------------

def _crs(tr, name, out):
    tr.counts["crs.steps"] += out.steps


def _reduce(tr, name, out):
    tr.counts[name.replace("reduce.", "") + ".steps"] += out.steps


def _graph(tr, name, out):
    tr.counts["graphs.steps"] += out.steps
    tr.counts["graphs.work_nodes"] += sum(out.work)


def _rules(tr, name, image):
    tr.counts["encode.rules"] += len(image.system.rules)


def _scott(tr, name, verdict):
    tr.counts["scott.beta_steps"] += verdict.beta_steps
    if verdict.ratio is not None:
        tr.counts["scott.k"] = max(tr.counts["scott.k"], verdict.ratio)


def _compiled(tr, name, term):
    tr.compiled.append(term)      # sized after the operation, off the clock


def _substitute(tr, name, out):
    tr.counts["lam.substitute.calls"] += 1


_HOOKS = {
    "lam.reduce": _reduce,
    "lam.substitute": _substitute,
    "crs.reduce": _crs,
    "graphs.graph_reduce": _graph,
    "encode.encode_cbv": _rules,
    "encode.encode_cbn": _rules,
    "scott.simulate_and_check": _scott,
    "scott.term_to_lambda": _compiled,
}
