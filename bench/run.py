#!/usr/bin/env python3
"""normbench benchmark: CLI verdicts end to end, every layer traced from
outside.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One client calls `cli.main` in-process in a closed loop, one operation at
a time, and checks every report against its reference.  The run repeats
whole passes over the workload's operations until `--seconds` is spent.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Passes per run at the least: corpus needs two so that at least ten
# samples lie above its 90th percentile.
MIN_PASSES = {"corpus": 2}
MIN_PASSES_DEFAULT = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 15

# The speed probe.  CPU speed on a shared host swings by up to 80% in
# phases lasting seconds to minutes (README.md), so times are scaled by
# REF_PROBE_S / (median probe time of the pass they belong to), probing
# after every operation.  REF_PROBE_S is the probe time on an unloaded
# core of the reference machine, so scaled times read as seconds there.
PROBE_ITERS = 4000
REF_PROBE_S = 4.2e-4


def _probe_once() -> float:
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(PROBE_ITERS):
        k = i & 63
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


def probe() -> float:
    """Current time of the fixed probe work, best of three."""
    return min(_probe_once(), _probe_once(), _probe_once())


# --- set-up ---------------------------------------------------------------------------

def setup_once(ops) -> tuple[float, dict]:
    """Import normbench afresh and parse/validate every input once."""
    for name in [m for m in sys.modules if m == "normbench" or m.startswith("normbench.")]:
        del sys.modules[name]
    gc.collect()        # the previous set-up's modules, off the clock
    t0 = time.perf_counter()
    importlib.import_module("normbench")
    modules = {m: importlib.import_module(f"normbench.{m}")
               for m in ("cli", "workbench", "lam", "crs", "encode", "scott", "graphs")}
    for path in dict.fromkeys(op.path for op in ops):
        if path.suffix == ".lam":
            modules["workbench"].load_lambda_file(path)
        else:
            modules["crs"].parse_system(path.read_text())
    return time.perf_counter() - t0, modules


def measure_setup(ops) -> tuple[list[float], list[float], dict]:
    raw, probes = [], [probe()]
    for _ in range(SETUP_REPEATS):
        dt, modules = setup_once(ops)
        raw.append(dt)
        probes.append(probe())
    scale = REF_PROBE_S / statistics.median(probes)
    return raw, [dt * scale for dt in raw], modules


# --- passes ----------------------------------------------------------------------------

class Pass:
    """One pass over the workload: per-operation times and verdicts, and
    with tracing the per-layer aggregates."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.probes: list[float] = []
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.undecided = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.engine: dict[tuple, list] = defaultdict(lambda: [0.0, 0])  # (layer, fam, n)

    @property
    def seconds(self) -> float:
        return sum(self.scaled)


# time per step of each engine: (layer, span, inclusive?)  lam and graphs
# count their whole call, substitution and find/fire included; crs leaves
# out the per-step checks that run_phi/run_psi hook into it
ENGINES = (("lam.cbv", "lam.reduce.cbv", True), ("lam.cbn", "lam.reduce.cbn", True),
           ("crs", "crs.reduce", False), ("graphs", "graphs.graph_reduce", True))


def run_pass(ops, modules, out: Path, tracer=None, verbose=False) -> Pass:
    cli = modules["cli"]
    size = modules["lam"].size
    result = Pass()
    gc.collect()
    result.probes.append(probe())
    for op in ops:
        if tracer is not None:
            tracer.reset_op()
        argv = op.argv(out)
        report = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            rc = None
        else:
            dt = time.perf_counter() - t0
        result.probes.append(probe())
        result.raw.append(dt)
        if rc is not None and out.exists():
            report = json.loads(out.read_text())
            out.unlink()
        verdict = workloads.check_report(op, rc, report)
        result.attempted += 1
        result.failed += verdict.failed
        result.wrong += verdict.wrong
        result.undecided += verdict.undecided
        result.steps += verdict.steps
        if verdict.failed and verbose:
            print(f"bench: {op.path.name} {' '.join(op.extra)}: failed: "
                  f"{'; '.join(verdict.reasons)}", file=sys.stderr)
        if tracer is not None:
            _collect(result, tracer, op, size)
    scale = REF_PROBE_S / statistics.median(result.probes)
    result.scaled = [dt * scale for dt in result.raw]
    result.counts["workbench.undecided"] = result.undecided
    return result


def _collect(result: Pass, tracer, op, size) -> None:
    for name, s in tracer.self_s.items():
        result.self_s[name] += s
    for key, value in tracer.counts.items():
        if key == "scott.k":
            result.counts[key] = max(result.counts[key], value)
        else:
            result.counts[key] += value
    result.counts["scott.compiled_size"] += sum(size(t) for t in tracer.compiled)
    for layer, span, inclusive in ENGINES:
        t = (tracer.incl_s if inclusive else tracer.self_s).get(span, 0.0)
        cell = result.engine[(layer, op.family, op.size)]
        cell[0] += t
        cell[1] += tracer.counts.get(f"{layer}.steps", 0)


def run_passes(ops, modules, out, seconds, min_passes, tracer=None):
    """Untraced passes, or with a tracer alternating untraced and traced
    ones, until the minimum is reached and one more round would overrun
    `seconds`."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(ops, modules, out, verbose=not plain))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(ops, modules, out, tracer))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        if rounds >= min_passes and elapsed * (rounds + 1) / rounds > seconds:
            return plain, traced


# --- metrics ---------------------------------------------------------------------------

def end_to_end(passes, setup_scaled) -> dict:
    """Every pass runs the same operations, so an operation's time is the
    median over passes of its scaled time; the percentiles are taken over
    those per-operation times, and a pass's time is their sum, so one
    slow pass moves none of them much."""
    med = statistics.median
    op_s = [med(times) for times in zip(*(p.scaled for p in passes))]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": (med(setup_scaled), "s"),
        "steps_per_s": (med(p.steps for p in passes) / sum(op_s), "steps/s"),
        "verdict_p50_ms": (med(op_s) * 1e3, "ms"),
        "verdict_p90_ms": (statistics.quantiles(op_s, n=10, method="inclusive")[8] * 1e3, "ms"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


# per-layer self time: metric -> the spans it sums
SELF_METRICS = {
    "cli.self_s": ("cli.main",),
    "workbench.self_s": ("workbench.compare_engines", "workbench.roundtrip_check"),
    "workbench.render.self_s": ("workbench.render_report",),
    "lam.cbv.self_s": ("lam.reduce.cbv",),
    "lam.cbn.self_s": ("lam.reduce.cbn",),
    "lam.substitute.self_s": ("lam.substitute",),
    "lam.alpha_eq.self_s": ("lam.alpha_eq",),
    "lam.parse.self_s": ("lam.parse",),
    "crs.self_s": ("crs.reduce",),
    "crs.parse.self_s": ("crs.parse_system",),
    "encode.compile.self_s": ("encode.encode_cbv", "encode.encode_cbn"),
    "encode.run.self_s": ("encode.run_phi", "encode.run_psi"),
    "encode.check.self_s": ("encode.is_canonical", "encode.check_provenance",
                            "encode.psi_is_canonical"),
    "encode.readback.self_s": ("encode.readback",),
    "scott.self_s": ("scott.simulate_and_check",),
    "scott.compile.self_s": ("scott.term_to_lambda",),
    "graphs.self_s": ("graphs.graph_reduce",),
    "graphs.find.self_s": ("graphs.find_redex",),
    "graphs.fire.self_s": ("graphs.fire_redex",),
    "graphs.share_check.self_s": ("graphs.is_constructor_shared",),
    "graphs.unfold.self_s": ("graphs.graph_to_term",),
}
# every span belongs to exactly one layer metric, so the self times add
# up to the traced operation time
assert sorted(s for spans in SELF_METRICS.values() for s in spans) == tracing.SPAN_NAMES

COUNT_METRICS = ("lam.cbv.steps", "lam.cbn.steps", "lam.substitute.calls", "crs.steps",
                 "encode.rules", "scott.compiled_size", "scott.beta_steps", "scott.k",
                 "graphs.steps", "graphs.work_nodes", "workbench.undecided")


def growth_exp(points: dict[int, list]) -> float | None:
    """Least-squares slope of log(ns/step) against log(n)."""
    xy = [(math.log(n), math.log(t / s)) for n, (t, s) in points.items()
          if n > 0 and s > 0 and t > 0]
    if len(xy) < 2:
        return None
    mx = statistics.fmean(x for x, _ in xy)
    my = statistics.fmean(y for _, y in xy)
    sxx = sum((x - mx) ** 2 for x, _ in xy)
    return sum((x - mx) * (y - my) for x, y in xy) / sxx


def per_layer(plain, traced) -> tuple[dict, list[str]]:
    metrics: dict[str, tuple[float, str]] = {}
    errors = []
    med = statistics.median
    for name, spans in SELF_METRICS.items():
        metrics[name] = (med(sum(p.self_s.get(s, 0.0) for s in spans) for p in traced), "s")
    first = traced[0].counts
    for name in COUNT_METRICS:
        values = {p.counts.get(name, 0) for p in traced}
        if len(values) != 1:
            errors.append(f"count {name} differs between passes of one seed: {sorted(values)}")
        metrics[name] = (first.get(name, 0), "ratio" if name == "scott.k" else "count")
    for layer, _, _ in ENGINES:
        per_pass = []
        fams: dict[str, dict[int, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for p in traced:
            t = sum(c[0] for (l, _, _), c in p.engine.items() if l == layer)
            s = sum(c[1] for (l, _, _), c in p.engine.items() if l == layer)
            per_pass.append(t / s * 1e9 if s else 0.0)
            for (l, fam, n), (ct, cs) in p.engine.items():
                if l == layer:
                    fams[fam][n][0] += ct
                    fams[fam][n][1] += cs
        metrics[f"{layer}.ns_per_step"] = (med(per_pass), "ns")
        slopes = [g for g in (growth_exp(pts) for pts in fams.values()) if g is not None]
        metrics[f"{layer}.growth_exp"] = (max(slopes) if slopes else 0.0, "exponent")
    overhead = med(p.seconds for p in traced) / med(p.seconds for p in plain) - 1
    metrics["trace.overhead"] = (overhead, "ratio")
    attributed = sum(sum(p.self_s.values()) for p in traced) / sum(sum(p.raw) for p in traced)
    print(f"# traced: the layer self times cover {attributed:.2%} of the traced operation time")
    return metrics, errors


# --- main ------------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "normbench" / "__init__.py").is_file():
        print(f"bench: no normbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = workloads.build_ops(args.workload, args.seed, ROOT, work)
        setup_raw, setup_scaled, modules = measure_setup(ops)
        min_passes = MIN_PASSES.get(args.workload, MIN_PASSES_DEFAULT)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(modules)
            min_passes = max(min_passes, MIN_TRACED_PASSES)
        plain, traced = run_passes(ops, modules, work / "report.json", args.seconds,
                                   min_passes, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    errors = []
    if args.trace:
        metrics, errors = per_layer(plain, traced)
        tracer.write(ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}")
    else:
        metrics = end_to_end(plain, setup_scaled)
    undecided = {p.undecided for p in passes}
    if len(undecided) != 1:
        errors.append(f"undecided checks differ between passes: {sorted(undecided)}")
    for e in errors:
        print(f"bench: error: {e}", file=sys.stderr)

    n_ops = sum(len(p.raw) for p in plain)
    raw_ms = statistics.median(map(statistics.median, zip(*(p.raw for p in plain)))) * 1e3
    print(f"# {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(plain)} untraced + {len(traced)} traced passes, {n_ops} timed operations")
    print(f"# unscaled: setup {statistics.median(setup_raw):.4f} s, verdict p50 {raw_ms:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    result = {
        "correct": not errors and not any(p.wrong for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
