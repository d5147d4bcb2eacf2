#!/usr/bin/env python3
"""Freeze the benchmark's references into reference.json.

    python3 bench/record.py

Pins every corpus entry and sidecar by sha256, and records the numbers
that have no closed form: every engine's outcome and steps on the Church
families, and the Scott-compiled beta steps on the rewrite families.  It
runs each instance under several seeds and refuses to record a number
that depends on the seed, and it checks the closed forms of workloads.py
against the engines.  Run it once, when the workloads change; the
benchmark itself never recomputes a reference.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from normbench import cli  # noqa: E402

SEEDS = (1, 2, 3, 4)


def report(command: str, text: str, suffix: str, tmp: Path, *extra: str) -> dict:
    path = tmp / f"input{suffix}"
    path.write_text(text)
    out = tmp / "report.json"
    rc = cli.main([command, str(path), "--out", str(out), *extra])
    rep = json.loads(out.read_text())
    rep["rc"] = rc
    return rep


def agree(key: str, values: list) -> object:
    check(all(v == values[0] for v in values), f"{key} depends on the seed: {values}")
    return values[0]


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"record: {message}")


def main() -> int:
    ref = {"corpus": workloads.pin_corpus(ROOT), "lambda-scale": {}, "rewrite-scale": {}}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as d:
        tmp = Path(d)
        for fam in workloads.LAMBDA_SCALE:
            for n in fam.sizes:
                key = f"{fam.name}/{n}"
                seen = []
                for seed in SEEDS:
                    text, nf = workloads.church_instance(fam.name, n, random.Random(seed))
                    rep = report("compare", text, ".lam", tmp)
                    runs = {}
                    for run in rep["runs"]:
                        if run["engine"].startswith("lambda"):
                            check(run["normal_form"] == nf, f"{key}: {run}")
                            runs[run["engine"]] = {"outcome": run["outcome"],
                                                   "steps": run["steps"]}
                        else:
                            runs[run["engine"]] = {k: run[k] for k in
                                                   ("outcome", "steps", "normal_form")}
                    check(rep["rc"] == 0 and all(rep["checks"].values()), f"{key}: {rep['checks']}")
                    seen.append(runs)
                ref["lambda-scale"][key] = agree(key, seen)
        for fam in workloads.REWRITE_SCALE:
            for n in fam.sizes:
                key = f"{fam.name}/{n}"
                if fam.name == "b1":
                    # a correct compiler reaches the error value; the number
                    # of beta steps it takes is not known yet
                    ref["rewrite-scale"][key] = {"outcome": "normal"}
                    continue
                seen = []
                for seed in SEEDS:
                    text, kind, nf, steps = workloads.rewrite_instance(
                        fam.name, n, random.Random(seed))
                    rep = report("roundtrip", text, ".trs", tmp)
                    crs_run, lam_run, graph_run = rep["runs"]
                    check((crs_run["outcome"], crs_run["steps"], crs_run["normal_form"])
                          == (kind, steps, nf), f"{key}: {crs_run}")
                    check(graph_run["steps"] == steps, f"{key}: {graph_run}")
                    check(rep["rc"] == 0 and all(rep["checks"].values()), f"{key}: {rep['checks']}")
                    seen.append({"outcome": lam_run["outcome"], "steps": lam_run["steps"]})
                ref["rewrite-scale"][key] = agree(key, seen)
        for fam in workloads.ENGINE_EVAL:
            for n in fam.sizes:
                text, kind, nf, steps = workloads.rewrite_instance(fam.name, n, random.Random(1))
                run = report("eval", text, ".trs", tmp, "--engine", "crs")["runs"][0]
                check((run["outcome"], run["steps"], run["normal_form"]) == (kind, steps, nf),
                      f"{fam.name}/{n}: {run}")
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"record: wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
