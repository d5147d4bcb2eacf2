#!/usr/bin/env python3
"""Compare the outputs of two checkouts of normbench.

    python tools/diff_outputs.py OLD NEW [--seed N]

OLD and NEW are checkout roots.  The inputs are NEW's corpus, the
inputs that NEW's bench/workloads.py writes for all four workloads under
the seed, and the staircases at 3 and 4 rows (staircase), written once
into a temporary directory so that both checkouts read the same files.
On every input each checkout runs, in one subprocess that imports its
own src/:

- eval with the crs and graph engines, under the leftmost and the random
  policy, with the final graph as DOT;
- compare on a .lam input and roundtrip on a .trs input, with the final
  graph as DOT;
- encode (to crs and crs-cbn for a .lam input, to lambda for a .trs
  input) and graph-dot;
- encode to crs and crs-cbn on the compiled term of each .trs input of
  the corpus, of rewrite-scale and of the staircases, which NEW writes
  once with encode --to lambda: large lambda terms that share subterms;
- and, once, the corpus sidecars regenerated by
  workbench.regenerate_expectations.

JSON reports are compared with their "timing" key removed, every other
output byte for byte, and so are each command's exit code and stderr.
Prints the number of outputs compared and each one that differs; exits
1 if any differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs inside a checkout's interpreter: argv[1] is the job file, argv[2]
# the output directory, argv[3] the corpus whose sidecars it regenerates.
# Each job is (name, argv); the command writes its report to <name>.out
# (and a graph to <name>.dot), and its exit code and stderr go to
# <name>.rc.
DRIVER = r"""
import contextlib, io, json, sys
from pathlib import Path
from normbench import cli, workbench
jobs, out = json.loads(Path(sys.argv[1]).read_text()), Path(sys.argv[2])
for name, argv in jobs:
    argv = [a.replace("{out}", str(out / name)) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    (out / (name + ".rc")).write_text(f"{rc}\n{err.getvalue()}")
corpus = Path(sys.argv[3])
workbench.regenerate_expectations(corpus, out_root=out / "sidecars")
"""

# Runs inside NEW's interpreter: writes the compiled term of each .trs
# input argv[2k+1] to the .lam file argv[2k+2].
COMPILE = r"""
import sys
from normbench import cli
for src, dst in zip(sys.argv[1::2], sys.argv[2::2]):
    if cli.main(["encode", src, "--to", "lambda", "--out", dst]) != 0:
        sys.exit(f"cannot compile {src}")
"""

POLICIES = (("leftmost",), ("random", "--seed", "7"))


def load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("diff_workloads", root / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def staircase(n: int) -> str:
    """The .trs text of f over n + 1 arguments and n rules, rule i with T
    in argument i, c_i in the last and variables elsewhere, applied to
    f(U, T, .., T, c_{n-1}).  No two rules overlap, but each switch's
    rows with a variable wait in its default, which no corpus or bench
    system has."""
    lines = [f"constructor {c}/0;" for c in ["T", "U"] + [f"c{i}" for i in range(n)]]
    lines.append(f"function f/{n + 1};")
    for i in range(n):
        args = ["T" if j == i else f"x{j}" for j in range(n)] + [f"c{i}"]
        lines.append(f"rule f({', '.join(args)}) -> x{(i + 1) % n};")
    lines.append(f"term f({', '.join(['U'] + ['T'] * (n - 1) + [f'c{n - 1}'])});")
    return "\n".join(lines) + "\n"


def inputs(new: Path, work: Path, seed: int) -> tuple[Path, list[Path], list[Path]]:
    """The corpus copy, every input file and the compiled terms, written
    under work."""
    corpus = work / "corpus"
    shutil.copytree(new / "corpus", corpus)
    files = sorted(corpus.rglob("*.lam")) + sorted(corpus.rglob("*.trs"))
    workloads = load_workloads(new)
    for name in workloads.WORKLOADS[1:]:
        d = work / name
        d.mkdir()
        workloads.build_ops(name, seed, corpus, d)
        files += sorted(d.iterdir())
    d = work / "staircase"
    d.mkdir()
    for n in (3, 4):
        files.append(d / f"staircase_{n}.trs")
        files[-1].write_text(staircase(n))
    d = work / "compiled"
    d.mkdir()
    pairs = [(path, d / f"{path.parent.name}_{path.stem}.lam") for path in files if
             path.suffix == ".trs" and path.parent.name in ("crs", "rewrite-scale", "staircase")]
    subprocess.run([sys.executable, "-c", COMPILE, *(str(p) for pair in pairs for p in pair)],
                   env={**os.environ, "PYTHONPATH": str(new / "src")}, check=True)
    return corpus, files, [dst for _, dst in pairs]


def jobs(files: list[Path], compiled: list[Path]) -> list[tuple[str, list[str]]]:
    out = []
    for path in compiled:
        for to in ("crs", "crs-cbn"):
            out.append((f"compiled_{path.stem}.encode_{to}",
                        ["encode", str(path), "--to", to, "--out", "{out}.out"]))
    for k, path in enumerate(files):
        tag = f"{k:03d}_{path.parent.name}_{path.stem}"
        lam = path.suffix == ".lam"
        for engine in ("crs", "graph"):
            for policy in POLICIES:
                out.append((f"{tag}.eval_{engine}_{policy[0]}",
                            ["eval", str(path), "--engine", engine, "--policy", *policy,
                             "--out", "{out}.out", "--emit-dot", "{out}.dot"]))
        out.append((f"{tag}.{'compare' if lam else 'roundtrip'}",
                    ["compare" if lam else "roundtrip", str(path),
                     "--out", "{out}.out", "--emit-dot", "{out}.dot"]))
        for to in (("crs", "crs-cbn") if lam else ("lambda",)):
            out.append((f"{tag}.encode_{to}",
                        ["encode", str(path), "--to", to, "--out", "{out}.out"]))
        out.append((f"{tag}.graph_dot", ["graph-dot", str(path), "--out", "{out}.out"]))
    return out


def run(checkout: Path, job_file: Path, out: Path, corpus: Path) -> None:
    out.mkdir()
    subprocess.run([sys.executable, "-c", DRIVER, str(job_file), str(out), str(corpus)],
                   env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                   check=True)


def listing(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def normalised(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix == ".out" and data.startswith(b"{"):
        report = json.loads(data)
        report.pop("timing", None)
        return json.dumps(report, indent=2, sort_keys=True).encode()
    return data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--seed", type=int, default=3, help="workload seed (default 3)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus, files, compiled = inputs(args.new.resolve(), work, args.seed)
        job_file = work / "jobs.json"
        job_file.write_text(json.dumps(jobs(files, compiled)))
        for side in ("old", "new"):
            run(getattr(args, side).resolve(), job_file, work / side, corpus)
        old, new = listing(work / "old"), listing(work / "new")
        differ = sorted(old ^ new) + sorted(
            n for n in old & new if normalised(work / "old" / n) != normalised(work / "new" / n))
        print(f"{len(files) + len(compiled)} inputs, {len(old)} outputs compared, "
              f"{len(differ)} differ")
        for n in differ:
            print(f"  differs: {n}")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
