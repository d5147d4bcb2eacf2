"""Workloads of the normbench benchmark: seeded inputs, references and
the failure rule.

Every operation is one CLI verdict, `normbench <command> <file> --out
<report>`.  Inputs reach the program only as `.lam`/`.trs` files written
here (or, for `corpus`, the pinned corpus files themselves).  Each
operation carries a reference fixed before the run: a corpus sidecar, a
closed form computed from the generated input, or a number frozen in
`reference.json` by `record.py`.  Nothing is recomputed from the engines
while the benchmark runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

WORKLOADS = ("corpus", "lambda-scale", "rewrite-scale", "engine-eval")


@dataclass
class Op:
    """One operation: the CLI arguments, what it is and what it must give."""

    command: str                   # compare | roundtrip | eval
    path: Path                     # the input file
    extra: tuple[str, ...]         # further CLI arguments
    family: str                    # family name, or "corpus"
    size: int                      # the family's size parameter n (0: none)
    runs: dict[str, dict]          # engine -> expected outcome/steps/normal_form
    terminates: bool               # every run of the reference terminates

    def argv(self, out: Path) -> list[str]:
        return [self.command, str(self.path), "--out", str(out), *self.extra]


@dataclass
class Verdict:
    """Outcome of checking one report against its reference."""

    failed: bool = False   # no complete, correct verdict
    wrong: bool = False    # an output contradicts the reference
    undecided: int = 0     # checks that returned None
    steps: int = 0         # sum of steps over the report's runs
    reasons: list[str] = field(default_factory=list)


# --- the failure rule ----------------------------------------------------------------

_TERMINATED = ("normal", "constructor", "stuck")


def check_report(op: Op, rc: int, report: dict | None) -> Verdict:
    """Apply the failure rule to one operation.

    It fails when it raised or exited non-zero, when a check is False,
    when a step count or printed normal form differs from the reference,
    or when a check is None although the reference says every run
    terminates.  It is also *wrong* when an output contradicts the
    reference: a False check, or a terminated run whose outcome, steps or
    normal form differ.  A run that hit its budget where the reference
    terminates has given no answer: it fails, but it is not wrong.
    """
    v = Verdict()
    if report is None:
        v.failed = True
        v.reasons.append("raised")
        return v
    if rc != 0:
        v.failed = True
        v.reasons.append(f"exit code {rc}")
    for name, value in report.get("checks", {}).items():
        if value is False:
            v.failed = v.wrong = True
            v.reasons.append(f"check {name} is false")
        elif value is None:
            v.undecided += 1
            if op.terminates:
                v.failed = True
                v.reasons.append(f"check {name} is null on a terminating input")
    got = {run["engine"]: run for run in report["runs"]}
    v.steps = sum(run["steps"] for run in report["runs"])
    for engine, want in op.runs.items():
        run = got.get(engine)
        if run is None:
            v.failed = v.wrong = True
            v.reasons.append(f"no {engine} run")
            continue
        if "outcome" in want and run["outcome"] != want["outcome"]:
            v.failed = True
            if run["outcome"] in _TERMINATED:
                v.wrong = True
            v.reasons.append(f"{engine} outcome {run['outcome']} != {want['outcome']}")
            continue
        if want.get("steps") is not None and run["steps"] != want["steps"]:
            v.failed = v.wrong = True
            v.reasons.append(f"{engine} steps {run['steps']} != {want['steps']}")
        nf = want.get("normal_form")
        if nf is not None and run.get("unfolded", True) and run.get("normal_form") != nf:
            v.failed = v.wrong = True
            v.reasons.append(f"{engine} normal form differs")
    return v


# --- corpus ------------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corpus_ops(root: Path, pins: dict[str, dict]) -> list[Op]:
    """The pinned corpus entries; a changed or missing entry aborts, an
    entry added later is ignored."""
    ops = []
    for rel, pin in sorted(pins.items()):
        entry = root / "corpus" / rel
        sidecar = entry.with_suffix(".expect.json")
        for path, want in ((entry, pin["sha256"]), (sidecar, pin["expect_sha256"])):
            if not path.is_file():
                raise SystemExit(f"bench: pinned corpus file {path} is missing")
            if sha256_file(path) != want:
                raise SystemExit(f"bench: pinned corpus file {path} has changed")
        exp = json.loads(sidecar.read_text())
        if entry.suffix == ".lam":
            runs = {"lambda-cbv": _expect(exp["cbv"]), "lambda-cbn": _expect(exp["cbn"])}
            terminates = all(exp[s]["outcome"] == "normal" for s in ("cbv", "cbn"))
            ops.append(Op("compare", entry, (), "corpus", 0, runs, terminates))
        else:
            runs = {"crs": _expect(exp)}
            ops.append(Op("roundtrip", entry, (), "corpus", 0, runs,
                          exp["outcome"] != "exhausted"))
    return ops


def _expect(d: dict) -> dict:
    return {k: d[k] for k in ("outcome", "steps", "normal_form") if k in d}


def pin_corpus(root: Path) -> dict[str, dict]:
    """Name and sha256 of every corpus entry and sidecar present now."""
    pins = {}
    for entry in sorted((root / "corpus").glob("*/*")):
        if entry.suffix in (".lam", ".trs"):
            pins[entry.relative_to(root / "corpus").as_posix()] = {
                "sha256": sha256_file(entry),
                "expect_sha256": sha256_file(entry.with_suffix(".expect.json"))}
    return pins


# --- rewrite-system families -----------------------------------------------------------
# The systems are the corpus ones (nat_add, nat_mul, list_reverse,
# tree_flatten) with a generated start term.  Seeds order the list
# elements and leaf values, always terms headed by succ: the Scott
# matcher's cost depends on the arity of a scrutinee's head constructor,
# so the frozen beta-step counts hold for every seed.

NAT = "constructor zero/0;\nconstructor succ/1;\n"
LIST = NAT + "constructor nil/0;\nconstructor cons/2;\n"
ADD_RULES = "rule add(zero, y) -> y;\nrule add(succ(x), y) -> succ(add(x, y));\n"
APPEND_RULES = ("rule append(nil, y) -> y;\n"
                "rule append(cons(h, t), y) -> cons(h, append(t, y));\n")

SYSTEMS = {
    "add": NAT + "function add/2;\n" + ADD_RULES,
    "mul": (NAT + "function add/2;\nfunction mul/2;\n" + ADD_RULES
            + "rule mul(zero, y) -> zero;\nrule mul(succ(x), y) -> add(y, mul(x, y));\n"),
    "reverse": (LIST + "function append/2;\nfunction reverse/1;\n" + APPEND_RULES
                + "rule reverse(nil) -> nil;\n"
                  "rule reverse(cons(h, t)) -> append(reverse(t), cons(h, nil));\n"),
    "flatten": (LIST + "constructor leaf/1;\nconstructor node/2;\n"
                "function append/2;\nfunction flatten/1;\n" + APPEND_RULES
                + "rule flatten(leaf(x)) -> cons(x, nil);\n"
                  "rule flatten(node(l, r)) -> append(flatten(l), flatten(r));\n"),
    # ROADMAP B1: CRS is stuck after one step, the compiled term diverges
    "b1": ("constructor c0/0;\nconstructor c1/0;\nfunction f0/1;\nfunction f1/1;\n"
           "rule f0(c0) -> f0(f1(c0));\nrule f0(c1) -> c0;\nrule f1(c1) -> f0(c1);\n"),
}


def nat(n: int) -> str:
    s = "zero"
    for _ in range(n):
        s = f"succ({s})"
    return s


def cons_list(items: list[str]) -> str:
    s = "nil"
    for x in reversed(items):
        s = f"cons({x}, {s})"
    return s


def _elements(n: int, rng: random.Random) -> list[str]:
    """A seeded order of n elements from 1, 2, 3, 1, 2, 3, ...: the
    multiset, and with it the size of every term, is the same for all
    seeds, so a seed does not change how much work an input takes."""
    items = [nat(1 + i % 3) for i in range(n)]
    rng.shuffle(items)
    return items


def _tree(leaves: list[str]) -> tuple[str, int]:
    """Balanced tree over the leaves, and its flatten step count:
    1 per leaf, and per node 1 + |leaves of the left subtree| + 1."""
    if len(leaves) == 1:
        return f"leaf({leaves[0]})", 1
    half = len(leaves) // 2
    left, ls = _tree(leaves[:half])
    right, rs = _tree(leaves[half:])
    return f"node({left}, {right})", 1 + ls + rs + half + 1


def rewrite_instance(family: str, n: int, rng: random.Random) -> tuple[str, str, str, int]:
    """(system text with start term, CRS kind, printed normal form, steps),
    the last three in closed form."""
    if family == "add":
        term, nf, steps = f"add({nat(n)}, {nat(2)})", nat(n + 2), n + 1
    elif family == "mul":
        term, nf, steps = f"mul({nat(n)}, {nat(n)})", nat(n * n), (n + 1) ** 2
    elif family == "reverse":
        items = _elements(n, rng)
        term, nf = f"reverse({cons_list(items)})", cons_list(items[::-1])
        steps = (n + 1) * (n + 2) // 2
    elif family == "flatten":
        items = _elements(n, rng)
        tree, steps = _tree(items)
        term, nf = f"flatten({tree})", cons_list(items)
    elif family == "b1":
        return SYSTEMS["b1"] + "term f1(f0(c0));\n", "stuck", "f1(f0(f1(c0)))", 1
    else:
        raise ValueError(family)
    return SYSTEMS[family] + f"term {term};\n", "constructor", nf, steps


# --- Church families -----------------------------------------------------------------
# Seeds choose the binder names; step counts and the constructor names
# of the images (hashes of alpha-normal forms) do not depend on them.

_NUMERAL_BINDERS = [("f", "x"), ("g", "y"), ("s", "z"), ("h", "w")]
_ID_BINDERS = ["u", "v", "a", "b", "c", "d"]


def church(n: int, rng: random.Random) -> str:
    f, x = rng.choice(_NUMERAL_BINDERS)
    return f"(\\{f}. \\{x}. " + f"{f} (" * n + x + ")" * n + ")"


def church_instance(family: str, n: int, rng: random.Random) -> tuple[str, str]:
    """(term text, printed normal form); both machines end in the last
    identity argument."""
    i1, i2 = rng.sample(_ID_BINDERS, 2)
    ids = f"(\\{i1}. {i1}) (\\{i2}. {i2})"
    if family == "mult":
        m, k, f = rng.choice([("m", "n", "f"), ("p", "q", "g"), ("a", "b", "h")])
        text = f"(\\{m}. \\{k}. \\{f}. {m} ({k} {f})) {church(n, rng)} {church(n, rng)} {ids}"
    elif family == "pow":
        k = n.bit_length() - 1          # n = 2**k
        text = f"{church(k, rng)} {church(2, rng)} {ids}"
    else:
        raise ValueError(family)
    return text + "\n", f"\\{i2}. {i2}"


# --- the workloads ---------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    name: str
    sizes: tuple[int, ...]
    why: str


LAMBDA_SCALE = (
    Family("mult", (8, 16, 32),
           "Church mult n n I I: CBN and both images grow roughly cubically, "
           "so crs, the CBN machine and the encode checks carry the time"),
    Family("pow", (128, 256, 512),
           "Church k 2 I I = 2^k: linear-size terms with exponential step "
           "counts, the psi image does most of the work"),
)

REWRITE_SCALE = (
    Family("add", (8, 16, 32), "linear recursion on one argument"),
    Family("mul", (2, 4, 8), "nested recursion, (n+1)^2 rewrite steps"),
    Family("reverse", (1, 2, 4), "quadratic rewrites through append; kept small "
                                 "because roundtrip reverse 20 alone takes about "
                                 "10 s on a 2-vCPU Xeon VM"),
    Family("flatten", (1, 2, 4), "tree recursion into append; the costliest "
                                 "roundtrip per rewrite step"),
    Family("b1", (0,), "ROADMAP B1: a known failure that stays in the workload"),
)

ENGINE_EVAL = (
    Family("add", (64, 128, 256), "crs is cubic in run length here, graphs quadratic"),
    Family("mul", (4, 8, 16), "many short add runs under one mul"),
    Family("reverse", (12, 24, 48), "long runs on growing lists; graph find dominates"),
    Family("flatten", (16, 32, 64), "tree recursion: many short appends instead "
                                    "of one long one"),
)

# eval --policy random on the smallest add and reverse: the full
# redex-enumeration path that the leftmost search skips
RANDOM_SLICE = (("add", 64), ("reverse", 12))


def build_ops(workload: str, seed: int, root: Path, work: Path) -> list[Op]:
    """Write the workload's inputs under `work` and return its operations
    in a seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    ref = json.loads(REFERENCE_FILE.read_text())
    if workload == "corpus":
        ops = corpus_ops(root, ref["corpus"])
    elif workload == "lambda-scale":
        ops = []
        for fam in LAMBDA_SCALE:
            for n in fam.sizes:
                text, nf = church_instance(fam.name, n, rng)
                path = _write(work, f"{fam.name}_{n}.lam", text)
                runs = {e: dict(r) for e, r in ref[workload][f"{fam.name}/{n}"].items()}
                runs["lambda-cbv"]["normal_form"] = nf
                runs["lambda-cbn"]["normal_form"] = nf
                ops.append(Op("compare", path, (), fam.name, n, runs, True))
    elif workload == "rewrite-scale":
        ops = []
        for fam in REWRITE_SCALE:
            for n in fam.sizes:
                text, kind, nf, steps = rewrite_instance(fam.name, n, rng)
                path = _write(work, f"{fam.name}_{n}.trs", text)
                runs = {"crs": {"outcome": kind, "steps": steps, "normal_form": nf},
                        "graph": {"outcome": "normal", "steps": steps, "normal_form": nf},
                        "lambda-cbv": dict(ref[workload][f"{fam.name}/{n}"])}
                ops.append(Op("roundtrip", path, (), fam.name, n, runs, True))
    elif workload == "engine-eval":
        ops = []
        slice_ = []
        for fam in ENGINE_EVAL:
            for n in fam.sizes:
                text, kind, nf, steps = rewrite_instance(fam.name, n, rng)
                path = _write(work, f"{fam.name}_{n}.trs", text)
                for engine, outcome in (("crs", kind), ("graph", "normal")):
                    runs = {engine: {"outcome": outcome, "steps": steps, "normal_form": nf}}
                    ops.append(Op("eval", path, ("--engine", engine), fam.name, n, runs, True))
                    if (fam.name, n) in RANDOM_SLICE:
                        slice_.append(Op("eval", path, ("--engine", engine, "--policy", "random",
                                                        "--seed", str(seed)),
                                         "random", 0, runs, True))
        ops += slice_
    else:
        raise SystemExit(f"bench: unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def _write(work: Path, name: str, text: str) -> Path:
    path = work / name
    path.write_text(text)
    return path
