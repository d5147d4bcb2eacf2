#!/usr/bin/env python3
"""Build the benchmark corpus: hand-written lambda terms, seeded random
closed terms, the rewrite-system benchmarks, and the expectation sidecars
(regenerable at any time via workbench.regenerate_expectations)."""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from normbench import lam, workbench
from normbench.lam import Abs, App, Var

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
SEED = 20090714
RANDOM_COUNT = 40
MAX_SIZE = 60
STEP_CAP = 400

HAND_WRITTEN = {
    "identity": r"\x. x",
    "id_redex": r"(\x. x) (\y. y)",
    "dup_drop": r"(\x. (\y. x) x) (\z. z)",
    "omega": r"(\x. x x) (\y. y y)",
    "cbn_only": r"(\x. \y. y) ((\x. x x) (\x. x x))",
    "const_drop": r"(\w. (\x. w) (\z. z)) (\q. q)",
    "const_drop_frozen": r"(\w. (\x. w) (\z. z)) ((\q. q) (\r. r))",
    "head_chain": r"(\x. x (\z. z)) ((\y. y) (\w. w))",
    "church_plus": r"(\m. \n. \f. \x. m f (n f x)) (\f. \x. f (f x)) (\f. \x. f (f (f x))) (\u. u) (\v. v)",
    "church_mult": r"(\m. \n. \f. m (n f)) (\f. \x. f (f x)) (\f. \x. f (f (f x))) (\u. u) (\v. v)",
    "bool_ite": r"(\b. \t. \f. b t f) (\a. \b. a) (\x. x) (\y. y y)",
    "pair_fst": r"(\p. p (\a. \b. a)) ((\a. \b. \s. s a b) (\x. x) (\y. \z. y))",
    "pair_snd": r"(\p. p (\a. \b. b)) ((\a. \b. \s. s a b) (\x. x) (\y. \z. y))",
    "nested_redex": r"(\f. f ((\x. x) (\y. y))) (\g. g g)",
    "shadowing": r"(\x. (\x. x) x) (\z. z)",
    "three_stage": r"(\a. (\b. (\c. c b) a) a) (\z. \w. z)",
}


def random_closed(rng, max_size, env=()):
    """Random closed lambda term of size <= max_size."""
    if max_size <= 1 or (env and rng.random() < 0.3):
        if env:
            return Var(rng.choice(env))
        return Abs("x", Var("x"))
    if max_size < 3 or rng.random() < 0.45:
        b = f"v{rng.randrange(4)}"
        return Abs(b, random_closed(rng, max_size - 1, env + (b,)))
    k = rng.randrange(1, max_size - 1)
    return App(random_closed(rng, k, env), random_closed(rng, max_size - 1 - k, env))


def church_two():
    return lam.parse("\\f. \\x. f (f x)")


def two_tower(n):
    """n-fold application of Church 2 to the identity."""
    t = lam.parse("\\x. x")
    for _ in range(n):
        t = App(church_two(), t)
    return t


def tame(t, strategy, step_cap, size_cap):
    """(kind, steps) of the reduction, or None when the term it reaches
    has more than size_cap nodes.  The count stops at the cap: a blown-up
    result shares its subterms and can be exponentially large as a tree."""
    out = lam.reduce(t, strategy, step_cap)
    n, todo = 0, [out.term]
    while todo:
        s = todo.pop()
        n += 1
        if n > size_cap:
            return None
        if isinstance(s, Abs):
            todo.append(s.body)
        elif isinstance(s, App):
            todo += (s.fun, s.arg)
    return out.kind, out.steps


CRS_SYSTEMS = {
    "nat_add": """\
constructor zero/0;
constructor succ/1;
function add/2;
rule add(zero, y) -> y;
rule add(succ(x), y) -> succ(add(x, y));
term add(succ(succ(succ(zero))), succ(succ(zero)));
""",
    "nat_mul": """\
constructor zero/0;
constructor succ/1;
function add/2;
function mul/2;
rule add(zero, y) -> y;
rule add(succ(x), y) -> succ(add(x, y));
rule mul(zero, y) -> zero;
rule mul(succ(x), y) -> add(y, mul(x, y));
term mul(succ(succ(zero)), succ(succ(succ(zero))));
""",
    "list_append": """\
constructor zero/0;
constructor succ/1;
constructor nil/0;
constructor cons/2;
function append/2;
rule append(nil, y) -> y;
rule append(cons(h, t), y) -> cons(h, append(t, y));
term append(cons(zero, cons(succ(zero), nil)), cons(succ(succ(zero)), nil));
""",
    "list_reverse": """\
constructor zero/0;
constructor succ/1;
constructor nil/0;
constructor cons/2;
function append/2;
function reverse/1;
rule append(nil, y) -> y;
rule append(cons(h, t), y) -> cons(h, append(t, y));
rule reverse(nil) -> nil;
rule reverse(cons(h, t)) -> append(reverse(t), cons(h, nil));
term reverse(cons(zero, cons(succ(zero), cons(succ(succ(zero)), nil))));
""",
    "tree_flatten": """\
constructor zero/0;
constructor succ/1;
constructor nil/0;
constructor cons/2;
constructor leaf/1;
constructor node/2;
function append/2;
function flatten/1;
rule append(nil, y) -> y;
rule append(cons(h, t), y) -> cons(h, append(t, y));
rule flatten(leaf(x)) -> cons(x, nil);
rule flatten(node(l, r)) -> append(flatten(l), flatten(r));
term flatten(node(node(leaf(zero), leaf(succ(zero))), leaf(succ(succ(zero)))));
""",
    "stuck": """\
constructor zero/0;
constructor succ/1;
function half/1;
rule half(succ(succ(x))) -> succ(half(x));
rule half(zero) -> zero;
term half(succ(zero));
""",
    "loop": """\
constructor zero/0;
function loop/1;
rule loop(x) -> loop(x);
term loop(zero);
""",
    "ground_call": """\
# f0(c0) has no variable and its rhs calls a function: the compiled
# continuation must not run before the rule is selected
constructor c0/0;
constructor c1/0;
function f0/1;
function f1/1;
rule f0(c0) -> f0(f1(c0));
rule f0(c1) -> c0;
rule f1(c1) -> f0(c1);
term f1(f0(c0));
""",
}


def main():
    (CORPUS / "lambda").mkdir(parents=True, exist_ok=True)
    (CORPUS / "crs").mkdir(parents=True, exist_ok=True)

    for name, src in HAND_WRITTEN.items():
        term = lam.parse(src)
        (CORPUS / "lambda" / f"{name}.lam").write_text(lam.to_str(term) + "\n")
    for n in range(1, 7):
        (CORPUS / "lambda" / f"tower_{n}.lam").write_text(
            lam.to_str(two_tower(n)) + "\n")

    rng = random.Random(SEED)
    kept = []
    seen = []
    while len(kept) < RANDOM_COUNT:
        t = random_closed(rng, MAX_SIZE)
        if lam.size(t) > MAX_SIZE or lam.size(t) < 8:
            continue
        cbv = tame(t, "cbv", STEP_CAP, 4000)
        if cbv is None or cbv[0] != "normal" or cbv[1] < 1:
            continue
        # the sidecars run the full default budget, so the CBN side must
        # stay small for that long as well
        if tame(t, "cbn", workbench.DEFAULT_BUDGET, 5000) is None:
            continue
        if any(lam.alpha_eq(t, s) for s in seen):
            continue
        seen.append(t)
        kept.append(t)
    for i, t in enumerate(kept):
        path = CORPUS / "lambda" / f"rand_{i:03d}.lam"
        path.write_text(f"# generated: seed {SEED}, index {i}\n"
                        + lam.to_str(t) + "\n")

    for name, text in CRS_SYSTEMS.items():
        (CORPUS / "crs" / f"{name}.trs").write_text(text)

    written = workbench.regenerate_expectations(CORPUS)
    print(f"wrote {len(written)} expectation sidecars")
    corpus = workbench.Corpus.load(CORPUS)
    print(f"lambda entries: {len(corpus.lambda_entries)}, "
          f"crs entries: {len(corpus.crs_entries)}")


if __name__ == "__main__":
    main()
