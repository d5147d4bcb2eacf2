"""Pure lambda terms with weak call-by-value and call-by-name reduction.

Reduction is weak: a redex under a binder never fires.  Every beta step
counts 1, and for terminating weak CBV runs the count is independent of
the redex order (one-step diamond), so `reduce` reports *the* step count
of its input.  Variable names are plain strings under their lexicographic
order; free-variable sequences are always sorted by that order.

`reduce` runs environment machines only: a CEK machine for leftmost
CBV, an indexed redex list over the same closures for random CBV, and a
Krivine machine for CBN (Accattoli, Barenbaum & Mazza, "Distilling
Abstract Machines", ICFP 2014).  They never substitute: a beta step
binds the argument in a persistent environment, so its cost does not
depend on the size of the term.  One readback at the end turns the
final closures back into a term, which is `==` to the term the
substituting step relation reaches in the same number of steps (on open
inputs, equal up to the names of renamed binders).  That step relation,
the reference semantics, lives in tests/tests_util.py.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Literal, Optional, Union


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Abs:
    binder: str
    body: "Term"


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


Term = Union[Var, Abs, App]


def size(t: Term) -> int:
    """Length of a term: |x|=1, |\\x.M|=|M|+1, |M N|=|M|+|N|+1."""
    n = 0
    todo = [t]
    while todo:
        s = todo.pop()
        n += 1
        if isinstance(s, Abs):
            todo.append(s.body)
        elif isinstance(s, App):
            todo.append(s.fun)
            todo.append(s.arg)
    return n


def _free_set(t: Term, shared: Optional[dict[int, frozenset[str]]] = None) -> set[str]:
    # Iterative: compiled terms can be deeper than the recursion limit.  A
    # subterm with an entry in `shared` is not walked: the entry holds its
    # free variables, and those not bound around it are free.
    free: set[str] = set()
    bound: dict[str, int] = {}
    todo: list[tuple[str, object]] = [("go", t)]
    while todo:
        op, arg = todo.pop()
        if op == "go":
            if shared and id(arg) in shared:
                free.update(v for v in shared[id(arg)] if not bound.get(v))
            elif isinstance(arg, Var):
                if bound.get(arg.name, 0) == 0:
                    free.add(arg.name)
            elif isinstance(arg, Abs):
                bound[arg.binder] = bound.get(arg.binder, 0) + 1
                todo.append(("unbind", arg.binder))
                todo.append(("go", arg.body))
            else:
                todo.append(("go", arg.arg))
                todo.append(("go", arg.fun))
        else:
            bound[arg] -= 1
    return free


def _free_set_shared(t: Term, shared: dict[int, frozenset[str]]) -> frozenset[str]:
    # _free_set(t) walking each subterm object once, when t shares
    # subterms (as compiled terms and machine results do): every subterm
    # reached twice is walked on its own, inner ones first, and kept in
    # `shared` by id, as is t.  Callers that pass the same dict share the
    # work, while the terms stay alive.
    if id(t) in shared:
        return shared[id(t)]
    refs: dict[int, int] = {}
    order: list[Term] = []      # distinct abstractions and applications, post-order
    todo: list[tuple[bool, Term]] = [(False, t)]
    while todo:
        done, s = todo.pop()
        if done:
            order.append(s)
        elif type(s) is Var or id(s) in shared:
            continue
        elif id(s) in refs:
            refs[id(s)] += 1
        else:
            refs[id(s)] = 1
            todo.append((True, s))
            if type(s) is Abs:
                todo.append((False, s.body))
            else:
                todo += ((False, s.arg), (False, s.fun))
    for s in order:
        if refs[id(s)] > 1:
            shared[id(s)] = frozenset(_free_set(s, shared))
    fv = shared[id(t)] = frozenset(_free_set(t, shared))
    return fv


def _names(t: Term) -> set[str]:
    # every variable and binder name of t; a subterm object that t shares
    # is visited once
    names: set[str] = set()
    seen: set[int] = set()
    todo = [t]
    while todo:
        s = todo.pop()
        if type(s) is Var:
            names.add(s.name)
        elif id(s) not in seen:
            seen.add(id(s))
            if type(s) is Abs:
                names.add(s.binder)
                todo.append(s.body)
            else:
                todo.append(s.fun)
                todo.append(s.arg)
    return names


def free_vars(t: Term) -> tuple[str, ...]:
    """Free variables as a duplicate-free sequence, sorted lexicographically."""
    return tuple(sorted(_free_set(t)))


def is_closed(t: Term) -> bool:
    return not _free_set(t)


def fresh_name(base: str, avoid: set[str], counter: Iterator[int]) -> str:
    """A name not in `avoid`: `base` and the next free number of `counter`.
    Each top-level call numbers its fresh names from 0 on, so a result
    never depends on what ran before it in the process."""
    while True:
        cand = f"{base}_{next(counter)}"
        if cand not in avoid:
            return cand


# walk operations of substitute and _read
_GO, _CLOSURE, _MEMO, _ABS, _APP = range(5)


def substitute(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution t{v/x}, in one iterative walk.

    A binder named after a free variable of v, with x free below it, is
    renamed with a fresh name that avoids every name of t and the free
    variables of v, numbered from 0 in each call.  The walk carries the
    renamings in a scope, as `_read` does, so a renamed body is walked
    once.  When v is closed nothing is renamed, and the walk stops at the
    binders of x.  Untouched subterms are shared.

    No engine calls it.  The reference step relation in tests/tests_util.py
    is built on it, and bench/tracer.py times it by name, so it stays
    until the benchmark drops that span (ROADMAP B2).
    """
    fv_v = _free_set(v)
    # name -> its meanings, innermost last: the term that replaces it, or
    # None under a binder of the walk that keeps it
    scope: dict[str, list[Optional[Term]]] = {x: [v]}
    renamed = 0                 # renaming binders around the walk
    x_free: dict[int, bool] = {}
    avoid: Optional[set[str]] = None
    results: list[Term] = []
    todo: list[tuple] = [(_GO, t, None)]
    while todo:
        op, node, frames = todo.pop()
        if op == _GO:
            if type(node) is Var:
                s = scope.get(node.name)
                results.append(node if not s or s[-1] is None else s[-1])
            elif type(node) is Abs:
                c = node.binder
                if c == x and not renamed:
                    results.append(node)
                    continue
                meaning = None
                if c in fv_v and c != x and scope[x][-1] is not None:
                    if id(node.body) not in x_free:
                        _mark_free(node.body, x, x_free)
                    if x_free[id(node.body)]:
                        if avoid is None:
                            avoid, counter = fv_v | _names(t), itertools.count()
                        meaning = Var(fresh_name(c, avoid, counter))
                        renamed += 1
                if meaning is not None or c in scope:
                    frames = scope.setdefault(c, [])
                    frames.append(meaning)
                todo += ((_ABS, node, frames), (_GO, node.body, None))
            else:
                todo += ((_APP, node, None), (_GO, node.arg, None), (_GO, node.fun, None))
        elif op == _ABS:
            body, name = results.pop(), node.binder
            if frames is not None:
                meaning = frames.pop()
                if meaning is not None:
                    renamed -= 1
                    name = meaning.name
            results.append(node if body is node.body and name is node.binder
                           else Abs(name, body))
        else:
            a = results.pop()
            f = results.pop()
            results.append(node if f is node.fun and a is node.arg else App(f, a))
    return results[0]


def _mark_free(t: Term, x: str, x_free: dict[int, bool]) -> None:
    # record in x_free, by id, whether x occurs free in t and in each of
    # its subterms not recorded yet: one post-order pass
    todo: list[tuple[Term, bool]] = [(t, False)]
    while todo:
        s, done = todo.pop()
        if isinstance(s, Var):
            x_free[id(s)] = s.name == x
        elif done:
            x_free[id(s)] = (s.binder != x and x_free[id(s.body)] if isinstance(s, Abs)
                             else x_free[id(s.fun)] or x_free[id(s.arg)])
        elif id(s) not in x_free:
            todo.append((s, True))
            if isinstance(s, Abs):
                todo.append((s.body, False))
            else:
                todo += ((s.arg, False), (s.fun, False))


def alpha_eq(s: Term, t: Term) -> bool:
    """Structural equality modulo bound-variable names."""
    env_s: dict[str, list[int]] = {}
    env_t: dict[str, list[int]] = {}
    marker = 0
    todo: list[tuple[str, object, object]] = [("go", s, t)]
    while todo:
        op, a, b = todo.pop()
        if op == "unbind":
            env_s[a].pop()
            env_t[b].pop()
            continue
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            la, lb = env_s.get(a.name), env_t.get(b.name)
            da = la[-1] if la else None
            db = lb[-1] if lb else None
            if da is None and db is None:
                if a.name != b.name:
                    return False
            elif da != db:
                return False
        elif isinstance(a, Abs):
            env_s.setdefault(a.binder, []).append(marker)
            env_t.setdefault(b.binder, []).append(marker)
            marker += 1
            todo.append(("unbind", a.binder, b.binder))
            todo.append(("go", a.body, b.body))
        else:
            todo.append(("go", a.arg, b.arg))
            todo.append(("go", a.fun, b.fun))
    return True


# --- full reduction ----------------------------------------------------------
#
# A closure is a pair (term, env); an environment is None or a persistent
# linked frame (binder, closure, parent).  A variable is looked up by
# walking the frames to the nearest one with its name.  An application
# that is not a value is a list [fun, arg, ...] of two closures: a stuck
# one of the CEK machine (open inputs only) or a frame of the random
# policy, which appends its bookkeeping.

OutcomeKind = Literal["normal", "exhausted"]


@dataclass(frozen=True)
class ReductionOutcome:
    kind: OutcomeKind
    term: Term
    steps: int


def _reduce_cbv_machine(t: Term, budget: int) -> ReductionOutcome:
    # CEK machine, left to right: the function, then the argument, then
    # the beta step, which fires the leftmost weak CBV redex every time.
    # Values are closures of abstractions, (Var, None) for a free variable
    # and [fun, arg] for a stuck application; the last two arise on open
    # inputs only.  Frames: (term, env) = argument still to
    # evaluate; (None, fun) = function value waiting for its argument.
    steps = 0
    stack: list[tuple] = []
    term, env = t, None
    while True:
        while type(term) is App:
            stack.append((term.arg, env))
            term = term.fun
        if type(term) is Abs:
            val = (term, env)
        else:
            e = env
            while e is not None and e[0] != term.name:
                e = e[2]
            val = (term, None) if e is None else e[1]
        while True:
            if not stack:
                return ReductionOutcome("normal", readback([val], t)[0], steps)
            arg, fun = stack.pop()
            if arg is not None:
                stack.append((None, val))
                term, env = arg, fun
                break
            if type(fun[0]) is Abs and type(val) is tuple:
                if steps >= budget:
                    # the last term reached: this redex inside the frames
                    frames = stack[::-1]
                    parts = readback([fun, val] + [f[1] if f[0] is None else f
                                                    for f in frames], t)
                    last = App(parts[0], parts[1])
                    for f, part in zip(frames, parts[2:]):
                        last = App(part, last) if f[0] is None else App(last, part)
                    return ReductionOutcome("exhausted", last, steps)
                steps += 1
                term, env = fun[0].body, (fun[0].binder, val, fun[1])
                break
            val = [fun, val]


def _reduce_cbv_random(t: Term, budget: int, rng) -> ReductionOutcome:
    # The random policy over an indexed redex list, as in crs.  Values
    # are the CEK machine's closures; an application is a mutable frame
    # [fun, arg, parent frame, index there, number of children that are
    # frames].  reds holds the redex frames left to right, since weak CBV
    # redexes never nest.  Firing reds[k] changes the list only at k: it
    # becomes the redexes of the instantiated body or, when that is a
    # value, the parent if that is now a redex.  An application is never
    # a value, so nothing climbs further.
    reds: list[list] = []
    root = _instantiate(t, None, reds)
    steps = 0
    while reds:
        if steps >= budget:
            return ReductionOutcome("exhausted", readback([root], t)[0], steps)
        k = rng.randrange(len(reds))
        (fun, env), arg, parent, i, _ = reds[k]
        block: list[list] = []
        val = _instantiate(fun.body, (fun.binder, arg, env), block)
        if parent is None:
            root = val
        else:
            parent[i] = val
            if type(val) is list:
                val[2], val[3] = parent, i
            else:
                parent[4] -= 1
                if not parent[4] and type(parent[0][0]) is Abs:
                    block.append(parent)
        reds[k:k + 1] = block
        steps += 1
    return ReductionOutcome("normal", readback([root], t)[0], steps)


def _instantiate(t: Term, env, reds: list[list]):
    # t under env as a closure or a frame of the random policy, children
    # first; its redex frames are appended to reds left to right.
    out: list = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:                   # an application, its children done
            arg = out.pop()
            fun = out.pop()
            frame = [fun, arg, None, 0, 0]
            for i, c in enumerate((fun, arg)):
                if type(c) is list:
                    c[2], c[3] = frame, i
                    frame[4] += 1
            if not frame[4] and type(fun[0]) is Abs:
                reds.append(frame)
            out.append(frame)
        elif type(s) is App:
            todo += (None, s.arg, s.fun)
        elif type(s) is Abs:
            out.append((s, env))
        else:
            e = env
            while e is not None and e[0] != s.name:
                e = e[2]
            out.append((s, None) if e is None else e[1])
    return out[0]


def _reduce_cbn_machine(t: Term, budget: int) -> ReductionOutcome:
    # Krivine machine: a head closure and the stack of its argument
    # closures.  A variable argument is pushed as the closure it is bound
    # to, never as an indirection to it, so omega keeps one closure per
    # step instead of a chain one link longer each time.
    steps = 0
    kind: OutcomeKind = "normal"
    args: list[tuple] = []
    term, env = t, None
    while True:
        if type(term) is App:
            a = term.arg
            if type(a) is Var:
                e = env
                while e is not None and e[0] != a.name:
                    e = e[2]
                args.append((a, None) if e is None else e[1])
            else:
                args.append((a, env))
            term = term.fun
        elif type(term) is Abs:
            if not args:
                break
            if steps >= budget:
                kind = "exhausted"
                break
            steps += 1
            env = (term.binder, args.pop(), env)
            term = term.body
        else:
            e = env
            while e is not None and e[0] != term.name:
                e = e[2]
            if e is None:
                break           # free head variable
            term, env = e[1]
    parts = readback([(term, env)] + args[::-1], t)
    out = parts[0]
    for a in parts[1:]:
        out = App(out, a)
    return ReductionOutcome(kind, out, steps)


def readback(closures: list[tuple], t: Optional[Term] = None) -> list[Term]:
    """The terms of machine closures over the input t, in order
    (`encode.readback` reads rewrite terms back as closures too).

    Closed closures never need a rename, nor t.  Open ones are read a
    second time, renaming every binder named after a free variable of the
    result, as `substitute` would, so that the variable is not captured;
    the fresh names avoid every name of t.
    """
    fv_memo: dict[int, frozenset[str]] = {}
    terms, free = _read(closures, frozenset(), frozenset(), fv_memo)
    if free:
        if t is None:
            raise ValueError(f"open closures without their input term: {sorted(free)}")
        terms, _ = _read(closures, free, free | _names(t), fv_memo)
    return terms


def _read(closures: list[tuple], rename: frozenset[str], avoid: frozenset[str],
          fv_memo: dict[int, frozenset[str]]) -> tuple[list[Term], frozenset[str]]:
    # Iterative, because CBN closure chains go deeper than the recursion
    # limit.  A binder shadows the environment entries of its name: the
    # walk pushes a local frame for it, bound to None, or to the fresh Var
    # that renames it if the binder is in `rename`.  The walk stops at a
    # closure without environment, which has nothing to substitute.  Each
    # closure is read back once (memo keyed by the closure), so the result
    # shares what the closures share, and untouched subterms of the input
    # are kept as they are.  Also returns the variables found free.
    free: set[str] = set()
    memo: dict[int, Term] = {}
    counter = itertools.count()
    results: list[Term] = []
    todo: list[tuple] = [(_CLOSURE, c, None) for c in reversed(closures)]
    while todo:
        op, a, b = todo.pop()
        if op == _GO:                       # term a in environment b
            if type(a) is Var:
                e = b
                while e is not None and e[0] != a.name:
                    e = e[2]
                if e is None:
                    free.add(a.name)
                    results.append(a)
                elif e[1] is None:
                    results.append(a)       # bound by a binder of the walk
                elif type(e[1]) is Var:
                    results.append(e[1])    # bound by a renamed binder
                else:
                    todo.append((_CLOSURE, e[1], None))
            elif type(a) is Abs:
                name, local = a.binder, None
                if name in rename:
                    name = fresh_name(name, avoid, counter)
                    local = Var(name)
                todo.append((_ABS, a, name))
                todo.append((_GO, a.body, (a.binder, local, b)))
            else:
                todo.append((_APP, a, None))
                todo.append((_GO, a.arg, b))
                todo.append((_GO, a.fun, b))
        elif op == _CLOSURE:
            if type(a) is list:             # an application of two closures
                todo.append((_APP, None, None))
                todo.append((_CLOSURE, a[1], None))
                todo.append((_CLOSURE, a[0], None))
            elif id(a) in memo:
                results.append(memo[id(a)])
            elif a[1] is None:              # nothing to substitute
                free |= _free_set_shared(a[0], fv_memo)
                memo[id(a)] = a[0]
                results.append(a[0])
            else:
                todo.append((_MEMO, id(a), None))
                todo.append((_GO, a[0], a[1]))
        elif op == _MEMO:
            memo[a] = results[-1]
        elif op == _ABS:
            body = results.pop()
            results.append(a if body is a.body and b is a.binder else Abs(b, body))
        else:
            x = results.pop()
            f = results.pop()
            if a is not None and f is a.fun and x is a.arg:
                results.append(a)
            else:
                results.append(App(f, x))
    return results, frozenset(free)


def reduce(t: Term, strategy: Literal["cbv", "cbn"] = "cbv", budget: int = 10_000,
           rng=None) -> ReductionOutcome:
    """Reduce up to `budget` beta steps under the chosen strategy.

    CBV runs the CEK machine, or with `rng` the random policy, which
    fires `reds[rng.randrange(len(reds))]` with `reds` every redex left
    to right; CBN runs the Krivine machine and, having one redex, draws
    nothing from `rng`.  Each runs over closures with one readback at the
    end, and takes exactly the steps of the reference step relation for
    the same draws.  On "normal" the steps field is Time(t) (cbv) resp.
    Time_w(t) (cbn).  "exhausted" carries the last term reached, so runs
    are resumable.  A negative budget or another strategy raises
    ValueError.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if strategy == "cbn":
        return _reduce_cbn_machine(t, budget)
    if strategy != "cbv":
        raise ValueError(f"unknown strategy {strategy!r}")
    if rng is None:
        return _reduce_cbv_machine(t, budget)
    return _reduce_cbv_random(t, budget, rng)


# --- surface syntax ----------------------------------------------------------

IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_']*")
_TOKEN_RE = re.compile(r"\s*(\\|\.|\(|\)|[a-zA-Z][a-zA-Z0-9_']*)")


class LamParseError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise LamParseError(f"unexpected character {text[pos:pos+1]!r} at offset {pos}")
        toks.append(m.group(1))
        pos = m.end()
    return toks


def parse(text: str) -> Term:
    """Parse the surface syntax: `\\x. M`, juxtaposition, parentheses."""
    toks = _tokenize(text)
    pos = 0

    def peek() -> Optional[str]:
        return toks[pos] if pos < len(toks) else None

    def expect(tok: str) -> None:
        nonlocal pos
        if peek() != tok:
            raise LamParseError(f"expected {tok!r}, got {peek()!r} (token {pos})")
        pos += 1

    # Iterative, because nested parentheses can go deeper than the
    # recursion limit.  Frames: a binder name (its body is being read),
    # None (an opening parenthesis) or a term (an application waiting for
    # its next argument).
    frames: list = []
    while True:
        tok = peek()
        if tok == "\\":              # an argument never starts here
            pos += 1
            name = peek()
            if name is None or not IDENT_RE.fullmatch(name):
                raise LamParseError(f"expected identifier after \\, got {name!r}")
            pos += 1
            expect(".")
            frames.append(name)
            continue
        if tok == "(":
            pos += 1
            frames.append(None)
            continue
        if tok is None or not IDENT_RE.fullmatch(tok):
            raise LamParseError(f"expected a term, got {tok!r} (token {pos})")
        pos += 1
        t: Term = Var(tok)
        while True:                 # t is an atom
            if frames and isinstance(frames[-1], (Var, Abs, App)):
                t = App(frames.pop(), t)
            nxt = peek()
            if nxt is not None and nxt not in (")", ".", "\\"):
                frames.append(t)    # read the next argument
                break
            if nxt == "\\":
                raise LamParseError("abstraction in application must be parenthesized")
            while frames and isinstance(frames[-1], str):
                t = Abs(frames.pop(), t)
            if not frames:
                if pos != len(toks):
                    raise LamParseError(f"trailing input from token {pos}: {toks[pos:]!r}")
                return t
            frames.pop()
            expect(")")


def to_str(t: Term) -> str:
    """Print with minimal parentheses; parse(to_str(t)) == t.  An
    abstraction is parenthesised unless it is at the top or a body, an
    application when it is an argument."""
    out: list[str] = []
    todo: list = [(t, "top")]  # subterms with their context, and literal text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        s, ctx = item
        if isinstance(s, Var):
            out.append(s.name)
        elif isinstance(s, Abs):
            if ctx == "top":
                out.append(f"\\{s.binder}. ")
            else:
                out.append(f"(\\{s.binder}. ")
                todo.append(")")
            todo.append((s.body, "top"))
        else:
            if ctx == "arg":
                out.append("(")
                todo.append(")")
            todo += ((s.arg, "arg"), " ", (s.fun, "fun"))
    return "".join(out)


# --- term builders -----------------------------------------------------------

def abss(binders: list[str], body: Term) -> Term:
    """Nested abstraction \\b1...\\bn. body."""
    for b in reversed(binders):
        body = Abs(b, body)
    return body


def apps(fun: Term, args: list[Term]) -> Term:
    """Left-nested application fun a1 ... an."""
    for a in args:
        fun = App(fun, a)
    return fun


def church_two() -> Term:
    return parse("\\f. \\x. f (f x)")


def two_tower(n: int) -> Term:
    """n-fold application of Church 2 to the identity."""
    t: Term = parse("\\x. x")
    for _ in range(n):
        t = App(church_two(), t)
    return t
