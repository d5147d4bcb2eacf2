"""Compilation of constructor rewriting into the weak CBV lambda-calculus.

Constructor terms become Scott-encoded values: with constructors c1..cg,
a node ci(t1..tn) is the value selecting its i-th branch, and a dedicated
error value selects the extra last branch.  Function symbols compile to
closed terms that embed their rules: a pattern-matching combinator drives
each scrutinee, and mutual recursion goes through a family of fixed-point
terms whose unfolding takes at most 2h steps for h function symbols.

Every piece has an input-size-independent step cost, which is what makes
the per-system linear overhead measurable.

The compiled term is fixed per system, and it is a DAG: a ScottContext
builds each part (the fixed-point family H1..Hh, the per-function parts
V1..Vh, the error value, the constructor functions) once, checks each
part closed once, by a walk over its distinct objects, and every
interpretation and compiled term shares those objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import crs, lam
from .lam import Abs, App, Var, abss, apps


class ScottError(Exception):
    pass


class MatchOverlapError(ScottError):
    pass


class ScottContext:
    """Enumeration order and compilation caches for one system.

    The emitted terms depend on the declaration order of constructors and
    function symbols, so the context pins both for its lifetime.
    """

    def __init__(self, system: crs.CrsSystem):
        self.system = system
        self.constructors = tuple(system.signature.constructors)
        self.functions = tuple(system.signature.functions)
        pattern_vars: set[str] = set()
        for rule in system.rules:
            for pat in rule.lhs:
                pattern_vars.update(crs.variables(pat))
        base = "F"
        while any(f"{base}{i+1}" in pattern_vars for i in range(len(self.functions))):
            base += "'"
        self._fixnames = tuple(f"{base}{i+1}" for i in range(len(self.functions)))
        self._parts: Optional[tuple[list[lam.Term], list[lam.Term]]] = None  # (H, V)
        self._interp_cache: dict[str, lam.Term] = {}
        self._strict_cache: dict[str, lam.Term] = {}
        self._confun_cache: dict[str, lam.Term] = {}
        self._bottom: Optional[lam.Term] = None
        self._all_vars_chain: list[lam.Term] = [Abs("k", Var("k"))]

    @property
    def g(self) -> int:
        return len(self.constructors)

    def con_index(self, name: str) -> int:
        """1-based index of a constructor in the enumeration order."""
        return self.constructors.index(name) + 1

    def arity(self, name: str) -> int:
        return self.system.signature.arity(name)


def bottom(ctx: ScottContext) -> lam.Term:
    """The error value: selects the extra continuation branch."""
    if ctx._bottom is None:
        ctx._bottom = abss([f"s{i+1}" for i in range(ctx.g)] + ["sz"], Var("sz"))
    return ctx._bottom


def scott_encode(ctx: ScottContext, t: crs.Term) -> lam.Term:
    """Scott value of a constructor term; injective up to alpha."""
    assert crs.is_constructor_term(t, ctx.system.signature)
    return _translate(ctx, t, None, True)


def constructor_function(ctx: ScottContext, name: str) -> lam.Term:
    """The constructor as a function: applied to encoded arguments it
    reduces to the encoded node in arity-many steps."""
    cached = ctx._confun_cache.get(name)
    if cached is None:
        pvars = [f"p{k+1}" for k in range(ctx.arity(name))]
        binders = pvars + [f"s{k+1}" for k in range(ctx.g)] + ["sz"]
        cached = abss(binders, apps(Var(f"s{ctx.con_index(name)}"), [Var(v) for v in pvars]))
        ctx._confun_cache[name] = cached
    return cached


def _rebuilt_node(ctx: ScottContext, i: int, names: list[str]) -> lam.Term:
    # the full-arity member of the strict family: already the Scott value
    binders = [f"y{k+1}" for k in range(ctx.g)] + ["yb"]
    return abss(binders, apps(Var(f"y{i}"), [Var(nm) for nm in names]))


def strict_constructor(ctx: ScottContext, name: str) -> lam.Term:
    """Error-strict constructor: yields the encoded node, or the error
    value as soon as any argument is the error value.

    It is member 0 of a family: member m has free variables x1..xm for
    the arguments already consumed, consumes the next one and goes on as
    member m+1; the full-arity member is the encoded node itself.
    """
    cached = ctx._strict_cache.get(name)
    if cached is None:
        i, ar = ctx.con_index(name), ctx.arity(name)
        cached = _rebuilt_node(ctx, i, [f"x{k+1}" for k in range(ar)])
        for m in reversed(range(ar)):
            consume_next = Abs(f"x{m+1}", cached)
            branches = []
            for j in range(1, ctx.g + 1):
                arj = ctx.arity(ctx.constructors[j - 1])
                zs = [f"z{k+1}" for k in range(arj)]
                branches.append(abss(zs, App(consume_next, _rebuilt_node(ctx, j, zs))))
            spill = abss([f"d{k+1}" for k in range(ar - m - 1)], bottom(ctx))
            cached = Abs("w", apps(Var("w"), branches + [spill]))
        ctx._strict_cache[name] = cached
    return cached


# --- pattern matching ---------------------------------------------------------------

def _delay(body: lam.Term) -> lam.Term:
    """The thunk \\u. body.  u is never free in body: a delayed body is a
    variable-free rule's translated right side, whose free variables are
    fixed-point names F.., or _rebuild_wrapper's w C, whose only free
    variable is w."""
    return Abs("u", body)


# forces a thunk by applying it to a dummy value
_FORCE = Abs("k", App(Var("k"), Abs("d", Var("d"))))


def _all_vars_matcher(ctx: ScottContext, m: int, delayed: bool = False) -> lam.Term:
    # single all-variable sequence: error-check each scrutinee, rebuild it,
    # and thread it into the continuation.  The remaining scrutinees and the
    # continuation pass through the branch binders, which keeps every branch
    # a value (a branch body must not run before the scrutinee selects it).
    # Continuations stay values for the same reason: each one still expects
    # a binding, or is a thunk \u. body (delayed, see compile_match).  The
    # matcher for n scrutinees runs the one for n - 1 in each branch; the
    # one for none is where every column has been decided: it returns the
    # continuation as is, or forces it when it is a thunk.  A thunk binds
    # no variable, so only a matcher for no scrutinee meets one.  The
    # context keeps the chain of matchers for 0, 1, .. scrutinees.
    if delayed and m == 0:
        return _FORCE
    chain = ctx._all_vars_chain
    while len(chain) <= m:
        n = len(chain)
        xs = [f"x{k+1}" for k in range(n)]
        passers = xs[1:] + ["k"]
        branches = []
        for j in range(1, ctx.g + 1):
            arj = ctx.arity(ctx.constructors[j - 1])
            zs = [f"z{k+1}" for k in range(arj)]
            rebuilt = apps(constructor_function(ctx, ctx.constructors[j - 1]),
                           [Var(z) for z in zs])
            branches.append(abss(zs + passers, apps(chain[-1], [Var(x) for x in xs[1:]]
                                                    + [App(Var("k"), rebuilt)])))
        fail = abss(passers, bottom(ctx))
        chain.append(abss(xs + ["k"], apps(apps(Var(xs[0]), branches + [fail]),
                                           [Var(v) for v in passers])))
    return chain[m]


def _rebuild_wrapper(ctx: ScottContext, j: int, before: int, after: int) -> lam.Term:
    # adapts a continuation expecting the original variable binding to one
    # receiving the constructor's children instead.  When that leaves no
    # binder (a nullary constructor, no other variable) the adapted
    # continuation is delayed: applying it here would run its body before
    # the sequence's remaining columns are matched.
    cname = ctx.constructors[j - 1]
    arj = ctx.arity(cname)
    avs = [f"a{k+1}" for k in range(before)]
    bvs = [f"b{k+1}" for k in range(arj)]
    cvs = [f"c{k+1}" for k in range(after)]
    rebuilt = apps(constructor_function(ctx, cname), [Var(b) for b in bvs])
    body = apps(Var("w"), [Var(a) for a in avs] + [rebuilt] + [Var(c) for c in cvs])
    binders = avs + bvs + cvs
    return Abs("w", abss(binders, body) if binders else _delay(body))


# stands for each child that a constructor brings into a column where a
# sequence has a variable: the matcher only counts the variables of a
# pattern, it never reads their names
_CHILD = crs.Var("_")


def _match_term(ctx: ScottContext, alphas: list[tuple[crs.Term, ...]], m: int,
                delayed: list[bool]) -> lam.Term:
    # A matcher decides the first column some sequence has a constructor
    # in, and runs one sub-matcher per constructor.  Iterative: the
    # sub-matchers are built first, and deep patterns nest them deeper
    # than the recursion limit.
    results: list[lam.Term] = []
    todo: list[tuple] = [("go", alphas, m, delayed)]
    while todo:
        op, alphas, m, arg = todo.pop()
        n = len(alphas)
        xs = [f"x{k+1}" for k in range(m)]
        ks = [f"k{k+1}" for k in range(n)]
        if op == "mk":
            col, parts = arg
            xs_rest = xs[:col] + xs[col + 1:]
            first = len(results) - len(parts)
            branches = []
            for sub, (zs, conts) in zip(results[first:], parts):
                body = apps(sub, [Var(x) for x in xs[:col]] + [Var(z) for z in zs]
                            + [Var(x) for x in xs[col + 1:]] + conts)
                branches.append(abss(zs + xs_rest + ks, body))
            del results[first:]
            fail = abss(xs_rest + ks, bottom(ctx))
            body = apps(apps(apps(Var(xs[col]), branches + [fail]),
                             [Var(x) for x in xs_rest]), [Var(k) for k in ks])
            results.append(abss(xs + ks, body))
            continue
        if n == 0:
            results.append(abss(xs, bottom(ctx)))
            continue
        if not any(isinstance(pat, crs.Node) for a in alphas for pat in a):
            if n > 1:
                raise MatchOverlapError("distinct all-variable sequences overlap")
            results.append(_all_vars_matcher(ctx, m, arg[0]))
            continue
        col = next(i for i in range(m)
                   if any(isinstance(a[i], crs.Node) for a in alphas))
        parts = []
        subs = []
        for j in range(1, ctx.g + 1):
            cname = ctx.constructors[j - 1]
            arj = ctx.arity(cname)
            betas: list[tuple[crs.Term, ...]] = []
            conts: list[lam.Term] = []
            delays: list[bool] = []
            for pidx, a in enumerate(alphas):
                pat = a[col]
                if isinstance(pat, crs.Node):
                    if pat.symbol != cname:
                        continue
                    betas.append(a[:col] + pat.children + a[col + 1:])
                    conts.append(App(Abs("w", Var("w")), Var(ks[pidx])))
                    delays.append(arg[pidx])
                else:
                    betas.append(a[:col] + (_CHILD,) * arj + a[col + 1:])
                    before = sum(len(crs.variables(q)) for q in a[:col])
                    after = sum(len(crs.variables(q)) for q in a[col + 1:])
                    conts.append(App(_rebuild_wrapper(ctx, j, before, after),
                                     Var(ks[pidx])))
                    delays.append(before + arj + after == 0)
            parts.append(([f"z{k+1}" for k in range(arj)], conts))
            subs.append(("go", betas, m - 1 + arj, delays))
        todo.append(("mk", alphas, m, (col, parts)))
        todo += reversed(subs)
    return results[0]


def compile_match(ctx: ScottContext, alphas: list[tuple[crs.Term, ...]],
                  m: int, delayed: Optional[list[bool]] = None) -> lam.Term:
    """Matching combinator: applied to m encoded scrutinees and then one
    continuation per sequence, it reduces to the matching continuation
    applied to the encoded bindings (in variable order), and to the error
    value when nothing matches or a scrutinee is the error value.

    The number of steps to reach the continuation depends only on the
    sequences and the constructors consumed, never on subterm sizes.

    Continuations are call-by-value arguments, so each must be a value:
    a continuation's body runs only once its sequence has matched every
    column.  A continuation binding no variable may instead be a thunk
    \\u. body, flagged in `delayed` (one flag per sequence, default none);
    its sequence must bind no variable.  The matcher itself delays the
    continuation of a sequence whose variable meets a nullary constructor
    and that has no other variable left (see _rebuild_wrapper).  Both
    kinds are forced, by one extra step, in the m == 0 matcher reached
    once every column is decided, and no other continuation is forced.
    """
    alphas = [tuple(a) for a in alphas]
    for a in alphas:
        if len(a) != m:
            raise ScottError(f"sequence length {len(a)} != {m}")
    delayed = list(delayed) if delayed is not None else [False] * len(alphas)
    if len(delayed) != len(alphas):
        raise ScottError(f"{len(delayed)} delay flags for {len(alphas)} sequences")
    for a, d in zip(alphas, delayed):
        if d and any(crs.variables(pat) for pat in a):
            raise ScottError("a delayed continuation's sequence binds variables")
    pair = crs._first_overlap([(None, a) for a in alphas])[0]
    if pair is not None:
        raise MatchOverlapError("sequences %d and %d overlap" % pair)
    return _match_term(ctx, alphas, m, delayed)


# --- recursion ------------------------------------------------------------------------

def fixpoint_family(n: int) -> tuple[list[lam.Term], int]:
    """Terms H1..Hn with Hi V1..Vn reducing to
    Vi (\\x. H1 V1..Vn x) .. (\\x. Hn V1..Vn x) in at most 2n steps."""
    if n < 1:
        raise ScottError("fixpoint family needs n >= 1")
    xs = [f"x{k+1}" for k in range(n)]
    ys = [f"y{k+1}" for k in range(n)]
    ms = []
    for j in range(n):
        unfoldings = [Abs("z", apps(Var(xs[l]), [Var(v) for v in xs + ys] + [Var("z")]))
                      for l in range(n)]
        ms.append(abss(xs + ys, apps(Var(ys[j]), unfoldings)))
    hs = [apps(ms[i], ms) for i in range(n)]
    return hs, 2 * n


def _translate(ctx: ScottContext, t: crs.Term, head: Optional[Callable[[str], lam.Term]],
               values: bool) -> lam.Term:
    # The compositional image, children first.  A function symbol f
    # becomes head(f) applied to the images of the arguments.  With
    # values, a subterm of constructors only becomes its Scott value;
    # other constructor nodes go through strict_constructor.  Variables
    # (of right-hand sides) stay as they are.
    sig = ctx.system.signature
    binders = [f"s{i+1}" for i in range(ctx.g)] + ["sz"]
    results: list[tuple[lam.Term, bool]] = []  # an image, and if it is a Scott value
    todo: list[tuple[crs.Term, bool]] = [(t, False)]
    while todo:
        node, done = todo.pop()
        if isinstance(node, crs.Var):
            results.append((Var(node.name), False))
        elif not done:
            todo.append((node, True))
            todo += ((c, False) for c in reversed(node.children))
        else:
            first = len(results) - len(node.children)
            kids = [image for image, _ in results[first:]]
            encoded = values and all(value for _, value in results[first:])
            del results[first:]
            if not sig.is_constructor(node.symbol):
                results.append((apps(head(node.symbol), kids), False))
            elif encoded:
                i = ctx.con_index(node.symbol)
                results.append((abss(binders, apps(Var(f"s{i}"), kids)), True))
            else:
                results.append((apps(strict_constructor(ctx, node.symbol), kids), False))
    return results[0][0]


def interpret_function(ctx: ScottContext, fname: str) -> lam.Term:
    """Closed term embedding all rules for fname.

    Shape: Hi V1..Vh, where each Vj abstracts the recursion variables and
    the arguments, then runs the match combinator with one continuation
    per rule; continuations bind the pattern variables and evaluate the
    translated right-hand side.

    A rule without variables has no binder to hold its right-hand side
    back, so unless the translation is already an abstraction (a nullary
    constructor) its continuation is the thunk \\u. rhs, passed to
    compile_match as delayed and forced there once the rule is selected.

    The parts H1..Hh and V1..Vh are built on the first call and checked
    closed once per context; every interpretation shares them, and
    FV(Hi V1..Vh) is the union of the parts' free variables, so each
    interpretation is closed.
    """
    cached = ctx._interp_cache.get(fname)
    if cached is not None:
        return cached
    if fname not in ctx.functions:
        raise ScottError(f"unknown function symbol {fname!r}")
    if ctx._parts is None:
        hs, vs = _build_parts(ctx)
        # every part closed, in one walk: FV(p1 p2 .. pn) is their union
        assert not lam._free_set_shared(apps(hs[0], hs[1:] + vs), {})
        ctx._parts = hs, vs
    hs, vs = ctx._parts
    term = ctx._interp_cache[fname] = apps(hs[ctx.functions.index(fname)], vs)
    return term


def _build_parts(ctx: ScottContext) -> tuple[list[lam.Term], list[lam.Term]]:
    # H1..Hh and V1..Vh of interpret_function, Vj for the j-th symbol
    fixnames = ctx._fixnames
    vs = []
    for g in ctx.functions:
        rules = [r for r in ctx.system.rules if r.head == g]
        ar = ctx.arity(g)
        ws = []
        delayed = []
        for r in rules:
            pvars = [v for pat in r.lhs for v in crs.variables(pat)]
            rhs = _translate(ctx, r.rhs, lambda f: Var(fixnames[ctx.functions.index(f)]),
                             False)
            delayed.append(not pvars and not isinstance(rhs, Abs))
            ws.append(_delay(rhs) if delayed[-1] else abss(pvars, rhs))
        matcher = compile_match(ctx, [r.lhs for r in rules], ar, delayed)
        avars = [f"arg{k+1}" for k in range(ar)]
        vs.append(abss(list(fixnames) + avars,
                       apps(matcher, [Var(a) for a in avars] + ws)))
    hs, _ = fixpoint_family(len(ctx.functions))
    return hs, vs


def term_to_lambda(ctx: ScottContext, t: crs.Term) -> lam.Term:
    """Compositional image of a closed term; pure constructor subterms go
    through the plain Scott encoding (they are already values)."""
    assert isinstance(t, crs.Node)
    return _translate(ctx, t, lambda f: interpret_function(ctx, f), True)


# --- the simulation check ---------------------------------------------------------------

@dataclass
class SimulationVerdict:
    crs_kind: str
    crs_steps: int
    crs_term: crs.Term
    beta_kind: str
    beta_steps: int
    beta_term: lam.Term
    consistent: Optional[bool]
    ratio: Optional[float]


def simulate_and_check(ctx: ScottContext, t: crs.Term,
                       budget: int = 10_000) -> SimulationVerdict:
    """Run the rewrite engine and the compiled term side by side.

    Consistency means: constructor normal form vs its encoded value,
    stuck normal form vs the error value, or budget exhaustion on both
    sides.  None when exactly one side ran out of budget.  The compiled
    term gets 512·(n+2) beta steps when the rewrite run ends in n steps,
    and `budget` when it does not end.
    """
    crs_out = crs.reduce(ctx.system, t, budget)
    beta_budget = budget if crs_out.kind == "exhausted" else 512 * (crs_out.steps + 2)
    lam_out = lam.reduce(term_to_lambda(ctx, t), "cbv", beta_budget)
    consistent: Optional[bool]
    if crs_out.kind == "constructor" and lam_out.kind == "normal":
        consistent = lam.alpha_eq(lam_out.term, scott_encode(ctx, crs_out.term))
    elif crs_out.kind == "stuck" and lam_out.kind == "normal":
        consistent = lam.alpha_eq(lam_out.term, bottom(ctx))
    elif crs_out.kind == "exhausted" and lam_out.kind == "exhausted":
        consistent = True
    else:
        consistent = None
    ratio = None
    if crs_out.kind != "exhausted" and lam_out.kind == "normal" and crs_out.steps > 0:
        ratio = lam_out.steps / crs_out.steps
    return SimulationVerdict(crs_out.kind, crs_out.steps, crs_out.term,
                             lam_out.kind, lam_out.steps, lam_out.term,
                             consistent, ratio)
