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
V1..Vh, the error value, the constructor functions) once, and each
repeated piece of them (binder names, rebuilt nodes, rebuild wrappers,
fail branches) once, and every interpretation and compiled term shares
those objects.  Each builder call composes the free variables of what it
builds from those of its pieces, so the parts are checked closed by
reading one set, not by a second walk over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import crs, lam
from .lam import Abs, App, Var, abss, apps


class ScottError(Exception):
    pass


class MatchOverlapError(ScottError):
    pass


class _Built:
    """The free variables of the terms the builders make, each composed
    once, when it is built, from the sets of its pieces.

    `free` maps the id of a built term to the term, which it keeps alive,
    and its free variables.  A variable's set is its own name.  A piece
    no builder made (a constructor function replaced from outside, say)
    gets its set by one walk, `lam._free_set_shared`, whose memo `shared`
    lives no longer than the terms it is kept for: the built terms that
    embed them.
    """

    __slots__ = ("free", "shared")

    def __init__(self):
        self.free: dict[int, tuple[lam.Term, set[str]]] = {}
        self.shared: dict[int, frozenset[str]] = {}

    def build(self, binders: Sequence[str], head: lam.Term,
              args: Sequence[lam.Term] = ()) -> lam.Term:
        """\\binders. head args, with its free variables composed."""
        free = self.free
        fv: set[str] = set()
        t = None
        for p in (head, *args):
            if type(p) is Var:
                fv.add(p.name)
            else:
                known = free.get(id(p))
                fv |= known[1] if known is not None else lam._free_set_shared(p, self.shared)
            t = p if t is None else App(t, p)
        fv.difference_update(binders)
        for b in reversed(binders):
            t = Abs(b, t)
        free[id(t)] = t, fv
        return t


class ScottContext:
    """Enumeration order and compilation caches for one system.

    The emitted terms depend on the declaration order of constructors and
    function symbols, so the context pins both for its lifetime.
    """

    def __init__(self, system: crs.CrsSystem):
        self.system = system
        self.constructors = tuple(system.signature.constructors)
        self.functions = tuple(system.signature.functions)
        self._con_index = {c: i for i, c in enumerate(self.constructors, 1)}
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
        self._built = _Built()
        self._names: dict[tuple[str, int], tuple[tuple[str, ...], tuple[Var, ...]]] = {}
        self._pieces: dict[tuple, lam.Term] = {}
        self._all_vars_chain: list[lam.Term] = [self._built.build(("k",), _K)]
        self._ident = self._built.build(("w",), _W)     # \w. w

    @property
    def g(self) -> int:
        return len(self.constructors)

    def con_index(self, name: str) -> int:
        """1-based index of a constructor in the enumeration order."""
        return self._con_index[name]

    def arity(self, name: str) -> int:
        return self.system.signature.arity(name)


_K, _W = Var("k"), Var("w")


def _binders(ctx: ScottContext, prefix: str, n: int) -> tuple[tuple[str, ...], tuple[Var, ...]]:
    # prefix1..prefixn and a variable of each, made once per context
    made = ctx._names.get((prefix, n))
    if made is None:
        names = tuple(f"{prefix}{k+1}" for k in range(n))
        made = ctx._names[prefix, n] = names, tuple(map(Var, names))
    return made


def bottom(ctx: ScottContext) -> lam.Term:
    """The error value: selects the extra continuation branch."""
    t = ctx._pieces.get(("bottom",))
    if t is None:
        binders = _binders(ctx, "s", ctx.g)[0] + ("sz",)
        t = ctx._pieces["bottom",] = ctx._built.build(binders, Var("sz"))
    return t


def _fail(ctx: ScottContext, binders: tuple[str, ...]) -> lam.Term:
    # \binders. bottom: a matcher's branch when no sequence matches
    t = ctx._pieces.get(("fail", binders))
    if t is None:
        t = ctx._pieces["fail", binders] = ctx._built.build(binders, bottom(ctx))
    return t


def scott_encode(ctx: ScottContext, t: crs.Term) -> lam.Term:
    """Scott value of a constructor term; injective up to alpha."""
    assert crs.is_constructor_term(t, ctx.system.signature)
    return _translate(ctx, t, None, True)


def constructor_function(ctx: ScottContext, name: str) -> lam.Term:
    """The constructor as a function: applied to encoded arguments it
    reduces to the encoded node in arity-many steps."""
    t = ctx._pieces.get(("confun", name))
    if t is None:
        pvars, pvs = _binders(ctx, "p", ctx.arity(name))
        svars, svs = _binders(ctx, "s", ctx.g)
        t = ctx._pieces["confun", name] = ctx._built.build(
            pvars + svars + ("sz",), svs[ctx.con_index(name) - 1], pvs)
    return t


def _rebuilt_node(ctx: ScottContext, i: int, prefix: str, n: int) -> lam.Term:
    # the full-arity member of the strict family, over the free variables
    # prefix1..prefixn: already the Scott value
    t = ctx._pieces.get(("node", i, prefix, n))
    if t is None:
        ys, yvs = _binders(ctx, "y", ctx.g)
        t = ctx._pieces["node", i, prefix, n] = ctx._built.build(
            ys + ("yb",), yvs[i - 1], _binders(ctx, prefix, n)[1])
    return t


def strict_constructor(ctx: ScottContext, name: str) -> lam.Term:
    """Error-strict constructor: yields the encoded node, or the error
    value as soon as any argument is the error value.

    It is member 0 of a family: member m has free variables x1..xm for
    the arguments already consumed, consumes the next one and goes on as
    member m+1; the full-arity member is the encoded node itself.
    """
    t = ctx._pieces.get(("strict", name))
    if t is None:
        built = ctx._built
        i, ar = ctx.con_index(name), ctx.arity(name)
        xs = _binders(ctx, "x", ar)[0]
        t = _rebuilt_node(ctx, i, "x", ar)
        for m in reversed(range(ar)):
            consume_next = built.build(xs[m:m + 1], t)
            branches = []
            for j, cname in enumerate(ctx.constructors, 1):
                arj = ctx.arity(cname)
                branches.append(built.build(_binders(ctx, "z", arj)[0], consume_next,
                                            (_rebuilt_node(ctx, j, "z", arj),)))
            branches.append(_fail(ctx, _binders(ctx, "d", ar - m - 1)[0]))
            t = built.build(("w",), _W, branches)
        ctx._pieces["strict", name] = t
    return t


# --- pattern matching ---------------------------------------------------------------

def _delay(ctx: ScottContext, body: lam.Term) -> lam.Term:
    """The thunk \\u. body.  u is never free in body: a delayed body is a
    variable-free rule's translated right side, whose free variables are
    fixed-point names F.., or _rebuild_wrapper's w C, whose only free
    variable is w."""
    return ctx._built.build(("u",), body)


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
    built = ctx._built
    while len(chain) <= m:
        xs, xvs = _binders(ctx, "x", len(chain))
        passers = xs[1:] + ("k",)
        branches = []
        for cname in ctx.constructors:
            zs, zvs = _binders(ctx, "z", ctx.arity(cname))
            # k applied to the scrutinee, rebuilt from its children z..
            pass_on = ctx._pieces.get(("pass", cname))
            if pass_on is None:
                pass_on = ctx._pieces["pass", cname] = built.build(
                    (), _K, (built.build((), constructor_function(ctx, cname), zvs),))
            branches.append(built.build(zs + passers, chain[-1], xvs[1:] + (pass_on,)))
        branches.append(_fail(ctx, passers))
        chain.append(built.build(xs + ("k",), xvs[0], branches + list(xvs[1:]) + [_K]))
    return chain[m]


def _rebuild_wrapper(ctx: ScottContext, j: int, before: int, after: int) -> lam.Term:
    # adapts a continuation expecting the original variable binding to one
    # receiving the constructor's children instead.  When that leaves no
    # binder (a nullary constructor, no other variable) the adapted
    # continuation is delayed: applying it here would run its body before
    # the sequence's remaining columns are matched.
    t = ctx._pieces.get(("wrap", j, before, after))
    if t is None:
        built = ctx._built
        cname = ctx.constructors[j - 1]
        avs, avvs = _binders(ctx, "a", before)
        bvs, bvvs = _binders(ctx, "b", ctx.arity(cname))
        cvs, cvvs = _binders(ctx, "c", after)
        rebuilt = built.build((), constructor_function(ctx, cname), bvvs)
        body = built.build((), _W, avvs + (rebuilt,) + cvvs)
        binders = avs + bvs + cvs
        t = ctx._pieces["wrap", j, before, after] = built.build(
            ("w",), built.build(binders, body) if binders else _delay(ctx, body))
    return t


def _match_term(ctx: ScottContext, tree, m: int, info: dict[int, tuple[int, bool]]) -> lam.Term:
    # The matcher of a crs._match_tree built with copy over m columns,
    # for the rows whose positions info maps to (number of variables,
    # delayed?).  A switch
    # decides the column that holds its slot (cols; None for a child no
    # switch reads), a constructor by its branch, else the default, else
    # the fail branch.  Every row has one variable in each column before
    # that one.  Iterative: deep patterns nest sub-matchers deeper than
    # the recursion limit.
    built = ctx._built
    results: list[lam.Term] = []
    todo: list[tuple] = [("go", tree, tuple(range(m)), m, info)]
    while todo:
        op, node, cols, n, info = todo.pop()
        xs, xvs = _binders(ctx, "x", len(cols))
        if op == "mk":
            col, parts, nrows = node
            ks, kvs = _binders(ctx, "k", nrows)
            xs_rest = xs[:col] + xs[col + 1:]
            first = len(results) - len(parts)
            branches = []
            for sub, (zs, zvs, conts) in zip(results[first:], parts):
                branches.append(built.build(zs + xs_rest + ks, sub,
                                            xvs[:col] + zvs + xvs[col + 1:] + conts))
            del results[first:]
            branches.append(_fail(ctx, xs_rest + ks))
            results.append(built.build(xs + ks, xvs[col],
                                       branches + list(xvs[:col] + xvs[col + 1:] + kvs)))
            continue
        if type(node) is not list:
            results.append(_fail(ctx, xs) if node is None else
                           _all_vars_matcher(ctx, len(cols), info[node][1]))
            continue
        slot, branches, default, rows = node
        col = cols.index(slot)
        k_of = dict(zip(rows, _binders(ctx, "k", len(rows))[1]))
        var_rows = set(_rows(default))
        parts = []
        subs = []
        for j, cname in enumerate(ctx.constructors, 1):
            arj = ctx.arity(cname)
            sub = branches.get(cname)
            if sub is None:
                sub, kids, n_sub = default, (None,) * arj, n
            else:
                kids, n_sub = tuple(range(n, n + arj)), n + arj
            conts = []
            sub_info = {}
            for q in _rows(sub):
                nv, d = info[q]
                if q in var_rows:
                    conts.append(built.build((), _rebuild_wrapper(ctx, j, col, nv - col - 1),
                                             (k_of[q],)))
                    nv += arj - 1
                    d = nv == 0
                else:
                    conts.append(built.build((), ctx._ident, (k_of[q],)))
                sub_info[q] = nv, d
            zs, zvs = _binders(ctx, "z", arj)
            parts.append((zs, zvs, tuple(conts)))
            subs.append(("go", sub, cols[:col] + kids + cols[col + 1:], n_sub, sub_info))
        todo.append(("mk", (col, parts, len(rows)), cols, n, info))
        todo += reversed(subs)
    return results[0]


def _rows(node) -> tuple[int, ...]:
    # the positions of the rows of a match tree node
    return () if node is None else node[3] if type(node) is list else (node,)


def compile_match(ctx: ScottContext, alphas: list[tuple[crs.Term, ...]],
                  m: int, delayed: Optional[list[bool]] = None) -> lam.Term:
    """Matching combinator: applied to m encoded scrutinees and then one
    continuation per sequence, it reduces to the matching continuation
    applied to the encoded bindings (in variable order), and to the error
    value when nothing matches or a scrutinee is the error value.

    It translates the sequences' match tree, from the builder of the
    rewrite engines' trees with copy (crs._match_tree): a switch, on the
    first column in which some sequence has a constructor, becomes a case
    analysis with a branch per constructor of the signature, which the
    sequences with a variable there enter too.  The number of steps to
    reach the continuation depends only on the sequences and the
    constructors consumed, never on subterm sizes.  Overlapping
    sequences raise MatchOverlapError for their least pair (i, j), which
    the build of the engines' tree finds first: the copying tree can be
    exponential in the number of overlapping sequences.

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
    nvars = [sum(len(crs.variables(pat)) for pat in a) for a in alphas]
    if any(d and n for d, n in zip(delayed, nvars)):
        raise ScottError("a delayed continuation's sequence binds variables")
    rows = list(enumerate(alphas))
    try:
        crs._match_tree(rows)
    except crs.OverlapError as exc:
        raise MatchOverlapError("sequences %d and %d overlap" % exc.rules) from None
    return _match_term(ctx, crs._match_tree(rows, copy=True), m,
                       dict(enumerate(zip(nvars, delayed))))


# --- recursion ------------------------------------------------------------------------

def fixpoint_family(n: int) -> tuple[list[lam.Term], int]:
    """Terms H1..Hn with Hi V1..Vn reducing to
    Vi (\\x. H1 V1..Vn x) .. (\\x. Hn V1..Vn x) in at most 2n steps."""
    return _fixpoint_family(_Built(), n)


def _fixpoint_family(built: _Built, n: int) -> tuple[list[lam.Term], int]:
    if n < 1:
        raise ScottError("fixpoint family needs n >= 1")
    xs = tuple(f"x{k+1}" for k in range(n))
    ys = tuple(f"y{k+1}" for k in range(n))
    xys = tuple(map(Var, xs + ys)) + (Var("z"),)
    unfoldings = [built.build(("z",), xys[l], xys) for l in range(n)]
    ms = [built.build(xs + ys, xys[n + j], unfoldings) for j in range(n)]
    hs = [built.build((), ms[i], ms) for i in range(n)]
    return hs, 2 * n


def _translate(ctx: ScottContext, t: crs.Term, head: Optional[Callable[[str], lam.Term]],
               values: bool) -> lam.Term:
    # The compositional image, children first.  A function symbol f
    # becomes head(f) applied to the images of the arguments.  With
    # values, a subterm of constructors only becomes its Scott value;
    # other constructor nodes go through strict_constructor, and each
    # nullary constructor's value is built once per context.  Variables
    # (of right-hand sides) stay as they are.  Without values the image
    # is a right-hand side's, part of a compiled function, and each
    # application composes its free variables.
    index = ctx._con_index
    binders, svs = _binders(ctx, "s", ctx.g)
    binders += ("sz",)
    call = apps if values else lambda f, args: ctx._built.build((), f, args)
    images: list[lam.Term] = []
    encoded: list[bool] = []        # if each image is a Scott value
    todo: list[Optional[crs.Term]] = [t]
    while todo:
        node = todo.pop()
        if node is not None:        # first visit: its children go first
            if type(node) is crs.Var:
                images.append(Var(node.name))
                encoded.append(False)
            else:
                todo += (node, None)
                todo += reversed(node.children)
            continue
        node = todo.pop()
        first = len(images) - len(node.children)
        kids = images[first:]
        value = values and all(encoded[first:])
        del images[first:], encoded[first:]
        i = index.get(node.symbol)
        if i is None:
            images.append(call(head(node.symbol), kids))
        elif value and not kids:    # a nullary constructor's value, one per context
            leaf = ctx._pieces.get(("leaf", i))
            if leaf is None:
                leaf = ctx._pieces["leaf", i] = abss(binders, svs[i - 1])
            images.append(leaf)
        elif value:
            images.append(abss(binders, apps(svs[i - 1], kids)))
        else:
            images.append(call(strict_constructor(ctx, node.symbol), kids))
        encoded.append(value and i is not None)
    return images[0]


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

    The parts H1..Hh and V1..Vh are built on the first call, and every
    interpretation shares them.  Each builder call composed the free
    variables of what it built from those of its pieces (a piece no
    builder made is walked once), so FV(H1..Hh V1..Vh), the union of the
    parts' free variables, is read, not walked, and must be empty: then
    each interpretation is closed.
    """
    cached = ctx._interp_cache.get(fname)
    if cached is not None:
        return cached
    if fname not in ctx.functions:
        raise ScottError(f"unknown function symbol {fname!r}")
    if ctx._parts is None:
        hs, vs = _build_parts(ctx)
        whole = ctx._built.build((), hs[0], hs[1:] + vs)
        assert not ctx._built.free[id(whole)][1]
        ctx._parts = hs, vs
    hs, vs = ctx._parts
    term = ctx._interp_cache[fname] = apps(hs[ctx.functions.index(fname)], vs)
    return term


def _build_parts(ctx: ScottContext) -> tuple[list[lam.Term], list[lam.Term]]:
    # H1..Hh and V1..Vh of interpret_function, Vj for the j-th symbol
    built = ctx._built
    fixnames = ctx._fixnames
    fixvars = dict(zip(ctx.functions, map(Var, fixnames)))
    vs = []
    for g in ctx.functions:
        ws = []
        rows = {}                   # rule position -> (variables, delayed?)
        for pos, r in enumerate(ctx.system.rules):
            if r.head == g:
                pvars = [v for pat in r.lhs for v in crs.variables(pat)]
                rhs = _translate(ctx, r.rhs, fixvars.__getitem__, False)
                rows[pos] = len(pvars), not pvars and not isinstance(rhs, Abs)
                ws.append(_delay(ctx, rhs) if rows[pos][1] else built.build(pvars, rhs))
        ar = ctx.arity(g)
        tree = crs._match_tree([(pos, ctx.system.rules[pos].lhs) for pos in rows], copy=True)
        matcher = _match_term(ctx, tree, ar, rows)
        avars, avvs = _binders(ctx, "arg", ar)
        vs.append(built.build(fixnames + avars, matcher, avvs + tuple(ws)))
    hs, _ = _fixpoint_family(built, len(ctx.functions))
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
