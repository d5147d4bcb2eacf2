"""Compilation of weak lambda-calculus into constructor rewriting.

Each abstraction subterm of the source becomes an atomic constructor whose
arguments carry the values of its free variables (in their fixed order),
and a binary function symbol `app` drives reduction.  The CBV image uses
`app` alone; the CBN image also freezes arguments under a constructor
`capp` that an administrative rule re-activates in head position.

Constructors are named after the alpha-normal form of their abstraction,
so alpha-equivalent subterms share one constructor and one rule.  That
form and the abstraction's free variables are computed once per distinct
abstraction object of the source, in an `AbstractionTable` that both
images register their constructors from: `compare` builds it once, with
the CBV image, and hands it to the CBN image.  The table also names
each key once (`lam_` and the start of its sha256), so the two images
hash no key twice.

The checked runs decide each invariant where it cannot change.  The CBV
image's provenance and canonicity are decided in `run_phi`, once per
image, in one walk over the distinct nodes of its input term and rule
right sides.  The CBN image's canonicity is decided in one walk over
the distinct nodes of each term checked.  The CBN administrative rule
is the same in every image: `ADMIN_RULE`, whose property is decided
once, when this module is imported, and which `run_psi` asks each
image to carry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from . import crs, lam
from .frozen import distinct_nodes

APP = "app"
CAPP = "capp"


class EncodeError(Exception):
    pass


class OpenTermError(EncodeError):
    pass


class UnknownConstructor(EncodeError):
    pass


def _canonical(t: lam.Abs) -> tuple[str, tuple[str, ...]]:
    # (key, free variables sorted) of an abstraction in one walk: the key
    # is an alpha-invariant print in which binders become relative
    # indices and free names stay.  On the stack, a str is printed and a
    # list is the levels of a binder name, whose last one goes.
    out: list[str] = []
    free: set[str] = set()
    env: dict[str, list[int]] = {}
    depth = 0
    todo: list = [t]
    while todo:
        s = todo.pop()
        ts = type(s)
        if ts is lam.Var:
            lvls = env.get(s.name)
            if lvls:
                out.append(f"@{depth - 1 - lvls[-1]}")
            else:
                out.append("!" + s.name)
                free.add(s.name)
        elif ts is lam.Abs:
            out.append("\\.")
            lvls = env.get(s.binder)
            if lvls is None:
                lvls = env[s.binder] = []
            lvls.append(depth)
            depth += 1
            todo += (lvls, s.body)
        elif ts is lam.App:
            out.append("(")
            todo += (")", s.arg, " ", s.fun)
        elif ts is str:
            out.append(s)
        else:
            s.pop()
            depth -= 1
    return "".join(out), tuple(sorted(free))


class AbstractionTable:
    """The abstractions of a closed term: each distinct `lam.Abs` object,
    outermost first, with its canonical key and sorted free variables,
    computed in one walk per object.

    The objects are listed in the order of their first occurrence in a
    breadth-first walk of the term's unfolded tree, which a breadth-first
    walk that expands each object once also gives: a first occurrence
    is reached through the first occurrences of its ancestors.  Raises
    OpenTermError on an open term."""

    def __init__(self, m: lam.Term):
        self.term = m
        self.abstractions: list[lam.Abs] = []
        self._entries: dict[int, tuple[str, tuple[str, ...]]] = {}
        self._names: dict[str, str] = {}    # key -> constructor name
        seen: set[int] = set()
        queue = [m]
        for s in queue:
            if type(s) is lam.Var or id(s) in seen:
                continue
            seen.add(id(s))
            if type(s) is lam.Abs:
                self.abstractions.append(s)
                self._entries[id(s)] = _canonical(s)
                queue.append(s.body)
            else:
                queue += (s.fun, s.arg)
        # m is closed when no variable and no abstraction with a free
        # variable is reached from it through applications alone
        seen.clear()
        todo = [m]
        while todo:
            s = todo.pop()
            if type(s) is lam.Var or type(s) is lam.Abs and self._entries[id(s)][1]:
                raise OpenTermError(f"free variables: {lam.free_vars(m)}")
            if type(s) is lam.App and id(s) not in seen:
                seen.add(id(s))
                todo += (s.arg, s.fun)

    def entry(self, t: lam.Abs) -> tuple[str, tuple[str, ...]]:
        """(canonical key, sorted free variables) of t, from the table
        when t is one of its objects, else computed."""
        got = self._entries.get(id(t))
        return _canonical(t) if got is None else got

    def name(self, key: str) -> str:
        """The constructor name of a canonical key, hashed once per key."""
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = "lam_" + hashlib.sha256(key.encode()).hexdigest()[:10]
        return name


@dataclass(frozen=True)
class AbsConstructor:
    """Constructor standing for one alpha-class of abstractions."""

    name: str
    binder: str
    body: lam.Term
    free: tuple[str, ...]  # FV of the whole abstraction; the arity

    @property
    def arity(self) -> int:
        return len(self.free)

    def abstraction(self) -> lam.Term:
        return lam.Abs(self.binder, self.body)


class Registry:
    """Stable names for abstraction constructors, collision-checked, keyed
    and named through the abstraction table of the source.  Without a
    table it registers nothing and looks up no constructor."""

    def __init__(self, table: Optional[AbstractionTable]):
        self.table = table
        self.by_name: dict[str, AbsConstructor] = {}
        self._by_key: dict[str, str] = {}

    def register(self, t: lam.Abs) -> AbsConstructor:
        key, free = self.table.entry(t)
        name = self._by_key.get(key)
        if name is not None:
            return self.by_name[name]
        name = self.table.name(key)
        if name in self.by_name:
            raise EncodeError(f"constructor name collision on {name}")
        con = AbsConstructor(name, t.binder, t.body, free)
        self.by_name[name] = con
        self._by_key[key] = name
        return con

    def lookup(self, name: str) -> AbsConstructor:
        con = self.by_name.get(name)
        if con is None:
            raise UnknownConstructor(name)
        return con


@dataclass
class PhiImage:
    term: crs.Term
    system: crs.CrsSystem
    registry: Registry
    source: lam.Term


@dataclass
class PsiImage:
    term: crs.Term
    system: crs.CrsSystem
    registry: Registry
    source: lam.Term
    admin_rule: crs.Rule


def _image_term(t: lam.Term, reg: Registry, arg_symbol: str = APP) -> crs.Term:
    """The image of t: an abstraction becomes its constructor over its free
    variables, an application on the spine (the root and the function side
    of spine applications) becomes `app`, and one inside an argument
    becomes `arg_symbol` (`capp` freezes it in the CBN main image)."""
    out: list[crs.Term] = []
    todo: list[tuple] = [(t, APP)]      # (term, symbol of an application there)
    while todo:
        s, symbol = todo.pop()
        if s is None:
            x = out.pop()
            f = out.pop()
            out.append(crs.Node(symbol, (f, x)))
        elif isinstance(s, lam.Var):
            out.append(crs.Var(s.name))
        elif isinstance(s, lam.Abs):
            con = reg.register(s)
            out.append(crs.Node(con.name, tuple(crs.Var(v) for v in con.free)))
        else:
            todo.append((None, symbol))
            todo.append((s.arg, arg_symbol))
            todo.append((s.fun, symbol))
    return out[0]


def encode_cbv(m: lam.Term) -> PhiImage:
    """The CBV image: one rule app(c(x1..xn), x) -> image(body) per
    alpha-distinct abstraction subterm of m.  Its registry holds the
    abstraction table of m, which `encode_cbn` can take."""
    table = AbstractionTable(m)
    reg = Registry(table)
    for sub in table.abstractions:
        reg.register(sub)
    return PhiImage(*_phi_image(m, reg), reg, m)


def _phi_image(m: lam.Term, reg) -> tuple[crs.Term, crs.CrsSystem]:
    # The CBV image of m over a registry that holds the constructors of
    # its abstractions, in the order of their rules.
    term = _image_term(m, reg)
    names = list(reg.by_name)  # registration order; rule rhs adds nothing new
    rules = []
    for name in names:
        con = reg.by_name[name]
        lhs = (crs.Node(name, tuple(crs.Var(v) for v in con.free)), crs.Var(con.binder))
        rules.append(crs.Rule(APP, lhs, _image_term(con.body, reg)))
    assert list(reg.by_name) == names, "rule bodies introduced unregistered constructors"
    sig = crs.Signature({c.name: c.arity for c in reg.by_name.values()}, {APP: 2})
    return term, crs.validate_system(sig, rules)


def readback(t: crs.Term, reg: Registry, variables: bool = False) -> lam.Term:
    """The inverse image of a closed term, through the lambda machines'
    readback: a constructor c(v1..vn) is the closure of its abstraction
    with each free variable bound to the closure of its v_j, and app and
    capp are the machines' stuck application of two closures.  With
    variables, a pattern variable reads back as the free lambda variable
    of its name; otherwise it raises OpenTermError."""
    closures: dict[int, tuple | list] = {}  # id(node) -> closure; t keeps nodes alive
    nullary: dict[str, tuple] = {}      # one closure per nullary constructor, read once
    for s in distinct_nodes(t):
        if type(s) is crs.Var:
            if not variables:
                raise OpenTermError(f"free variable {s.name} in readback")
            closures[id(s)] = (lam.Var(s.name), None)
            continue
        kids = [closures[id(c)] for c in s.children]
        if s.symbol in (APP, CAPP):
            arity, closure = 2, kids
        elif not kids and s.symbol in nullary:
            arity, closure = 0, nullary[s.symbol]
        else:
            con = reg.lookup(s.symbol)
            env = None
            for name, kid in zip(con.free, kids):
                env = (name, kid, env)
            arity, closure = con.arity, (con.abstraction(), env)
            if not kids and not arity:
                nullary[s.symbol] = closure
        if len(kids) != arity:
            raise UnknownConstructor(f"{s.symbol} with arity {len(kids)}")
        closures[id(s)] = closure
    root = closures[id(t)]
    if not variables:
        return lam.readback(root)
    # binders named after a variable are renamed away from every name read
    names = lam.apps(lam.Var(APP), [c[0] for c in closures.values() if type(c) is tuple])
    return lam.readback(root, names)


def _node_is_canonical(s: crs.Term, sig: crs.Signature) -> bool:
    # a term is canonical when each of its nodes is: a function node is
    # an app with app nodes alone above it, that is, no node but app is a
    # function node or has one as a child
    return type(s) is crs.Var or s.symbol == APP or not (
        sig.is_function(s.symbol)
        or any(type(c) is crs.Node and sig.is_function(c.symbol) for c in s.children))


def _node_is_registered(s: crs.Term, reg: Registry) -> bool:
    # the provenance of one node: app, capp or a registered constructor
    return type(s) is crs.Var or s.symbol in (APP, CAPP) or s.symbol in reg.by_name


def is_canonical(t: crs.Term, sig: crs.Signature) -> bool:
    """Constructor term, or app of two canonical terms.  A variable
    counts as a constructor term: on a rule's rhs this says that every
    instance under a match binding constructor values is canonical."""
    return all(_node_is_canonical(s, sig) for s in distinct_nodes(t))


def check_provenance(t: crs.Term, reg: Registry) -> bool:
    """Every constructor in t names an abstraction registered from the
    source (hence an alpha-class of one of its subterms)."""
    return all(_node_is_registered(s, reg) for s in distinct_nodes(t))


# --- call-by-name ----------------------------------------------------------------

def encode_cbn(m: lam.Term, table: Optional[AbstractionTable] = None) -> PsiImage:
    """The CBN image over app/capp with the administrative rule.

    Ordinary rules: the identity constructor forwards its argument
    (re-activating a frozen application), variable-body constructors
    return the binding of their single free variable likewise, and every
    abstraction/application body rewrites to its main image.  `table` is
    the abstraction table of m (`encode_cbv(m).registry.table`), built
    here when not given.
    """
    if table is None:
        table = AbstractionTable(m)
    elif table.term is not m:
        raise ValueError("the abstraction table is of another term")
    reg = Registry(table)
    identity = reg.register(lam.Abs("z", lam.Var("z")))
    for sub in table.abstractions:
        reg.register(sub)
    term, system, admin = _psi_image(m, reg, identity)
    return PsiImage(term, system, reg, m, admin)


def _psi_image(m: lam.Term, reg,
               identity: AbsConstructor) -> tuple[crs.Term, crs.CrsSystem, crs.Rule]:
    # The CBN image of m and its administrative rule, over a registry
    # that holds the identity and the constructors of m's abstractions,
    # in the order of their rules.
    term = _image_term(m, reg, CAPP)
    names = list(reg.by_name)
    # the pattern c(v1..vk) of each constructor, the identity's among
    # them, built once for every rule that enumerates the constructors
    pattern = {name: crs.Node(name, tuple(crs.Var(f"v{i+1}") for i in range(con.arity)))
               for name, con in reg.by_name.items()}
    ident = pattern[identity.name]
    rules: list[crs.Rule] = []
    # identity: unfreeze or return its argument
    rules.append(crs.Rule(APP, (ident, crs.Node(CAPP, (crs.Var("w"), crs.Var("f")))),
                          crs.Node(APP, (crs.Var("w"), crs.Var("f")))))
    for name in names:
        rules.append(crs.Rule(APP, (ident, pattern[name]), pattern[name]))
    # variable bodies other than the binder: return the stored binding
    for name in names:
        con = reg.by_name[name]
        if isinstance(con.body, lam.Var) and con.body.name != con.binder:
            vb = crs.Node(name, (crs.Node(CAPP, (crs.Var("f"), crs.Var("g"))),))
            rules.append(crs.Rule(APP, (vb, crs.Var("h")),
                                  crs.Node(APP, (crs.Var("f"), crs.Var("g")))))
            for name2 in names:
                rules.append(crs.Rule(APP, (crs.Node(name, (pattern[name2],)), crs.Var("h")),
                                      pattern[name2]))
    # abstraction and application bodies: beta via the main image
    for name in names:
        con = reg.by_name[name]
        if not isinstance(con.body, lam.Var):
            lhs = (crs.Node(name, tuple(crs.Var(v) for v in con.free)), crs.Var(con.binder))
            rules.append(crs.Rule(APP, lhs, _image_term(con.body, reg, CAPP)))
    rules.append(ADMIN_RULE)
    assert list(reg.by_name) == names
    sig = crs.Signature({CAPP: 2, **{c.name: c.arity for c in reg.by_name.values()}}, {APP: 2})
    return term, crs.validate_system(sig, rules), ADMIN_RULE


def psi_is_canonical(t: crs.Term, sig: crs.Signature, reg: Registry) -> bool:
    """Abstraction-constructor term, or app of a canonical term and a
    constructor term (a frozen capp at the root is not canonical).  A
    variable is function-free, but no constructor term.

    One walk over t's distinct nodes decides two predicates of each node
    from its children: whether it is a constructor term, and whether it
    is a node of no function symbol with a function child, which no
    canonical term has.  Then the left spine is read: apps over
    constructor terms down to a registered constructor, which the walk
    has shown function-free."""
    funs, cons, names = sig.functions, sig.constructors, reg.by_name
    impure: set[int] = set()            # ids of the nodes that are no constructor term
    for s in distinct_nodes(t):
        if type(s) is crs.Var or s.symbol in funs:
            impure.add(id(s))
            continue
        if s.symbol not in cons:
            impure.add(id(s))
        for c in s.children:
            if id(c) in impure:
                if type(c) is crs.Node and c.symbol in funs:
                    return False
                impure.add(id(s))
    while True:
        if type(t) is crs.Var:
            return False
        if t.symbol in names:
            return t.symbol not in funs
        if t.symbol != APP or id(t.children[1]) in impure:
            return False
        t = t.children[0]


# --- instrumented runs -------------------------------------------------------------

@dataclass
class PhiRun:
    outcome: crs.CrsOutcome
    readback_nf: Optional[lam.Term]


def run_phi(image: PhiImage, budget: int = 10_000) -> PhiRun:
    """Reduce the image, with canonicity and constructor provenance
    decided once per image, where the simulation closes them.

    Provenance: the input term and every rule's rhs name only registered
    constructors (and app).  A step copies bindings out of the term and
    adds only rhs symbols, so every reached term does too.  Canonicity:
    the input is canonical, and so is every rule's rhs with its variables
    standing for the constructor values the machine binds them to.  In a
    canonical term a redex has only app nodes above it, and a step leaves
    that context as it is, so every reached term is canonical.  A step
    therefore costs no whole-term work.

    Both are properties of each node, those of `check_provenance` and
    `is_canonical`, so one walk decides them: over the input term and
    each rule's rhs in turn, sharing the nodes already decided."""
    sig = image.system.signature
    reg = image.registry
    known: set[int] = set()         # ids of the nodes decided; the image keeps them alive
    for t in (image.term, *(rule.rhs for rule in image.system.rules)):
        registered = canonical = True
        for s in distinct_nodes(t, known):
            known.add(id(s))
            registered = registered and _node_is_registered(s, reg)
            canonical = canonical and _node_is_canonical(s, sig)
        assert registered, "unregistered constructor"
        assert canonical, "canonicity lost"
    out = crs.reduce(image.system, image.term, budget)
    rb = None
    if out.kind != "exhausted":
        rb = readback(out.term, reg)
        if out.kind == "constructor":
            assert lam.reduce(rb, "cbv", 0).kind == "normal"
    return PhiRun(out, rb)


@dataclass
class PsiRun:
    outcome: crs.CrsOutcome
    readback_nf: Optional[lam.Term]
    admin_steps: int
    ordinary_steps: int


def _admin_rule_ok(rule: crs.Rule) -> bool:
    """Whether every instance of an administrative rule keeps the readback
    and adds exactly one app: the rule is linear and keeps each variable
    once, so an instance's rhs has one more app than its lhs exactly when
    the patterns do; readback is compositional, so every instance reads
    back alpha-equal to its lhs when the patterns do, their variables read
    as free lambda variables.  The rule names app and capp alone, so its
    readback looks up no constructor: it reads through an empty registry,
    in which another constructor raises UnknownConstructor."""
    lhs = crs.Node(rule.head, rule.lhs)
    reg = Registry(None)
    return (sorted(crs.variables(rule.rhs)) == sorted(crs.variables(lhs))
            and crs.count_symbol(rule.rhs, APP) == crs.count_symbol(lhs, APP) + 1
            and lam.alpha_eq(readback(lhs, reg, variables=True),
                             readback(rule.rhs, reg, variables=True)))


# The administrative rule of every CBN image, app(capp(x, y), z) ->
# app(app(x, y), z): it unfreezes an argument that reached head position.
# Its property is decided here, once.
ADMIN_RULE = crs.Rule(
    APP, (crs.Node(CAPP, (crs.Var("x"), crs.Var("y"))), crs.Var("z")),
    crs.Node(APP, (crs.Node(APP, (crs.Var("x"), crs.Var("y"))), crs.Var("z"))))
assert _admin_rule_ok(ADMIN_RULE), \
    "administrative rule changes the readback or adds other than one app"


def run_psi(image: PsiImage, budget: int = 10_000) -> PsiRun:
    """Reduce the CBN image, counting administrative and ordinary steps.

    An administrative step must keep the readback fixed and add exactly
    one occurrence of app.  Both are properties of the administrative
    rule (see `_admin_rule_ok`), decided once for `ADMIN_RULE` when this
    module is imported; an image is run only when its administrative rule
    equals that rule, so a rule that differs even in the names of its
    variables is rejected.  The properties carry over to every instance,
    and a step leaves the context of its redex as it is, so to every
    reached term.  So the run takes no step hook: the administrative
    steps are the firings of the rule's position, read from the
    outcome."""
    assert image.admin_rule == ADMIN_RULE, \
        "administrative rule changes the readback or adds other than one app"
    assert psi_is_canonical(image.term, image.system.signature, image.registry)
    out = crs.reduce(image.system, image.term, budget)
    admin = sum(n for rule, n in zip(image.system.rules, out.fires) if rule is image.admin_rule)
    rb = None
    if out.kind != "exhausted":
        rb = readback(out.term, image.registry)
        if out.kind == "constructor":
            assert psi_is_canonical(out.term, image.system.signature, image.registry)
    return PsiRun(out, rb, admin, out.steps - admin)


def system_with_table(image) -> str:
    """The generated system in text form, with the constructor table as a
    comment block."""
    comments = ["generated rewrite system", "constructor table:"]
    for name, con in image.registry.by_name.items():
        comments.append(f"  {name} = {lam.to_str(con.abstraction())}")
    return crs.system_to_str(image.system, image.term, comments)
