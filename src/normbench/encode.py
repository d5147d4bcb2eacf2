"""Compilation of weak lambda-calculus into constructor rewriting.

Each abstraction subterm of the source becomes an atomic constructor whose
arguments carry the values of its free variables (in their fixed order),
and a binary function symbol `app` drives reduction.  The CBV image uses
`app` alone; the CBN image also freezes arguments under a constructor
`capp` that an administrative rule re-activates in head position.

Constructors are named after the alpha-normal form of their abstraction,
so alpha-equivalent subterms share one constructor and one rule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from . import crs, lam

APP = "app"
CAPP = "capp"


class EncodeError(Exception):
    pass


class OpenTermError(EncodeError):
    pass


class UnknownConstructor(EncodeError):
    pass


def canonical_form(t: lam.Term) -> str:
    """Alpha-invariant print: binders become relative indices, free names stay."""
    out: list[str] = []
    env: dict[str, list[int]] = {}
    depth = 0
    todo: list[tuple[str, object]] = [("go", t)]
    while todo:
        op, arg = todo.pop()
        if op == "lit":
            out.append(arg)
            continue
        if op == "unbind":
            env[arg].pop()
            depth -= 1
            continue
        if isinstance(arg, lam.Var):
            lvls = env.get(arg.name)
            out.append(f"@{depth - 1 - lvls[-1]}" if lvls else f"!{arg.name}")
        elif isinstance(arg, lam.Abs):
            out.append("\\.")
            env.setdefault(arg.binder, []).append(depth)
            depth += 1
            todo.append(("unbind", arg.binder))
            todo.append(("go", arg.body))
        else:
            out.append("(")
            todo.append(("lit", ")"))
            todo.append(("go", arg.arg))
            todo.append(("lit", " "))
            todo.append(("go", arg.fun))
    return "".join(out)


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
    """Stable names for abstraction constructors, collision-checked."""

    def __init__(self):
        self.by_name: dict[str, AbsConstructor] = {}
        self._by_key: dict[str, str] = {}

    def register(self, t: lam.Abs) -> AbsConstructor:
        key = canonical_form(t)
        name = self._by_key.get(key)
        if name is not None:
            return self.by_name[name]
        name = "lam_" + hashlib.sha256(key.encode()).hexdigest()[:10]
        if name in self.by_name:
            raise EncodeError(f"constructor name collision on {name}")
        con = AbsConstructor(name, t.binder, t.body, lam.free_vars(t))
        self.by_name[name] = con
        self._by_key[key] = name
        return con

    def lookup(self, name: str) -> AbsConstructor:
        con = self.by_name.get(name)
        if con is None:
            raise UnknownConstructor(name)
        return con


def _abstraction_subterms(t: lam.Term) -> list[lam.Abs]:
    """All abstraction occurrences of t, outermost first."""
    out: list[lam.Abs] = []
    todo = [t]
    i = 0
    while i < len(todo):
        s = todo[i]
        i += 1
        if isinstance(s, lam.Abs):
            out.append(s)
            todo.append(s.body)
        elif isinstance(s, lam.App):
            todo.append(s.fun)
            todo.append(s.arg)
    return out


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
    alpha-distinct abstraction subterm of m."""
    if not lam.is_closed(m):
        raise OpenTermError(f"free variables: {lam.free_vars(m)}")
    reg = Registry()
    for sub in _abstraction_subterms(m):
        reg.register(sub)
    term = _image_term(m, reg)
    names = list(reg.by_name)  # registration order; rule rhs adds nothing new
    rules = []
    for name in names:
        con = reg.by_name[name]
        lhs = (crs.Node(name, tuple(crs.Var(v) for v in con.free)), crs.Var(con.binder))
        rules.append(crs.Rule(APP, lhs, _image_term(con.body, reg)))
    assert list(reg.by_name) == names, "rule bodies introduced unregistered constructors"
    sig = crs.Signature({c.name: c.arity for c in reg.by_name.values()}, {APP: 2})
    return PhiImage(term, crs.validate_system(sig, rules), reg, m)


def readback(t: crs.Term, reg: Registry, variables: bool = False) -> lam.Term:
    """The inverse image of a closed term, through the lambda machines'
    readback: a constructor c(v1..vn) is the closure of its abstraction
    with each free variable bound to the closure of its v_j, and app and
    capp are the machines' stuck application of two closures.  With
    variables, a pattern variable reads back as the free lambda variable
    of its name; otherwise it raises OpenTermError."""
    closures: dict[int, tuple | list] = {}  # id(node) -> closure; t keeps nodes alive
    nullary: dict[str, tuple] = {}      # one closure per nullary constructor, read once
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is not None:               # s, then None once its children are read
            if type(s) is crs.Var:
                if not variables:
                    raise OpenTermError(f"free variable {s.name} in readback")
                closures[id(s)] = (lam.Var(s.name), None)
            elif id(s) not in closures:
                todo.append(s)
                todo.append(None)
                todo.extend(s.children)
            continue
        s = todo.pop()
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


def is_canonical(t: crs.Term, sig: crs.Signature) -> bool:
    """Constructor term, or app of two canonical terms.  A variable
    counts as a constructor term: on a rule's rhs this says that every
    instance under a match binding constructor values is canonical."""
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, crs.Var):
            continue
        if s.symbol == APP:
            todo.extend(s.children)
        elif crs.contains_function(s, sig):
            return False
    return True


def check_provenance(t: crs.Term, reg: Registry) -> bool:
    """Every constructor in t names an abstraction registered from the
    source (hence an alpha-class of one of its subterms)."""
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, crs.Node):
            if s.symbol not in (APP, CAPP) and s.symbol not in reg.by_name:
                return False
            todo.extend(s.children)
    return True


# --- call-by-name ----------------------------------------------------------------

def encode_cbn(m: lam.Term) -> PsiImage:
    """The CBN image over app/capp with the administrative rule.

    Ordinary rules: the identity constructor forwards its argument
    (re-activating a frozen application), variable-body constructors
    return the binding of their single free variable likewise, and every
    abstraction/application body rewrites to its main image.
    """
    if not lam.is_closed(m):
        raise OpenTermError(f"free variables: {lam.free_vars(m)}")
    reg = Registry()
    identity = reg.register(lam.Abs("z", lam.Var("z")))
    for sub in _abstraction_subterms(m):
        reg.register(sub)
    term = _image_term(m, reg, CAPP)
    names = list(reg.by_name)
    rules: list[crs.Rule] = []
    # identity: unfreeze or return its argument
    rules.append(crs.Rule(APP, (crs.Node(identity.name),
                                crs.Node(CAPP, (crs.Var("w"), crs.Var("f")))),
                          crs.Node(APP, (crs.Var("w"), crs.Var("f")))))
    for name in names:
        con = reg.by_name[name]
        argvars = tuple(crs.Var(f"v{i+1}") for i in range(con.arity))
        rules.append(crs.Rule(APP, (crs.Node(identity.name), crs.Node(name, argvars)),
                              crs.Node(name, argvars)))
    # variable bodies other than the binder: return the stored binding
    for name in names:
        con = reg.by_name[name]
        if isinstance(con.body, lam.Var) and con.body.name != con.binder:
            vb = crs.Node(name, (crs.Node(CAPP, (crs.Var("f"), crs.Var("g"))),))
            rules.append(crs.Rule(APP, (vb, crs.Var("h")),
                                  crs.Node(APP, (crs.Var("f"), crs.Var("g")))))
            for name2 in names:
                con2 = reg.by_name[name2]
                argvars = tuple(crs.Var(f"v{i+1}") for i in range(con2.arity))
                rules.append(crs.Rule(
                    APP, (crs.Node(name, (crs.Node(name2, argvars),)), crs.Var("h")),
                    crs.Node(name2, argvars)))
    # abstraction and application bodies: beta via the main image
    for name in names:
        con = reg.by_name[name]
        if not isinstance(con.body, lam.Var):
            lhs = (crs.Node(name, tuple(crs.Var(v) for v in con.free)), crs.Var(con.binder))
            rules.append(crs.Rule(APP, lhs, _image_term(con.body, reg, CAPP)))
    admin = crs.Rule(APP, (crs.Node(CAPP, (crs.Var("x"), crs.Var("y"))), crs.Var("z")),
                     crs.Node(APP, (crs.Node(APP, (crs.Var("x"), crs.Var("y"))), crs.Var("z"))))
    rules.append(admin)
    assert list(reg.by_name) == names
    sig = crs.Signature({CAPP: 2, **{c.name: c.arity for c in reg.by_name.values()}}, {APP: 2})
    return PsiImage(term, crs.validate_system(sig, rules), reg, m, admin)


def psi_is_canonical(t: crs.Term, sig: crs.Signature, reg: Registry) -> bool:
    """Abstraction-constructor term, or app of a canonical term and a
    constructor term (a frozen capp at the root is not canonical)."""
    while True:
        if isinstance(t, crs.Var):
            return False
        if t.symbol in reg.by_name:
            return not crs.contains_function(t, sig)
        if t.symbol != APP:
            return False
        if not crs.is_constructor_term(t.children[1], sig):
            return False
        t = t.children[0]


# --- instrumented runs -------------------------------------------------------------

@dataclass
class PhiRun:
    outcome: crs.CrsOutcome
    readback_nf: Optional[lam.Term]


def run_phi(image: PhiImage, budget: int = 10_000) -> PhiRun:
    """Reduce the image, with canonicity and constructor provenance
    checked once per image, where the simulation closes them.

    Provenance: the input term and every rule's rhs name only registered
    constructors (and app).  A step copies bindings out of the term and
    adds only rhs symbols, so every reached term does too.  Canonicity:
    the input is canonical, and so is every rule's rhs with its variables
    standing for the constructor values the machine binds them to.  In a
    canonical term a redex has only app nodes above it, and a step leaves
    that context as it is, so every reached term is canonical.  A step
    therefore costs no whole-term work."""
    sig = image.system.signature
    reg = image.registry
    for t in (image.term, *(rule.rhs for rule in image.system.rules)):
        assert check_provenance(t, reg), "unregistered constructor"
        assert is_canonical(t, sig), "canonicity lost"
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


def _admin_rule_ok(rule: crs.Rule, reg: Registry) -> bool:
    # Linear and keeping each variable once, so an instance's rhs has one
    # more app than its lhs exactly when the patterns do; readback is
    # compositional, so every instance reads back alpha-equal to its lhs
    # when the patterns do, their variables read as free lambda variables.
    lhs = crs.Node(rule.head, rule.lhs)
    return (sorted(crs.variables(rule.rhs)) == sorted(crs.variables(lhs))
            and crs.count_symbol(rule.rhs, APP) == crs.count_symbol(lhs, APP) + 1
            and lam.alpha_eq(readback(lhs, reg, variables=True),
                             readback(rule.rhs, reg, variables=True)))


def run_psi(image: PsiImage, budget: int = 10_000) -> PsiRun:
    """Reduce the CBN image, counting administrative and ordinary steps.

    An administrative step must keep the readback fixed and add exactly
    one occurrence of app.  Both are properties of the administrative
    rule, checked once per image: it is linear and keeps each of its
    variables once, its rhs has one more app than its lhs (head counted),
    and the two read back alpha-equal with their variables read as free
    lambda variables.  These carry over to every instance, and a step
    leaves the context of its redex as it is, so to every reached term.
    So the run takes no step hook: the administrative steps are the
    firings of the rule's position, read from the outcome."""
    assert _admin_rule_ok(image.admin_rule, image.registry), \
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
