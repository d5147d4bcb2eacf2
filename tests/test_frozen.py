"""The five term classes are slotted and stay frozen: fields cannot be
assigned or deleted, copies and pickles are equal terms, and repr, ==,
hash and pattern matching read as on the frozen dataclasses they
replace: a term equals only a term of its own class."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from normbench import crs, lam
from normbench.frozen import distinct_nodes
from tests_util import same_structure

# each class with a term of it, its fields, and the repr text the frozen
# dataclass printed for that term
CASES = [
    (lam.Var, lam.Var("x"), ("name",), "Var(name='x')"),
    (lam.Abs, lam.Abs("x", lam.Var("x")), ("binder", "body"),
     "Abs(binder='x', body=Var(name='x'))"),
    (lam.App, lam.App(lam.Abs("y", lam.Var("y")), lam.Var("z")), ("fun", "arg"),
     "App(fun=Abs(binder='y', body=Var(name='y')), arg=Var(name='z'))"),
    (crs.Var, crs.Var("x'"), ("name",), "Var(name=\"x'\")"),
    (crs.Node, crs.Node("s", (crs.Node("z"),)), ("symbol", "children"),
     "Node(symbol='s', children=(Node(symbol='z', children=()),))"),
]


@pytest.mark.parametrize("cls, term, fields, text", CASES)
def test_fields_cannot_be_assigned_or_deleted(cls, term, fields, text):
    for f in fields:
        before = getattr(term, f)
        with pytest.raises(FrozenInstanceError):
            setattr(term, f, before)
        with pytest.raises(FrozenInstanceError):
            delattr(term, f)
        assert getattr(term, f) is before
    with pytest.raises(FrozenInstanceError):
        term.other = 1


@pytest.mark.parametrize("cls, term, fields, text", CASES)
def test_slots_and_match_args(cls, term, fields, text):
    assert not hasattr(term, "__dict__")
    assert cls.__match_args__ == fields
    match term:
        case cls(a):
            assert a == getattr(term, fields[0])
        case cls(a, b):
            assert (a, b) == tuple(getattr(term, f) for f in fields)
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("cls, term, fields, text", CASES)
def test_copy_and_pickle_give_an_equal_term(cls, term, fields, text):
    for other in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert type(other) is cls
        assert other == term and hash(other) == hash(term)
    assert all(getattr(copy.copy(term), f) is getattr(term, f) for f in fields)


@pytest.mark.parametrize("cls, term, fields, text", CASES)
def test_terms_of_different_classes_are_never_equal(cls, term, fields, text):
    # each class's term against every other class's, both ways, and
    # against terms of other classes that have the same field values
    for other_cls, other, *_ in CASES:
        if other_cls is cls:
            continue
        assert term != other and other != term
        assert not term == other and not other == term
        if other_cls.__match_args__ == fields:
            twin = other_cls(*(getattr(term, f) for f in fields))
            assert term != twin and twin != term
    assert term == cls(*(getattr(term, f) for f in fields))


@pytest.mark.parametrize("cls, term, fields, text", CASES)
def test_a_term_and_a_non_term_compare_by_not_implemented(cls, term, fields, text):
    for value in (None, 0, "x", (), (term,), [term], object()):
        assert term.__eq__(value) is NotImplemented
        assert term != value and value != term


def test_copy_and_pickle_keep_sharing_and_foreign_fields():
    x = lam.Abs("x", lam.Var("x"))
    s = crs.Node("s", (crs.Var("y"),))
    for t in (lam.App(x, lam.App(x, x)), crs.Node("f", (s, s, crs.Node("g", (s,)))),
              crs.Node("f", ("x", 1, ())), crs.Node("f", [crs.Var("x"), None])):
        for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert other is not t and other == t and repr(other) == repr(t)
            if type(t) is lam.App:
                assert other.fun is other.arg.fun is other.arg.arg
            elif type(t.children[0]) is crs.Node:
                assert other.children[0] is other.children[1] is other.children[2].children[0]


@pytest.mark.parametrize("cls, term, fields, text", CASES)
def test_repr_is_the_dataclass_text(cls, term, fields, text):
    assert repr(term) == text
    assert repr(term) == f"{cls.__name__}({', '.join(f'{f}={getattr(term, f)!r}' for f in fields)})"


def test_repr_of_nodes_with_several_or_foreign_children():
    t = crs.Node("c", (crs.Var("x"), crs.Node("z"), crs.Node("nil", ())))
    assert repr(t) == ("Node(symbol='c', children=(Var(name='x'), Node(symbol='z', children=()),"
                       " Node(symbol='nil', children=())))")
    # a child that is not a term prints as itself
    assert repr(crs.Node("f", ("x", 1))) == "Node(symbol='f', children=('x', 1))"
    assert repr(crs.Node("f", [crs.Var("x")])) == "Node(symbol='f', children=[Var(name='x')])"
    assert repr(crs.Node(symbol="f")) == "Node(symbol='f', children=())"


def test_same_structure_tells_term_kinds_and_fires_apart():
    assert same_structure((lam.Var("x"), crs.Node("z")), (lam.Var("x"), crs.Node("z")))
    assert not same_structure(lam.Var("x"), crs.Var("x"))
    assert not same_structure([crs.Node("f", (crs.Var("x"),))], [crs.Node("f", (lam.Var("x"),))])
    a = crs.CrsOutcome("constructor", crs.Node("z"), 2, (1, 1))
    b = crs.CrsOutcome("constructor", crs.Node("z"), 2, (2, 0))
    assert a == b and not same_structure(a, b)
    assert same_structure(a, crs.CrsOutcome("constructor", crs.Node("z"), 2, (1, 1)))


# per kind: the leaf, a binary node, a unary one, and another leaf
KINDS = {
    "lam": (lam.Var("x"), lam.App, lambda t: lam.Abs("y", t), lam.Var("w")),
    "crs": (crs.Node("z"), lambda a, b: crs.Node("pair", (a, b)),
            lambda t: crs.Node("s", (t,)), crs.Node("o")),
}


@pytest.mark.parametrize("kind", KINDS)
def test_sharing_does_not_change_equality_or_hash(kind):
    # a 12-level DAG whose children are one object, against its unfolding
    # built with a new object per occurrence: equal both ways and hash
    # equal; an unfolding whose leftmost leaf, one of the deepest, differs
    # is not equal
    leaf, binary, unary, other_leaf = KINDS[kind]
    levels = 12
    dag = leaf
    for i in range(levels):
        half = unary(dag) if i % 2 else dag
        dag = binary(half, half)

    def tree(n, first_leaf):
        if n == 0:
            return copy.copy(first_leaf)
        left, right = tree(n - 1, first_leaf), tree(n - 1, leaf)
        if (n - 1) % 2:
            left, right = unary(left), unary(right)
        return binary(left, right)

    same, other = tree(levels, leaf), tree(levels, other_leaf)
    assert len(list(distinct_nodes(dag))) == levels + levels // 2 + 1
    assert len(list(distinct_nodes(same))) > 2 ** levels
    assert dag == same and same == dag and hash(dag) == hash(same)
    assert dag != other and other != dag and not dag == other
