"""`obvious._falsified` on an instance's NNF agrees with a Kleene
three-valued evaluation of the formula as written: putting a ground
formula in NNF and then asking whether it is false on a branch view
answers what evaluating the formula itself, with an atom that has no
value on the view counted unknown, would answer."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from tptp2miz import fol, obvious

A, B = fol.App("a"), fol.App("b")
LEAVES = [
    fol.Atom("p", (A,)),
    fol.Atom("p", (B,)),
    fol.Atom("q"),
    fol.Eq(A, B),
    fol.Forall(("Z",), fol.Atom("r", (A, fol.Var("Z")))),
]


def kleene(f, view, registry):
    """f's value on the view, True, False or None for unknown, read
    connective by connective from the formula as written."""
    kind = type(f)
    if kind is fol.Verum or kind is fol.Falsum:
        return kind is fol.Verum
    if kind is fol.Not:
        value = kleene(f.body, view, registry)
        return None if value is None else not value
    if kind is fol.And or kind is fol.Or:
        values = [kleene(p, view, registry) for p in f.parts]
        if kind is fol.And:
            return False if False in values else None if None in values else True
        return True if True in values else None if None in values else False
    if kind is fol.Implies:
        left, right = kleene(f.left, view, registry), kleene(f.right, view, registry)
        if left is False or right is True:
            return True
        return False if left is True and right is False else None
    if kind is fol.Iff:
        left, right = kleene(f.left, view, registry), kleene(f.right, view, registry)
        return None if left is None or right is None else left == right
    return view.value(registry.atom_key(f), registry)


def formulas():
    leaves = st.sampled_from(LEAVES + [fol.TRUE, fol.FALSE])

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            children.map(fol.Not),
            st.lists(children, min_size=2, max_size=3).map(lambda ps: fol.join(fol.And, ps)),
            st.lists(children, min_size=2, max_size=3).map(lambda ps: fol.join(fol.Or, ps)),
            pairs.map(lambda lr: fol.Implies(*lr)),
            pairs.map(lambda lr: fol.Iff(*lr)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def view_of(assignment):
    """A registry and the view of the partial assignment, which maps
    indices into LEAVES to truth values."""
    registry = obvious._Registry()
    branch = {registry.atom_key(LEAVES[i]): value for i, value in assignment.items()}
    return registry, obvious._make_branch_view(branch, registry)


def agrees(f, assignment):
    registry, view = view_of(assignment)
    if view is None:
        return None  # congruence makes the assignment contradictory
    expected = kleene(f, view, registry) is False
    assert obvious._falsified(obvious._nnf(f), view, registry, {}) is expected
    return expected


@given(formulas(), st.dictionaries(st.integers(0, len(LEAVES) - 1), st.booleans()))
@settings(max_examples=400, deadline=None)
def test_nnf_then_evaluate_is_kleene_falsity(f, assignment):
    assume(agrees(f, assignment) is not None)


P_A, P_B, Q, A_IS_B, ALL_R = LEAVES


@pytest.mark.parametrize("f, assignment, false", [
    # an unknown atom leaves both a contradiction and a tautology unknown
    (fol.join(fol.And, [P_A, fol.Not(P_A)]), {}, False),
    (fol.join(fol.Or, [P_A, fol.Not(P_A)]), {}, False),
    (fol.Iff(P_A, Q), {0: True}, False),
    (fol.Iff(P_A, Q), {0: True, 2: False}, True),
    # p(b) is read through a = b as p(a)
    (fol.Implies(A_IS_B, P_B), {0: False, 3: True}, True),
    (fol.Not(fol.Implies(Q, ALL_R)), {4: True}, True),
    (fol.Not(fol.Eq(A, A)), {}, True),
])
def test_examples(f, assignment, false):
    assert agrees(f, assignment) is false
