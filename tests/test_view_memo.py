"""The per-query memos: within one query, each branch view is built once
per distinct assignment, each instance is made and put in NNF once, and
the article does not change.  Within one evaluation of an instance's NNF,
each shared node is read once."""

import collections
import os

from tptp2miz import article, derivation, fol, obvious, tptp

import helpers
from conftest import FIXTURES


def test_fixture_builds_each_view_once(monkeypatch):
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    model, manifest = helpers.finished_article(derivation.build_graph(units))

    original_is_obvious = obvious.is_obvious
    original_branches = obvious._dpll_branches
    original_view = obvious._make_branch_view
    query = [0]
    builds = [0]
    # (query, assignment as a set of (atom key, value)) pairs
    branches, distinct, open_branches = set(), set(), set()

    def is_obvious(*args, **kwargs):
        query[0] += 1
        return original_is_obvious(*args, **kwargs)

    def dpll_branches(clauses, budget):
        found = original_branches(clauses, budget)  # None: refuted at the root
        branches.update((query[0], frozenset(b.items())) for b in found or ())
        return found

    def make_branch_view(assignment, registry):
        builds[0] += 1
        triple = (query[0], frozenset(assignment.items()))
        distinct.add(triple)
        view = original_view(assignment, registry)
        if view is not None and triple in branches:
            open_branches.add(triple)
        return view

    monkeypatch.setattr(obvious, "is_obvious", is_obvious)
    monkeypatch.setattr(obvious, "_dpll_branches", dpll_branches)
    monkeypatch.setattr(obvious, "_make_branch_view", make_branch_view)
    out, _ = helpers.compressed(model, manifest)

    assert open_branches
    # without the memo this fixture builds 4,154 views for 187 assignments
    assert builds[0] <= len(distinct) + len(open_branches)
    with open(os.path.join(FIXTURES, "puz001+1.miz"), encoding="utf-8") as handle:
        assert article.render_article(out) == handle.read()


def test_fixture_normalizes_each_instance_once(monkeypatch):
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    model, manifest = helpers.finished_article(derivation.build_graph(units))

    original_is_obvious = obvious.is_obvious
    original_instance = obvious.instance_formula
    original_nnf = obvious._nnf
    query = [0]
    made = collections.Counter()  # (query, unit, substitution) -> instances made
    normalized = collections.Counter()  # the same -> normal forms of the instance
    instances = {}  # id -> (instance, (query, unit, substitution))

    def is_obvious(*args, **kwargs):
        query[0] += 1
        return original_is_obvious(*args, **kwargs)

    def instance_formula(unit, subst):
        inst = original_instance(unit, subst)
        triple = (query[0], id(unit), tuple(sorted((v, t.key) for v, t in subst.items())))
        made[triple] += 1
        instances[id(inst)] = (inst, triple)
        return inst

    def nnf(f):
        hit = instances.get(id(f))
        if hit is not None and hit[0] is f:
            normalized[hit[1]] += 1
        return original_nnf(f)

    monkeypatch.setattr(obvious, "is_obvious", is_obvious)
    monkeypatch.setattr(obvious, "instance_formula", instance_formula)
    monkeypatch.setattr(obvious, "_nnf", nnf)
    out, _ = helpers.compressed(model, manifest)

    assert made and normalized
    assert max(made.values()) == 1
    assert max(normalized.values()) == 1
    with open(os.path.join(FIXTURES, "puz001+1.miz"), encoding="utf-8") as handle:
        assert article.render_article(out) == handle.read()


def nested_iff_instance(n):
    """The NNF of the instance at c of ![X]: with n nested <=> over
    p0(X) ... pn(X), and the view of a branch with p1(c) ... pn(c) true
    and p0(d) false, with the registry of both.  p0(c) has no value on the view, so
    no node of the instance is false, and each <=> is read on both sides."""
    x, c = fol.Var("X"), fol.App("c")
    matrix = fol.Atom("p0", (x,))
    for i in range(1, n + 1):
        matrix = fol.Iff(matrix, fol.Atom(f"p{i}", (x,)))
    unit = obvious.universal_unit(fol.Forall(("X",), matrix))
    registry = obvious._Registry()
    nnf = obvious._nnf(obvious.instance_formula(unit, {"X": c}))
    branch = {registry.atom_key(fol.Atom(f"p{i}", (c,))): True for i in range(1, n + 1)}
    branch[registry.atom_key(fol.Atom("p0", (fol.App("d"),)))] = False
    return nnf, obvious._make_branch_view(branch, registry), registry


class _Forgetful(dict):
    def __setitem__(self, key, value):
        pass


def falsified_calls(monkeypatch, n, memo=True):
    """Whether nested_iff_instance(n) is false on its view, and the calls
    of _falsified that the answer took; without the memo, each call
    forgets what it read."""
    nnf, view, registry = nested_iff_instance(n)
    original = obvious._falsified
    calls = [0]

    def counted(node, view, registry, seen):
        calls[0] += 1
        return original(node, view, registry, seen if memo else _Forgetful())

    with monkeypatch.context() as patch:
        patch.setattr(obvious, "_falsified", counted)
        answer = obvious._falsified(nnf, view, registry, {})
    return answer, calls[0]


def test_nested_iff_instance_is_evaluated_in_linear_time(monkeypatch):
    # the answer equals the evaluation without the memo, which reads the
    # nodes below each <=> twice, 2**(n/2) calls in all
    answer, calls = falsified_calls(monkeypatch, 10)
    reference, reference_calls = falsified_calls(monkeypatch, 10, memo=False)
    assert answer is reference is False
    assert reference_calls > 2 * calls
    # each doubling of the depth at most doubles the calls, up to 18
    # levels, where the walk without the memo made over a million
    for n in (9, 18):
        answer, doubled = falsified_calls(monkeypatch, 2 * n)
        assert answer is False
        assert doubled <= 2 * falsified_calls(monkeypatch, n)[1] + 20
