"""The check the checker makes before its instance search
(`obvious._no_closing_instance`): it settles a query NotObvious only where
the search would find nothing, it stays off where an instance can close a
branch through congruence or a clashing literal, and it costs linear time
on nested <=>.  Also the search's atom order, which the query alone
fixes."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from tptp2miz import fol, obvious, tptp
from tptp2miz.obvious import Verdict

import helpers
from test_verdict_golden import sample_queries


def F(text):
    return tptp.parse_problem(f"fof(x,axiom,{text}).")[0].formula


def query(premises, conclusion):
    return [F(p) for p in premises], F(conclusion)


def answer(verdict):
    return verdict.kind, verdict.selection, verdict.commitments


def bypassed(monkeypatch, q, budget):
    """The verdict with the check turned off, so that the search always runs."""
    with monkeypatch.context() as patch:
        patch.setattr(obvious, "_no_closing_instance", lambda branches, units: False)
        return obvious.is_obvious(*q, budget=obvious.Budget(budget))


def assert_exact(monkeypatch, q):
    """The check changes no answer, given a budget the search never runs out of."""
    checked = obvious.is_obvious(*q, budget=obvious.Budget(10**6))
    searched = bypassed(monkeypatch, q, 10**6)
    assert searched.kind is not Verdict.UNKNOWN
    assert answer(checked) == answer(searched)
    if checked.reason == "no-closing-instance":
        assert searched.reason == "search-exhausted"
    return checked


def random_query(rng):
    """Premises and a conclusion of the verdict sample's kind, or arbitrary
    formulas, some of them joined by <=>."""
    def formula():
        if rng.random() < 0.5:
            return helpers.random_quantified(rng)
        f = helpers.random_formula(rng, ("X",))
        if rng.random() < 0.3:
            f = fol.Iff(f, helpers.random_formula(rng, ("X",), depth=1))
        return f
    premises = [formula() for _ in range(rng.randint(1, 3))]
    return premises, formula()


class TestExact:
    def test_verdict_sample(self, monkeypatch):
        reasons = set()
        for _, q in sample_queries():
            reasons.add(assert_exact(monkeypatch, q).reason)
        assert {"no-closing-instance", "search-exhausted", "instances"} <= reasons

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_random_queries(self, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_exact(monkeypatch, random_query(helpers.make_rng(seed)))


class TestStaysOff:
    """Queries that are obvious only through what the check must allow."""

    def fired(self, monkeypatch, q):
        answers = []
        original = obvious._no_closing_instance

        def spy(branches, units):
            answers.append(original(branches, units))
            return answers[-1]

        monkeypatch.setattr(obvious, "_no_closing_instance", spy)
        verdict = obvious.is_obvious(*q)
        assert answers == [False]
        return verdict

    def test_equation_literal_unit(self, monkeypatch):
        # the instance f(a) = c makes p(f(a)) and ~p(c) clash by congruence
        q = query(["![X]: f(X) = c", "p(f(a))"], "p(c)")
        assert self.fired(monkeypatch, q).is_obvious

    def test_literal_unit_clashing_with_the_branch(self, monkeypatch):
        assert self.fired(monkeypatch, query(["![X]: p(X)"], "p(c)")).is_obvious

    def test_instance_false_only_through_congruence(self, monkeypatch):
        # c != c is false by reflexivity, with no equation on the branch
        q = query(["![X]: (X != c | p(X))", "~ p(c)"], "$false")
        assert self.fired(monkeypatch, q).is_obvious


def test_non_unit_resolution_step_skips_the_search(monkeypatch):
    searches = []
    original = obvious._Problem._close_all

    def close_all(self, per_branch_units):
        searches.append(1)
        return original(self, per_branch_units)

    monkeypatch.setattr(obvious._Problem, "_close_all", close_all)
    q = query(["![X]: (~ p(X) | q(X))", "![X]: (~ q(X) | r(X))"], "![X]: (~ p(X) | r(X))")
    verdict = obvious.is_obvious(*q)
    assert verdict.kind is Verdict.NOT_OBVIOUS
    assert verdict.reason == "no-closing-instance"
    assert not searches
    # the search, when made, finds nothing either
    assert bypassed(monkeypatch, q, 10**6).reason == "search-exhausted"
    assert searches


def falsifiable_calls(monkeypatch, n):
    """_falsifiable's calls when the check reads ![X]: with n nested <=>."""
    x = fol.Var("X")
    matrix = fol.Atom("p0", (x,))
    for i in range(1, n + 1):
        matrix = fol.Iff(matrix, fol.Atom(f"p{i}", (x,)))
    unit = obvious.universal_unit(fol.Forall(("X",), matrix))
    registry = obvious._Registry()
    c = fol.App("c")
    # p0 both true and false, every other predicate true: then each level
    # reads both polarities of the level below, 2**n paths without the memo
    branch = {registry.atom_key(fol.Atom(f"p{i}", (c,))): True for i in range(n + 1)}
    branch[registry.atom_key(fol.Atom("p0", (fol.App("d"),)))] = False
    calls = [0]
    original = obvious._falsifiable

    def counted(g, present, memo):
        calls[0] += 1
        return original(g, present, memo)

    with monkeypatch.context() as patch:
        patch.setattr(obvious, "_falsifiable", counted)
        assert not obvious._no_closing_instance([branch], [unit])
    return calls[0]


def test_nested_iff_is_shaped_in_linear_time(monkeypatch):
    # each doubling of the depth at most doubles the calls; 10 and 20 come
    # first, so that an exponential walk fails there rather than hang at 40
    start = time.perf_counter()
    calls = [falsifiable_calls(monkeypatch, 10)]
    for n in (20, 40):
        calls.append(falsifiable_calls(monkeypatch, n))
        assert 10 < calls[-2] and calls[-1] <= 2 * calls[-2] + 20
    assert time.perf_counter() - start < 1.0


def test_atom_order_is_the_query_order(monkeypatch):
    """_atoms gives the branch's atoms in assignment order, then the atoms
    of committed literals not on the branch, in commitment order.  That
    order is the query's own: a memo whose registry met other queries'
    atoms first gives the same atom lists, and the units are committed in
    premise order."""
    original = obvious._Problem._atoms
    seen, merged = [], [0]

    def checked(self, index, commitments):
        got = original(self, index, commitments)
        branch = self.branches[index]
        keys = list(branch)
        for c in commitments.values():
            if c.literal is not None and c.literal[0] not in keys:
                keys.append(c.literal[0])
        merged[0] += len(keys) > len(branch)
        atoms = [self.registry.atoms[k] for k in keys]
        assert got == [a for a in atoms if isinstance(a, (fol.Atom, fol.Eq))]
        seen.append(got)
        return got

    def atom_lists(queries, memo):
        seen.clear()
        for q in queries:
            obvious.is_obvious(*q, memo=memo, budget=obvious.Budget(2000))
        return list(seen)

    monkeypatch.setattr(obvious._Problem, "_atoms", checked)
    queries = [q for _, q in sample_queries()]
    alone = atom_lists(queries, None)  # a fresh memo per query
    shared = obvious.PremiseMemo()
    atom_lists(queries[::-1], shared)
    assert atom_lists(queries, shared) == alone and alone
    # literals of several units, committed before the one that closes, in
    # premise order, which is not the order of the units' keys
    names = ["s", "q0", "r1", "p2", "t", "r"]
    q = query([f"![X]: {n}(X)" for n in names], "r(c)")
    verdict = obvious.is_obvious(*q)
    assert verdict.is_obvious
    assert [key[2][1] for key, _ in verdict.commitments] == names
    assert merged[0]


def test_derived_units_reuse_registry_keys(monkeypatch):
    # universal_unit runs once per universal premise, in its preparation,
    # and never again for the branch's own quantified atoms
    calls = []
    original = obvious.universal_unit
    monkeypatch.setattr(obvious, "universal_unit",
                        lambda closed: calls.append(closed) or original(closed))
    q = query(["![X]: (p(X) => q(X))", "![X]: (q(X) => r(X))", "p(c) & (![Y]: s(Y))"],
              "r(c) & s(d)")
    assert not obvious.is_obvious(*q).is_obvious
    assert len(calls) == 3  # the two universal premises and the ground one
