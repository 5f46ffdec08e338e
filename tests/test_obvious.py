import pytest
from hypothesis import given, settings, strategies as st

from tptp2miz import fol, obvious, tptp
from tptp2miz.obvious import Verdict, is_obvious

import helpers
import oracle


def F(text):
    return tptp.parse_problem(f"fof(x,axiom,{text}).")[0].formula


def query(premises, conclusion):
    return [F(p) for p in premises], F(conclusion)


class TestBasicVerdicts:
    def test_identity(self):
        v = is_obvious(*query(["p(c)"], "p(c)"))
        assert v.is_obvious
        assert v.selection == ({},)

    def test_modus_ponens(self):
        v = is_obvious(*query(["![X]:(p(X)=>q(X))", "p(c)"], "q(c)"))
        assert v.is_obvious
        assert v.selection[0] == {"X": fol.App("c")}

    def test_non_consequence(self):
        assert is_obvious(*query(["p(c)"], "q(c)")).kind is Verdict.NOT_OBVIOUS

    def test_existential_intro(self):
        assert is_obvious(*query(["p(c)"], "?[Y]:p(Y)")).is_obvious

    def test_universal_conclusion(self):
        assert is_obvious(*query(["![X]:p(X)"], "![Y]:p(Y)")).is_obvious

    def test_contradictory_premises(self):
        assert is_obvious(*query(["p(c)", "~p(c)"], "$false")).is_obvious

    def test_conjunction_elimination(self):
        assert is_obvious(*query(["p(c) & q(c)"], "q(c)")).is_obvious


class TestOneInstancePerPremise:
    def test_two_instances_needed_is_not_obvious(self):
        v = is_obvious(
            *query(["![X]:(p(X)=>p(f(X)))", "p(c)"], "p(f(f(c)))")
        )
        assert v.kind is Verdict.NOT_OBVIOUS

    def test_single_instance_suffices(self):
        assert is_obvious(
            *query(["![X]:(p(X)=>p(f(X)))", "p(c)"], "p(f(c))")
        ).is_obvious

    def test_formula_level_resolution_not_obvious(self):
        # disjunctive instances may not be chained through propositionally
        v = is_obvious(
            *query(
                ["![X]:(~l(X)|d(X))", "![X]:![Y]:(~l(X)|~d(X)|~d(Y))"],
                "![X]:![Y]:(~l(X)|~d(Y))",
            )
        )
        assert v.kind is Verdict.NOT_OBVIOUS

    def test_instance_level_resolution_obvious(self):
        v = is_obvious(
            *helpers.fixed_query(
                [F("~l(X)|d(X)"), F("~l(X)|~d(X)|~d(Y)")],
                F("~l(X)|~d(Y)"),
                ("X", "Y"),
            )
        )
        assert v.is_obvious


class TestEqualityReasoning:
    def test_rewriting_under_congruence(self):
        v = is_obvious(
            *query(["![X]:~hates(X,esk2(X))", "esk2(b)=b"], "~hates(b,b)")
        )
        assert v.is_obvious
        assert v.selection[0] == {"X": fol.App("b")}

    def test_case_split_with_equalities(self):
        v = is_obvious(
            *query(
                ["hates(e,a)", "e=a|e=b|e=c"],
                "hates(c,a)|e=b|e=a",
            )
        )
        assert v.is_obvious

    def test_symmetry(self):
        assert is_obvious(*query(["a=b"], "b=a")).is_obvious

    def test_transitivity(self):
        assert is_obvious(*query(["a=b", "b=c"], "a=c")).is_obvious


class TestCongruence:
    def test_unseen_compound_term_joins_the_class_of_its_signature(self):
        a, b = fol.App("a"), fol.App("b")
        fa, fb = fol.App("f", (a,)), fol.App("f", (b,))
        cc = obvious._Congruence([fa, b], [(a, b)])
        assert cc.term_class(fb) == cc.term_class(fa)
        assert cc.term_class(fol.App("g", (b,))) == fol.App("g", (b,)).key
        assert cc.term_class(fol.App("f", (fol.App("d"),))) != cc.term_class(fa)


class TestBudget:
    def test_tiny_budget_gives_unknown(self):
        q = query(["![X]:(p(X)=>q(X))", "p(c)"], "q(c)")
        assert is_obvious(*q, budget=obvious.Budget(1)).kind is Verdict.UNKNOWN

    def test_budget_monotone(self):
        # growing the budget can only move Unknown toward a real verdict
        q = query(["![X]:(p(X)=>q(X))", "p(c)"], "q(c)")
        seen = []
        for budget in (1, 10, 100, 10_000):
            seen.append(is_obvious(*q, budget=obvious.Budget(budget)).kind)
        settled = [k for k in seen if k is not Verdict.UNKNOWN]
        assert settled and all(k == settled[0] for k in settled)
        assert seen[-1] is Verdict.OBVIOUS


class TestBruteForce:
    def test_valid_entailment(self):
        assert oracle.brute_force_entails(
            [F("![X]:(p(X)=>q(X))"), F("p(c)")], F("q(c)"), 2
        )

    def test_invalid_entailment(self):
        assert not oracle.brute_force_entails([F("p(c)")], F("q(c)"), 2)

    def test_domain_size_one_can_collapse(self):
        # with a single element a=b holds, so the entailment passes at n=1
        assert oracle.brute_force_entails([], F("a=b"), 1)
        assert not oracle.brute_force_entails([], F("a=b"), 2)

    def test_signature_too_large(self):
        premises = [F("s(q1(X,Y),q2(X,Y))") for _ in range(1)]
        big = [F("p1(f1(X),f2(X),f3(X),f4(X),f5(X))")]
        with pytest.raises(oracle.SignatureTooLarge):
            oracle.brute_force_entails(big, F("$true"), 3, cap=1000)


class TestSoundnessSample:
    @given(st.integers(0, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_obvious_implies_entailment(self, seed):
        rng = helpers.make_rng(seed)
        premises = [
            helpers.random_quantified(rng) for _ in range(rng.randint(1, 3))
        ]
        conclusion = helpers.random_quantified(rng)
        verdict = is_obvious(premises, conclusion, budget=obvious.Budget(2000))
        if verdict.is_obvious:
            for n in (1, 2, 3):
                assert oracle.brute_force_entails(premises, conclusion, n)
