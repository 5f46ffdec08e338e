import pytest

from tptp2miz import cli, derivation, expand, fol, obvious, tptp
from tptp2miz.errors import ExpansionFailed
from tptp2miz.obvious import ObviousnessQuery

import helpers


def F(text):
    return tptp.parse_problem(f"fof(x,axiom,{text}).")[0].formula


def C(text):
    return tptp.parse_problem(f"cnf(x,axiom,{text}).")[0].formula


def verify_subproof(sp, parent_formulas):
    """Postcondition: the conclusion is obvious from the chosen instances
    plus the ground parents, with the sub-proof's variables fixed."""
    ground = [
        p for p in parent_formulas
        if not isinstance(fol.universal_closure(p), fol.Forall)
    ]
    premises = ground + [s.formula for s in sp.instances]
    q = ObviousnessQuery.make(
        premises, sp.conclusion, fixed_vars=sp.fixed_variables
    )
    assert obvious.is_obvious(q).is_obvious


def subproof(name, conclusion, parents, hint=None):
    """build_subproof with a fresh budget of the default size and a
    premise memo of its own."""
    with obvious.PremiseMemo() as memo:
        return expand.build_subproof(name, conclusion, parents,
                                     obvious.Budget(obvious.DEFAULT_BUDGET), hint or {}, memo)


class TestResolutionExample:
    def test_formula_level_step_expands(self):
        p1 = F("![X]:(~l(X)|d(X))")
        p2 = F("![X]:![Y]:(~l(X)|~d(X)|~d(Y))")
        conclusion = F("~l(X)|~d(Y)")
        sp = subproof("s", conclusion, [p1, p2])
        assert sp.fixed_variables == ("X", "Y")
        assert [s.label for s in sp.instances] == ["A", "B"]
        assert [s.parent_index for s in sp.instances] == [0, 1]
        # instance of premise 1 at the fixed X
        assert fol.debruijn(sp.instances[0].formula) == fol.debruijn(
            F("~l(X)|d(X)")
        )
        verify_subproof(sp, [p1, p2])


class TestInstanceSelection:
    def test_ground_parents_need_no_instances(self):
        sp = subproof(
            "s", F("q(c)"), [F("p(c)"), F("![X]:(p(X)=>q(X))")]
        )
        assert [s.parent_index for s in sp.instances] == [1]
        verify_subproof(sp, [F("p(c)"), F("![X]:(p(X)=>q(X))")])

    def test_hint_is_respected(self):
        parent = F("![X]:(p(X)=>q(X))")
        sp = subproof(
            "s", F("q(c)"), [parent, F("p(c)")], hint={"X": fol.App("c")}
        )
        inst = sp.instances[0].formula
        assert fol.debruijn(inst) == fol.debruijn(F("p(c)=>q(c)"))

    def test_duplicated_parent_when_one_instance_is_not_enough(self):
        parent = F("![X]:(p(X)=>p(f(X)))")
        sp = subproof(
            "s", F("p(f(f(c)))"), [parent, F("p(c)")]
        )
        indexes = [s.parent_index for s in sp.instances]
        assert indexes.count(0) == 2
        forms = {fol.debruijn(s.formula) for s in sp.instances}
        assert fol.debruijn(F("p(c)=>p(f(c))")) in forms
        assert fol.debruijn(F("p(f(c))=>p(f(f(c)))")) in forms
        verify_subproof(sp, [parent, F("p(c)")])


class TestFailure:
    def test_non_consequence_fails(self):
        with pytest.raises(ExpansionFailed) as info:
            subproof("bad_step", F("q(c)"), [F("p(c)")])
        assert info.value.step_name == "bad_step"

    def test_quantified_conclusion_offers_no_atoms(self):
        # Atoms under the conclusion's own quantifier are no candidates: an
        # instance at the constant that fixes its variable cannot be written.
        with pytest.raises(ExpansionFailed):
            subproof("s", F("![X]: (p(X) | q(X))"),
                                  [F("![Y]: (p(Y) | r(Y))"), F("![Z]: (~r(Z) | q(Z))")])

    def test_instances_outside_term_universe_fail(self):
        # the needed witness term appears nowhere in the step's formulas
        with pytest.raises(ExpansionFailed):
            subproof(
                "s", F("$false"), [F("![X]:~p(X)"), F("?[Y]:p(g(Y))")]
            )


class TestFillUniverse:
    """A residual variable of an instance is filled from the ground terms
    of the step as written, then the conclusion's own variables: never
    from the checker's designated constant, which no article can write.
    Each step is justified as build_article justifies it, by the justify
    query and then its expansion, spending from one budget."""

    CASES = {
        "ground-filler": (
            ["r(X,b)|p(f(c))", "~s|~r(X2,b)", "~s|~t(Y)", "s"], "p(f(c))|~s",
            [(0, "r(b,b)|p(f(c))"), (1, "~s|~r(b,b)"), (2, "~s|~t(b)")], 36),
        "ground-filler-after-search": (
            ["t(c)|s", "p(Y2)|~p(a)", "~r(X,f(Y))", "p(a)|r(f(X),b)"], "r(f(a),b)|p(f(a))",
            [(1, "p(f(a))|~p(a)"), (2, "~r(a,f(a))"), (3, "p(a)|r(f(a),b)")], 116),
        "conclusion-variable-last": (
            ["r(f(a),Y)|p(X)", "q(X)|t(f(a))|~t(Y)|s", "~t(f(a))|p(Z2)|~p(b)", "t(b)"],
            "~t(X1)|s|q(X1)|p(a)|~p(b)",
            [(0, "r(f(a),a)|p(a)"), (1, "q(X1)|t(f(a))|~t(X1)|s"),
             (2, "~t(f(a))|p(a)|~p(b)")], 223),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_instances_and_budget(self, case):
        parents, conclusion, expected, used = self.CASES[case]
        parents, conclusion = [C(p) for p in parents], C(conclusion)
        budget = obvious.Budget(obvious.DEFAULT_BUDGET)
        with obvious.PremiseMemo() as memo:
            query = ObviousnessQuery.make(parents, conclusion)
            assert not obvious.is_obvious(query, memo, budget).is_obvious
            sp = expand.build_subproof("s", conclusion, parents, budget, {}, memo)
        assert [(s.parent_index, tptp.format_formula(s.formula)) for s in sp.instances] == [
            (i, tptp.format_formula(C(text))) for i, text in expected]
        assert budget.used == used
        verify_subproof(sp, parents)


class TestRecordBindings:
    def test_bindings_extracted(self):
        unit = tptp.parse_problem(
            "cnf(c, plain, p(c), inference(spm,[status(thm)],"
            "[c1 : [bind(X2, $fot(b))]]))."
        )[0]
        hint = expand.substitution_from_inference_record(unit.source)
        assert hint == {"X2": fol.App("b")}

    def test_non_inference_source_gives_empty(self):
        assert expand.substitution_from_inference_record(None) == {}
        assert (
            expand.substitution_from_inference_record(tptp.FileSource("x")) == {}
        )


class TestOneBudgetPerStep:
    """build_article gives each step one Budget of --budget units: the
    step's justification query and its expansion both spend from it.  The
    closing step's query gets one too."""

    # s1 needs two instances of ax1, so only a sub-proof justifies it
    DERIVATION = (
        "fof(ax1, axiom, ![X]: (p(X) => p(f(X))), file('x.p', ax1)).\n"
        "fof(ax2, axiom, p(c), file('x.p', ax2)).\n"
        "fof(goal, conjecture, p(f(f(c))), file('x.p', goal)).\n"
        "fof(neg, negated_conjecture, ~ p(f(f(c))), "
        "inference(assume_negation, [status(cth)], [goal])).\n"
        "fof(s1, plain, p(f(f(c))), inference(r, [status(thm)], [ax1, ax2])).\n"
        "fof(s2, plain, $false, inference(r, [status(thm)], [s1, neg])).\n"
    )

    def step_budgets(self, monkeypatch):
        """The Budgets made while the article is built at the default
        budget, and the number of steps justified, the closing one included."""
        made = []
        init = obvious.Budget.__init__

        def recording_init(self, limit):
            init(self, limit)
            made.append(self)

        monkeypatch.setattr(obvious.Budget, "__init__", recording_init)
        graph = derivation.build_graph(tptp.parse_problem(self.DERIVATION))
        model, _ = helpers.finished_article(graph)
        assert [item.subproof is not None for item in model.all_steps()] == [True]
        return made, len(model.all_steps()) + 1

    def test_one_budget_bounds_each_step(self, monkeypatch):
        made, steps = self.step_budgets(monkeypatch)
        assert len(made) == steps
        assert all(b.limit == obvious.DEFAULT_BUDGET for b in made)
        assert all(0 < b.used <= b.limit for b in made)

    def test_too_small_a_budget_fails_the_step(self, monkeypatch, tmp_path, capsys):
        made, _ = self.step_budgets(monkeypatch)
        need = max(b.used for b in made)
        path = tmp_path / "in.out"
        path.write_text(self.DERIVATION)
        for budget in (need, need - 1):
            code = cli.main(["derivation", str(path), "-o", str(tmp_path),
                             "--no-compress", "--budget", str(budget)])
            err = capsys.readouterr().err
            if budget == need:
                assert code == 0, err
            else:
                assert code == 2 and err.startswith("error: ExpansionFailed: ")
