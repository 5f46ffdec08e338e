import os

import pytest

from tptp2miz import article, derivation, fol, tptp
from tptp2miz.errors import DuplicateName, ExpansionFailed, NoConjecture

import helpers
from conftest import FIXTURES


def fixture_article():
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    graph = derivation.build_graph(units)
    return helpers.finished_article(graph)


def F(text):
    return tptp.parse_problem(f"fof(x,axiom,{text}).")[0].formula


class TestBuildArticle:
    def test_axiom_items(self):
        model, manifest = fixture_article()
        assert len(model.axiom_items) == 10
        assert [i.label for i in model.axiom_items] == [
            f"Ax{k}" for k in range(1, 11)
        ]
        assert [i.refs for i in model.axiom_items] == [
            (f"AXIOMS:{k}",) for k in range(1, 11)
        ]
        assert len(manifest.axioms) == 10

    def test_theorem_and_assumption(self):
        model, _ = fixture_article()
        assert fol.alpha_equivalent(model.theorem, F("killed(agatha,agatha)"))
        assert fol.alpha_equivalent(
            model.diffuse.assumption, F("~killed(agatha,agatha)")
        )

    def test_partition(self):
        model, _ = fixture_article()
        # only the clausified negated conjecture depends on the conjecture
        assert len(model.diffuse.inner_steps) == 1
        assert all(i.label.startswith("S") for i in model.lemma_items)
        labels = [i.label for i in model.lemma_items]
        assert labels == [f"S{k}" for k in range(1, len(labels) + 1)]
        assert model.diffuse.assumption_label == f"S{len(labels) + 1}"

    def test_skolem_steps_cite_defs(self):
        model, manifest = fixture_article()
        assert len(manifest.skolem_defs) == 2
        cites = [
            i for i in model.all_steps()
            if any(r.startswith("SKOLEM:def") for r in i.refs)
        ]
        assert len(cites) == 2
        assert ("skolem1", 0) in manifest.functions
        assert ("skolem2", 1) in manifest.functions

    def test_unused_steps_pruned_by_default(self):
        model, _ = fixture_article()
        forms = [fol.debruijn(i.formula) for i in model.all_steps()]
        assert fol.debruijn(F("hates(butler,agatha)")) not in forms

    def test_keep_unused(self):
        units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
        graph = derivation.build_graph(units)
        model, _ = helpers.finished_article(graph, keep_unused=True)
        forms = [fol.debruijn(i.formula) for i in model.all_steps()]
        assert fol.debruijn(F("hates(butler,agatha)")) in forms
        # the unused step is never cited
        kept = next(
            i for i in model.all_steps()
            if fol.debruijn(i.formula) == fol.debruijn(F("hates(butler,agatha)"))
        )
        for other in model.all_steps():
            assert kept.label not in other.refs
        assert kept.label not in model.diffuse.contradiction_refs

    def test_every_step_is_obvious_from_citations(self):
        assert helpers.recheck(*fixture_article()) == []

    def test_no_conjecture_raises(self):
        units = tptp.parse_problem(
            "fof(a, axiom, p(c), file('x.p', a)).\n"
            "cnf(f, plain, ($false), inference(sr,[status(thm)],[a]))."
        )
        graph = derivation.build_graph(units)
        with pytest.raises(NoConjecture):
            helpers.finished_article(graph)

    def test_cited_conjecture_is_its_negation(self):
        # s1 is justified from what its citations state in the article:
        # the axiom and the assumption not p(c), which do not give q(c)
        units = tptp.parse_problem(helpers.CONJECTURE_CITED)
        with pytest.raises(ExpansionFailed):
            helpers.finished_article(derivation.build_graph(units))

    def test_skolem_names_skip_the_problem_symbols(self):
        # the problem has a constant skolem1, so esk1_0 becomes skolem2
        units = tptp.parse_problem(
            "fof(a1, axiom, ?[X]: p(X)).\n"
            "fof(a2, axiom, ![X]: (p(X) => q(X))).\n"
            "fof(a3, axiom, ~ p(skolem1)).\n"
            "fof(g, conjecture, ?[X]: q(X)).\n"
            "fof(n, negated_conjecture, ~ ?[X]: q(X), "
            "inference(assume_negation, [status(cth)], [g])).\n"
            "fof(s1, plain, p(esk1_0), inference(skolemize, [status(esa)], [a1])).\n"
            "fof(s2, plain, q(esk1_0), inference(mp, [status(thm)], [s1, a2])).\n"
            "fof(f, plain, $false, inference(r, [status(thm)], [s2, n])).\n"
        )
        model, manifest = helpers.finished_article(derivation.build_graph(units))
        assert manifest.functions == [("skolem1", 0), ("skolem2", 0)]
        assert fol.alpha_equivalent(manifest.skolem_defs[0], F("(?[X]: p(X)) => p(skolem2)"))
        text = article.render_article(model)
        assert "Ax3: not p skolem1 by AXIOMS:3;" in text
        assert "S1: p skolem2 by Ax1,SKOLEM:def 1;" in text
        assert helpers.recheck(model, manifest) == []

    def test_designated_conjecture(self):
        units = tptp.parse_problem(
            "fof(a, axiom, ~p(c), file('x.p', a)).\n"
            "fof(b, axiom, p(c), file('x.p', b)).\n"
            "cnf(f, plain, ($false), inference(sr,[status(thm)],[a, b]))."
        )
        graph = derivation.build_graph(units)
        model, _ = helpers.finished_article(graph, conjecture="a")
        assert fol.alpha_equivalent(model.theorem, F("p(c)"))
        assert fol.alpha_equivalent(model.diffuse.assumption, F("~p(c)"))


class TestRendering:
    def test_axiom_lines_exact(self):
        model, _ = fixture_article()
        text = article.render_article(model)
        assert "Ax1: ex X1 st (lives X1 & killed X1,agatha) by AXIOMS:1;" in text
        assert (
            "Ax2: lives X1 implies (X1 = agatha or X1 = butler or X1 = charles) by AXIOMS:2;"
            in text
        )
        assert "Ax9: ex X2 st (not hates X1,X2) by AXIOMS:9;" in text
        assert "Ax10: not agatha = butler by AXIOMS:10;" in text

    def test_diffuse_block_shape(self):
        model, _ = fixture_article()
        text = article.render_article(model)
        assert "theorem\nkilled agatha,agatha\nproof\n  now" in text
        assert "assume " in text
        assert "thus contradiction by " in text
        assert text.rstrip().endswith("end;")
        assert "hence thesis;" in text

    def test_function_application_style(self):
        model, _ = fixture_article()
        text = article.render_article(model)
        assert "(skolem2 butler)" in text

    def test_deterministic(self):
        a1, m1 = fixture_article()
        a2, m2 = fixture_article()
        assert article.render_article(a1) == article.render_article(a2)
        assert article.render_manifest(m1) == article.render_manifest(m2)

    def test_no_unresolved_references(self):
        model, manifest = fixture_article()
        assert helpers.mizcheck_problems(model, manifest) == []


class TestManifest:
    def test_round_trip(self):
        _, manifest = fixture_article()
        text = article.render_manifest(manifest)
        assert article.parse_manifest(text) == manifest

    def test_empty_manifest(self):
        m = article.EnvironmentManifest([], [], [], [])
        assert article.render_manifest(m) == ""
        assert article.parse_manifest("") == m

    def test_quoted_symbols_round_trip(self):
        m = article.EnvironmentManifest(
            [("odd name", 1)], [("p", 1)], [F("p(c)")], []
        )
        assert article.parse_manifest(article.render_manifest(m)) == m


class TestTranslateProblem:
    def test_flat_article(self):
        units = tptp.parse_problem_file(os.path.join(FIXTURES, "puz001+1.p"))
        model, manifest = article.translate_problem(units)
        assert len(model.axiom_items) == 10
        assert model.pending
        assert not model.lemma_items
        text = article.render_article(model)
        assert "::> pending proof" in text
        assert "theorem\nkilled agatha,agatha;" in text
        assert len(manifest.axioms) == 10
        assert manifest.skolem_defs == []

    def test_axioms_only(self):
        units = tptp.parse_problem("fof(a, axiom, p(c)).")
        model, _ = article.translate_problem(units)
        assert model.theorem is None
        text = article.render_article(model)
        assert "theorem" not in text

    def test_duplicate_names(self):
        units = [
            tptp.AnnotatedFormula("a", "fof", "axiom", F("p(c)")),
            tptp.AnnotatedFormula("a", "fof", "axiom", F("q(c)")),
        ]
        with pytest.raises(DuplicateName):
            article.translate_problem(units)
