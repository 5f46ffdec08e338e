import os

import pytest

from tptp2miz import derivation, fol, obvious, skolem, tptp
from tptp2miz.errors import MalformedSkolemStep, MultipleSkolemsUnsupported

import helpers
from conftest import FIXTURES


def graph_of(parent_formula, conclusion_formula):
    units = [
        tptp.AnnotatedFormula(
            "par", "fof", "axiom", parent_formula, tptp.FileSource("par", "x.p")
        ),
        tptp.AnnotatedFormula(
            "sk",
            "fof",
            "plain",
            conclusion_formula,
            tptp.InferenceRecord("skolemize", ("par",), "esa"),
        ),
    ]
    return derivation.build_graph(units)


def F(text):
    return tptp.parse_problem(f"fof(x,axiom,{text}).")[0].formula


class TestValidation:
    def test_single_skolem_found(self):
        g = graph_of(F("?[Y]:p(Y)"), F("p(esk1_0)"))
        sym = skolem.validate_single_skolem("sk", g)
        assert (sym.name, sym.arity) == ("esk1_0", 0)

    def test_two_skolems_rejected(self):
        g = graph_of(
            F("?[Y]:?[Z]:r(Y,Z)"), F("r(esk1_0,esk2_0)")
        )
        with pytest.raises(MultipleSkolemsUnsupported) as info:
            skolem.validate_single_skolem("sk", g)
        assert len(info.value.symbols) == 2

    def test_no_fresh_symbol_rejected(self):
        g = graph_of(F("?[Y]:p(Y)"), F("p(c)"))
        # c counts as fresh here (not in the parent), so build a real no-op
        g2 = graph_of(F("p(c)"), F("p(c)"))
        with pytest.raises(MalformedSkolemStep):
            skolem.validate_single_skolem("sk", g2)

    def test_multi_parent_rejected(self):
        units = [
            tptp.AnnotatedFormula("a", "fof", "axiom", F("p(c)"), tptp.FileSource("a", "x.p")),
            tptp.AnnotatedFormula("b", "fof", "axiom", F("q(c)"), tptp.FileSource("b", "x.p")),
            tptp.AnnotatedFormula(
                "sk", "fof", "plain", F("p(esk1_0)"),
                tptp.InferenceRecord("skolemize", ("a", "b")),
            ),
        ]
        g = derivation.build_graph(units)
        with pytest.raises(MalformedSkolemStep):
            skolem.validate_single_skolem("sk", g)


class TestHenkinAxiom:
    def test_shape(self):
        g = graph_of(F("![X]:?[Y]:~hates(X,Y)"), F("![X]:~hates(X,esk2_1(X))"))
        axiom = skolem.make_henkin_axiom("sk", g)
        assert isinstance(axiom, fol.Implies)
        assert axiom.free == ()
        assert fol.alpha_equivalent(axiom.left, F("![X]:?[Y]:~hates(X,Y)"))
        assert fol.alpha_equivalent(axiom.right, F("![X]:~hates(X,esk2_1(X))"))

    def test_step_becomes_obvious_with_axiom(self):
        g = graph_of(F("?[Y]:p(Y)"), F("p(esk1_0)"))
        axiom = skolem.make_henkin_axiom("sk", g)
        query = obvious.ObviousnessQuery.make(
            [F("?[Y]:p(Y)"), axiom], F("p(esk1_0)")
        )
        assert obvious.is_obvious(query).is_obvious


class TestJustifyAll:
    def test_fixture_numbering_is_dense_topological(self):
        units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
        model, manifest = helpers.finished_article(derivation.build_graph(units))
        assert len(manifest.skolem_defs) == 2
        for axiom in manifest.skolem_defs:
            assert axiom.free == ()
        # esk1_0 and esk2_1 become skolem1 and skolem2, numbered in step order
        assert ("skolem1", 0) in manifest.functions
        assert ("skolem2", 1) in manifest.functions
        refs = {item.source_name: item.refs for item in model.all_steps()}
        assert "SKOLEM:def 1" in refs["c_0_13"]
        assert "SKOLEM:def 2" in refs["c_0_16"]
