import contextlib
import io
import os

import pytest

from tptp2miz import cli, derivation, fol, obvious, skolem, tptp
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
        assert obvious.is_obvious([F("?[Y]:p(Y)"), axiom], F("p(esk1_0)")).is_obvious


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


# s1 is closed by the instances of a3 and a4 at c, with p(c), or at esk1_0,
# with s0; the prover's bind hint picks esk1_0
HINTED = (
    "fof(a1, axiom, ?[Y]: p(Y), file('x.p', a1)).\n"
    "fof(a2, axiom, p(c), file('x.p', a2)).\n"
    "fof(a3, axiom, ![X]: (~p(X) | q(X) | r(X)), file('x.p', a3)).\n"
    "fof(a4, axiom, ![X]: (~q(X) | r(X)), file('x.p', a4)).\n"
    "fof(a6, axiom, r(c), file('x.p', a6)).\n"
    "fof(goal, conjecture, r(c), file('x.p', goal)).\n"
    "fof(neg, negated_conjecture, ~ r(c),"
    " inference(assume_negation,[status(cth)],[goal])).\n"
    "fof(s0, plain, p(esk1_0), inference(r,[status(thm)],[a1])).\n"
    "fof(s1, plain, r(c) | r(esk1_0),"
    " inference(r,[status(thm)],[s0, a2, a3, a4 : [bind(X, $fot(esk1_0))]])).\n"
    "cnf(f, plain, $false, inference(r,[status(thm)],[neg, a6])).\n"
)


class TestRenamedHint:
    def test_hint_naming_a_skolem_symbol_is_renamed_with_it(self, tmp_path):
        # the sub-proof searches the formulas the article states, where
        # esk1_0 is skolem1, so the hint must name skolem1 to be followed
        path = tmp_path / "hinted.out"
        path.write_text(HINTED)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["derivation", str(path), "-o", str(tmp_path),
                             "--no-compress", "--keep-unused"])
        assert code == 0
        text = (tmp_path / "hinted.miz").read_text()
        assert "S2: r c or r skolem1\n" in text
        assert "  A: (not p skolem1) or q skolem1 or r skolem1 by Ax3;\n" in text
