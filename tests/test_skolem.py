import contextlib
import io
import os

import pytest

from tptp2miz import cli, derivation, fol, obvious, skolem, tptp
from tptp2miz.errors import MalformedSkolemStep

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
        syms = skolem.validate_single_skolem("sk", g)
        assert [(s.name, s.arity) for s in syms] == [("esk1_0", 0)]

    def test_two_skolems_found(self):
        # E skolemizes a whole prefix in one step; the symbols come in
        # order of first occurrence
        g = graph_of(F("?[Y]:?[Z]:r(Y,Z)"), F("r(esk2_0,esk1_0)"))
        syms = skolem.validate_single_skolem("sk", g)
        assert [s.name for s in syms] == ["esk2_0", "esk1_0"]

    def test_no_fresh_symbol_rejected(self):
        g = graph_of(F("?[Y]:p(Y)"), F("p(c)"))
        # c counts as fresh here (not in the parent), so build a real no-op
        g2 = graph_of(F("p(c)"), F("p(c)"))
        with pytest.raises(MalformedSkolemStep, match="no fresh function symbol"):
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


def _units(*lines):
    return "".join(line + "\n" for line in lines)


# E 2.x on a two-variable universal conjecture: one skolemize step, with
# the negated_conjecture role, introduces two symbols
E2X = _units(
    "fof(c_0_0, axiom, ![X1,X2]: (p(X1) => r(X1,X2)), file('x.p', ax)).",
    "fof(c_0_1, axiom, ![X1]: p(X1), file('x.p', px)).",
    "fof(c_0_2, conjecture, ![X1,X2]: r(X1,X2), file('x.p', goal)).",
    "fof(c_0_3, negated_conjecture, ~(![X1,X2]: r(X1,X2)),"
    " inference(assume_negation,[status(cth)],[c_0_2])).",
    "fof(c_0_4, plain, ![X3,X4]: (~p(X3) | r(X3,X4)), inference(variable_rename,[status(thm)],"
    "[inference(fof_nnf,[status(thm)],[c_0_0])])).",
    "fof(c_0_5, negated_conjecture, ~r(esk1_0,esk2_0), inference(skolemize,[status(esa)],"
    "[inference(variable_rename,[status(thm)],[inference(fof_nnf,[status(thm)],[c_0_3])])])).",
    "cnf(c_0_6, plain, (r(X1,X2) | ~p(X1)), inference(split_conjunct,[status(thm)],[c_0_4])).",
    "cnf(c_0_7, plain, p(X1), inference(split_conjunct,[status(thm)],[c_0_1])).",
    "cnf(c_0_8, negated_conjecture, ~r(esk1_0,esk2_0),"
    " inference(split_conjunct,[status(thm)],[c_0_5])).",
    "cnf(c_0_9, plain, r(X1,X2),"
    " inference(cn,[status(thm)],[inference(rw,[status(thm)],[c_0_6, c_0_7])])).",
    "cnf(c_0_10, negated_conjecture, $false,"
    " inference(cn,[status(thm)],[inference(rw,[status(thm)],[c_0_8, c_0_9])]), ['proof']).",
)

# an axiom's two existentials under one universal, skolemized at once
TWO = _units(
    "fof(c_0_0, axiom, ![X]: ?[Y]: ?[Z]: (r(X,Y) & s(X,Z)), file('x.p', ax)).",
    "fof(c_0_1, conjecture, ![X]: ?[Y]: r(X,Y), file('x.p', goal)).",
    "fof(c_0_2, negated_conjecture, ~(![X]: ?[Y]: r(X,Y)),"
    " inference(assume_negation,[status(cth)],[c_0_1])).",
    "fof(c_0_3, plain, ![X1]: (r(X1,esk1_1(X1)) & s(X1,esk2_1(X1))),"
    " inference(skolemize,[status(esa)],[inference(variable_rename,[status(thm)],[c_0_0])])).",
    "fof(c_0_4, negated_conjecture, ![X2]: ~r(esk3_0,X2), inference(skolemize,[status(esa)],"
    "[inference(variable_rename,[status(thm)],[inference(fof_nnf,[status(thm)],[c_0_2])])])).",
    "cnf(c_0_5, plain, r(X1,esk1_1(X1)), inference(split_conjunct,[status(thm)],[c_0_3])).",
    "cnf(c_0_6, negated_conjecture, ~r(esk3_0,X1), inference(split_conjunct,[status(thm)],[c_0_4])).",
    "cnf(c_0_7, negated_conjecture, $false, inference(sr,[status(thm)],[c_0_6, c_0_5]), ['proof']).",
)

# the skolemize step cites a separate fof_nnf unit
NEGSK = _units(
    "fof(c_0_0, axiom, ![X]: p(X), file('x.p', ax)).",
    "fof(c_0_1, conjecture, ![X]: p(X), file('x.p', goal)).",
    "fof(c_0_2, negated_conjecture, ~(![X]: p(X)),"
    " inference(assume_negation,[status(cth)],[c_0_1])).",
    "fof(c_0_3, negated_conjecture, ?[X]: ~p(X), inference(fof_nnf,[status(thm)],[c_0_2])).",
    "fof(c_0_4, negated_conjecture, ~p(esk1_0), inference(skolemize,[status(esa)],"
    "[inference(variable_rename,[status(thm)],[c_0_3])])).",
    "cnf(c_0_5, plain, p(X1), inference(split_conjunct,[status(thm)],[c_0_0])).",
    "cnf(c_0_6, negated_conjecture, $false, inference(sr,[status(thm)],[c_0_4, c_0_5]), ['proof']).",
)

# two steps choose one symbol for two different existentials; together
# their axioms would prove the non-theorem
DUP = _units(
    "fof(a1, axiom, ?[X]: p(X), file('x.p', a1)).",
    "fof(a2, axiom, ?[X]: q(X), file('x.p', a2)).",
    "fof(goal, conjecture, ?[X]: (p(X) & q(X)), file('x.p', goal)).",
    "fof(neg, negated_conjecture, ~(?[X]: (p(X) & q(X))),"
    " inference(assume_negation,[status(cth)],[goal])).",
    "fof(n1, negated_conjecture, ![X]: (~p(X) | ~q(X)), inference(fof_nnf,[status(thm)],[neg])).",
    "fof(s1, plain, p(esk1_0), inference(skolemize,[status(esa)],[a1])).",
    "fof(s2, plain, q(esk1_0), inference(skolemize,[status(esa)],[a2])).",
    "cnf(c1, negated_conjecture, ~q(esk1_0), inference(r,[status(thm)],[n1, s1])).",
    "cnf(f, negated_conjecture, $false, inference(r,[status(thm)],[c1, s2])).",
)


def translate(tmp_path, text, *options):
    path = tmp_path / "in.out"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["derivation", str(path), "-o", str(tmp_path), *options])
    return code, err.getvalue()


class TestEShapes:
    E2X_DEF = "skolemdef 1: (~ ! [X1,X2] : r(X1,X2) => ~ r(skolem1,skolem2))"
    TWO_DEF = ("skolemdef 1: (! [X] : ? [Y,Z] : (r(X,Y) & s(X,Z)) => "
               "! [X1] : (r(X1,skolem1(X1)) & s(X1,skolem2(X1))))")

    @pytest.mark.parametrize("text, options, skolemdef", [
        pytest.param(E2X, [], E2X_DEF, id="e2x"),
        pytest.param(E2X, ["--no-compress"], E2X_DEF, id="e2x-no-compress"),
        pytest.param(TWO, [], TWO_DEF, id="two"),
        pytest.param(TWO, ["--no-compress"], TWO_DEF, id="two-no-compress"),
        # without compression the fof_nnf step is refused (quantifier duality)
        pytest.param(NEGSK, [], "skolemdef 1: (? [X] : ~ p(X) => ~ p(skolem1))", id="negsk"),
    ])
    def test_translates_and_checks(self, tmp_path, text, options, skolemdef):
        code, err = translate(tmp_path, text, *options)
        assert code == 0, err
        miz, env = (tmp_path / "in.miz").read_text(), (tmp_path / "in.env").read_text()
        assert skolemdef in env.splitlines()
        assert helpers.mizcheck.check_article(miz, env).problems == []

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    def test_one_symbol_chosen_twice_is_refused(self, tmp_path, options):
        code, err = translate(tmp_path, DUP, *options)
        assert code == 2
        assert err.startswith("error: MalformedSkolemStep:")
        assert "'s2'" in err and "'s1'" in err and "esk1_0" in err
