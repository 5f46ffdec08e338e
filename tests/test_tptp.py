import os

import pytest
from hypothesis import given, settings, strategies as st

from tptp2miz import fol, tptp
from tptp2miz.errors import (
    IncludeNotFound,
    NestingTooDeep,
    TptpSyntaxError,
    UnsupportedLanguage,
)

import helpers
from conftest import FIXTURES


def parse1(text):
    units = tptp.parse_problem(text)
    assert len(units) == 1
    return units[0]


class TestFofParsing:
    def test_simple_axiom(self):
        u = parse1("fof(a1, axiom, p(c)).")
        assert u.name == "a1"
        assert u.role == "axiom"
        assert u.formula == fol.Atom("p", (fol.App("c"),))

    def test_quantifiers_and_connectives(self):
        u = parse1("fof(a, axiom, ![X]: (p(X) => ? [Y] : r(X,Y))).")
        f = u.formula
        assert isinstance(f, fol.Forall)
        assert isinstance(f.body, fol.Implies)
        assert isinstance(f.body.right, fol.Exists)

    def test_equality_and_inequality(self):
        u = parse1("fof(a, axiom, a = b & c != d).")
        left, right = u.formula.parts
        assert isinstance(left, fol.Eq)
        assert isinstance(right, fol.Not) and isinstance(right.body, fol.Eq)

    def test_reverse_implication_swaps(self):
        u = parse1("fof(a, axiom, p(c) <= q(c)).")
        assert u.formula == fol.Implies(
            fol.Atom("q", (fol.App("c"),)), fol.Atom("p", (fol.App("c"),))
        )

    def test_xor_desugars(self):
        u = parse1("fof(a, axiom, p(c) <~> q(c)).")
        assert isinstance(u.formula, fol.Not)
        assert isinstance(u.formula.body, fol.Iff)

    def test_mixed_binary_needs_parens(self):
        with pytest.raises(TptpSyntaxError):
            parse1("fof(a, axiom, p(c) & q(c) | r(c,c)).")

    def test_dollar_constants(self):
        assert parse1("fof(a, axiom, $true).").formula is fol.TRUE
        assert parse1("fof(a, axiom, $false).").formula is fol.FALSE

    def test_quoted_atoms(self):
        u = parse1("fof(a, axiom, p('strange name')).")
        assert u.formula.args[0].name == "strange name"

    def test_comments_ignored(self):
        units = tptp.parse_problem(
            "% leading\nfof(a, axiom, p(c)). /* block */ # hash\nfof(b, axiom, q(c))."
        )
        assert [u.name for u in units] == ["a", "b"]


class TestCnfParsing:
    def test_clause(self):
        u = parse1("cnf(c1, plain, (p(X) | ~q(X))).")
        assert u.language == "cnf"
        X = fol.Var("X")
        assert u.formula == fol.join(fol.Or, (fol.Atom("p", (X,)), fol.Not(fol.Atom("q", (X,)))))

    def test_clause_without_parens(self):
        u = parse1("cnf(c1, plain, ~p(X)).")
        assert u.formula == fol.Not(fol.Atom("p", (fol.Var("X"),)))


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(TptpSyntaxError) as info:
            tptp.parse_problem("fof(a, axiom, p(c)")
        assert (info.value.line, info.value.column) == (1, 19)

    def test_end_of_input_after_a_newline(self):
        with pytest.raises(TptpSyntaxError) as info:
            tptp.parse_problem("fof(a, axiom,\n  p(c) &\n")
        assert (info.value.line, info.value.column) == (3, 1)

    def test_syntax_error_position_on_a_later_line(self):
        text = "% header\nfof(a, axiom, p(c)).\n\n  fof(b, axiom, q(c) & ).\n"
        with pytest.raises(TptpSyntaxError) as info:
            tptp.parse_problem(text)
        assert (info.value.line, info.value.column) == (4, 24)

    def test_unexpected_character_position(self):
        with pytest.raises(TptpSyntaxError) as info:
            tptp.parse_problem("fof(a, axiom, p(c)).\n/* open\n*/ fof(b, axiom, @).\n")
        assert (info.value.line, info.value.column) == (3, 18)

    def test_bad_character_right_after_a_block_comment(self):
        text = "fof(a, axiom, p(c)).\n/* a\n  block */@ fof(b, axiom, q(c)).\n"
        with pytest.raises(TptpSyntaxError) as info:
            tptp.parse_problem(text)
        assert (info.value.line, info.value.column) == (3, 11)
        assert str(info.value) == "unexpected character '@' at line 3, column 11"

    def test_unsupported_language_line(self):
        text = "% c\nfof(a, axiom, p(c)).\n\n  tff(a, type, p: $i > $o)."
        with pytest.raises(UnsupportedLanguage) as info:
            tptp.parse_problem(text)
        assert info.value.line == 4

    @pytest.mark.parametrize("formula", [
        "~ " * tptp.MAX_NESTING + "p(c)",
        "p(" + "f(" * tptp.MAX_NESTING + "c" + ")" * tptp.MAX_NESTING + ")",
    ])
    def test_nesting_too_deep_position(self, formula):
        # the opening of level MAX_NESTING + 1 is the argument list's `(`
        with pytest.raises(NestingTooDeep) as info:
            tptp.parse_problem("fof(a, axiom,\n  " + formula + ").")
        assert (info.value.line, info.value.column) == (2, 2 * tptp.MAX_NESTING + 4)

    def test_unsupported_language(self):
        with pytest.raises(UnsupportedLanguage):
            tptp.parse_problem("tff(a, type, p: $i > $o).")

    def test_unknown_role(self):
        with pytest.raises(TptpSyntaxError):
            tptp.parse_problem("fof(a, mystery, p(c)).")

    def test_include_not_found(self):
        with pytest.raises(IncludeNotFound):
            tptp.parse_problem("include('NoSuch/file.ax').", base_dir="/tmp")


class TestIncludes:
    def test_include_resolved_from_base_dir(self, tmp_path):
        (tmp_path / "extra.ax").write_text("fof(ax1, axiom, p(c)).\n")
        units = tptp.parse_problem("include('extra.ax').", base_dir=str(tmp_path))
        assert [u.name for u in units] == ["ax1"]

    def test_include_name_filter(self, tmp_path):
        (tmp_path / "extra.ax").write_text(
            "fof(ax1, axiom, p(c)).\nfof(ax2, axiom, q(c)).\n"
        )
        units = tptp.parse_problem(
            "include('extra.ax', [ax2]).", base_dir=str(tmp_path)
        )
        assert [u.name for u in units] == ["ax2"]

    def test_tptp_env_var(self, tmp_path, monkeypatch):
        (tmp_path / "Axioms").mkdir()
        (tmp_path / "Axioms" / "x.ax").write_text("fof(ax1, axiom, p(c)).\n")
        monkeypatch.setenv("TPTP", str(tmp_path))
        units = tptp.parse_problem("include('Axioms/x.ax').", base_dir="/nowhere")
        assert [u.name for u in units] == ["ax1"]

    def test_same_file_twice_is_not_a_cycle(self, tmp_path):
        (tmp_path / "extra.ax").write_text("fof(ax1, axiom, p(c)).\n")
        units = tptp.parse_problem(
            "include('extra.ax', [ax1]).\ninclude('extra.ax').", base_dir=str(tmp_path)
        )
        assert [u.name for u in units] == ["ax1", "ax1"]


class TestSources:
    def test_file_source(self):
        u = parse1("fof(a, axiom, p(c), file('Problems/X.p', orig)).")
        assert isinstance(u.source, tptp.FileSource)
        assert u.source.origin == "orig"
        assert u.source.path == "Problems/X.p"

    def test_inference_record(self):
        u = parse1(
            "cnf(c2, plain, p(c), inference(resolution,[status(thm)],[c_0_1, c_0_9]))."
        )
        assert isinstance(u.source, tptp.InferenceRecord)
        assert u.source.rule == "resolution"
        assert u.source.parents == ("c_0_1", "c_0_9")
        assert u.source.status == "thm"

    def test_nested_inference_flattened_to_leaves(self):
        u = parse1(
            "cnf(c, plain, p(c), inference(fof_nnf,[status(thm)],"
            "[inference(variable_rename,[status(thm)],[c_0_2]), theory(equality)]))."
        )
        assert u.source.rule == "fof_nnf"
        assert u.source.parents == ("c_0_2",)

    @pytest.mark.parametrize("parents", ["c_0_1", "f(c_0_1)"])
    def test_nested_inference_without_a_parent_list_names_none(self, parents):
        u = parse1(
            "cnf(c, plain, p(c), inference(a,[status(thm)],"
            f"[inference(b,[],{parents})]))."
        )
        assert u.source.rule == "a"
        assert u.source.parents == ()

    def test_annotated_binding_value_is_ignored(self):
        with pytest.warns(tptp.TptpWarning, match="malformed bind annotation"):
            u = parse1(
                "cnf(c, plain, p(c), inference(a,[status(thm)],"
                "[c_0_1 : [bind(X, $fot(Y : Z))]]))."
            )
        assert u.source.parents == ("c_0_1",)
        assert u.source.bindings == ()

    def test_bindings_parsed(self):
        u = parse1(
            "cnf(c, plain, p(c), inference(spm,[status(thm)],"
            "[c_0_1 : [bind(X1, $fot(f(a)))]]))."
        )
        assert u.source.parents == ("c_0_1",)
        assert dict(u.source.bindings)["X1"] == fol.App("f", (fol.App("a"),))

    def test_introduced_source_is_recognized(self, recwarn):
        u = parse1("fof(d, plain, r(c), introduced(definition)).")
        assert isinstance(u.source, tptp.IntroducedSource)
        assert not recwarn.list

    def test_unknown_source_warns_not_fails(self):
        with pytest.warns(tptp.TptpWarning):
            u = parse1("fof(a, axiom, p(c), creator(esoteric)).")
        assert isinstance(u.source, tptp.UnknownSource)


def roundtrip(units):
    return tptp.parse_problem(tptp.serialize(units))


class TestRoundTrip:
    def test_problem_fixture(self):
        path = os.path.join(FIXTURES, "puz001+1.p")
        units = tptp.parse_problem_file(path)
        assert len(units) == 11
        assert roundtrip(units) == units

    def test_derivation_fixture(self):
        path = os.path.join(FIXTURES, "puz001+1.out")
        units = tptp.parse_derivation_file(path)
        assert len(units) == 42
        again = roundtrip(units)
        # nested inference terms flatten on first parse; a second parse of
        # the serialized form must then be a fixed point
        assert roundtrip(again) == again

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_random_formulas(self, seed):
        rng = helpers.make_rng(seed)
        units = [
            tptp.AnnotatedFormula(
                f"u{i}", "fof", "axiom", helpers.random_formula(rng, ["X"])
            )
            for i in range(rng.randint(1, 4))
        ]
        # &/| chains are flat both in the syntax tree and in print
        assert roundtrip(units) == units


class TestQuoting:
    def test_needs_quotes(self):
        assert tptp.quote_atom("strange name") == "'strange name'"
        assert tptp.quote_atom("plain_atom") == "plain_atom"

    def test_name_ending_in_a_newline_roundtrips(self):
        # `$` would match before the final newline and leave it unquoted
        assert tptp.quote_atom("abc\n") == "'abc\n'"
        unit = tptp.AnnotatedFormula(
            "abc\n", "fof", "axiom", fol.Atom("q\n", (fol.App("c\n"),)))
        assert roundtrip([unit]) == [unit]

    def test_quoted_roundtrip(self):
        u = parse1("fof(a, axiom, p('it''s tricky')).") if False else None
        # escape style in TPTP uses backslash
        v = parse1(r"fof(a, axiom, p('a\'b')).")
        assert v.formula.args[0].name == "a'b"
        again = tptp.parse_problem(tptp.serialize([v]))
        assert again == [v]
