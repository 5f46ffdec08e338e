import os
import shutil

import pytest

from tptp2miz import cli

from conftest import FIXTURES
from test_premise_memo import ground_chain


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerivationMode:
    def test_writes_article_and_manifest(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "derivation",
            os.path.join(FIXTURES, "puz001+1.out"),
            "-o",
            str(tmp_path),
        )
        assert code == 0
        miz = (tmp_path / "puz001+1.miz").read_text()
        env = (tmp_path / "puz001+1.env").read_text()
        assert "hence thesis;" in miz
        assert "skolemdef 2:" in env
        assert "compression:" in err  # report goes to stderr, not the files
        assert "compression" not in miz

    def test_verbose_prints_the_compression_checks(self, tmp_path, capsys):
        # the closing step's first query closes by propagation, and each
        # later deletion of the 20-step chain is settled without a query
        path = tmp_path / "chain.out"
        path.write_text(ground_chain(20))
        code, _, err = run(capsys, "derivation", str(path), "-o", str(tmp_path), "--verbose")
        assert code == 0
        assert err.splitlines()[1] == (
            "compression checks: 1 queries over 3 premises, 19 settled by propagation")
        code, _, err = run(capsys, "derivation", str(path), "-o", str(tmp_path))
        assert "compression checks" not in err

    def test_no_compress_superset(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "derivation",
            os.path.join(FIXTURES, "puz001+1.out"),
            "-o",
            str(tmp_path / "full"),
            "--no-compress",
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "derivation",
            os.path.join(FIXTURES, "puz001+1.out"),
            "-o",
            str(tmp_path / "small"),
        )
        assert code == 0
        full = (tmp_path / "full" / "puz001+1.miz").read_text()
        small = (tmp_path / "small" / "puz001+1.miz").read_text()
        def statements(text):
            out = set()
            for line in text.splitlines():
                if line.startswith("S") and ":" in line:
                    out.add(line.split(":", 1)[1].split(" by ")[0].rstrip(";"))
            return out

        # justifications change under compression, formulas must not
        assert statements(small) <= statements(full)

    def test_byte_identical_runs(self, tmp_path, capsys):
        for sub in ("one", "two"):
            run(
                capsys,
                "derivation",
                os.path.join(FIXTURES, "puz001+1.out"),
                "-o",
                str(tmp_path / sub),
            )
        assert (tmp_path / "one" / "puz001+1.miz").read_bytes() == (
            tmp_path / "two" / "puz001+1.miz"
        ).read_bytes()
        assert (tmp_path / "one" / "puz001+1.env").read_bytes() == (
            tmp_path / "two" / "puz001+1.env"
        ).read_bytes()

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "derivation", "/no/such/file.out")
        assert code == 2
        assert err.startswith("error: IoError:")


class TestProblemMode:
    def test_flat_article(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "problem",
            os.path.join(FIXTURES, "puz001+1.p"),
            "-o",
            str(tmp_path),
        )
        assert code == 0
        miz = (tmp_path / "puz001+1.miz").read_text()
        assert "::> pending proof" in miz
        assert "proof" not in miz.replace("::> pending proof", "")

    def test_syntax_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.p"
        bad.write_text("fof(a, axiom, p(c)")
        code, _, err = run(capsys, "problem", str(bad))
        assert code == 2
        assert err.startswith("error: TptpSyntaxError:")
        assert "line 1" in err

    def test_output_dir_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = run(
            capsys,
            "problem",
            os.path.join(FIXTURES, "puz001+1.p"),
            "-o",
            str(blocker / "out"),
        )
        assert code == 2
        assert err.startswith("error: IoError:")
        assert "Traceback" not in err

    def test_parser_warnings_are_one_line_each(self, tmp_path, capsys):
        path = tmp_path / "warn.p"
        path.write_text("fof(a, axiom, p(c), creator(esoteric)).\n"
                        "fof(b, axiom, q(c), inference(r, [bind(x, $fot(c))], [a])).\n")
        code, _, err = run(capsys, "problem", str(path), "-o", str(tmp_path / "out"))
        assert code == 0
        assert err.splitlines() == [
            "warning: unrecognized source annotation ('creator', ['esoteric']); "
            "treating as unknown",
            "warning: malformed bind annotation ('bind', ['x', ('$fot', ['c'])]); ignoring",
        ]

    def test_a_repeated_warning_is_shown_each_time(self, tmp_path, capsys):
        path = tmp_path / "warn.p"
        path.write_text("fof(a, axiom, p(c), creator(esoteric)).\n"
                        "fof(b, axiom, q(c), creator(esoteric)).\n")
        code, _, err = run(capsys, "problem", str(path), "-o", str(tmp_path / "out"))
        assert code == 0
        assert err.splitlines() == [
            "warning: unrecognized source annotation ('creator', ['esoteric']); "
            "treating as unknown",
        ] * 2

    def test_second_conjecture_refused(self, tmp_path, capsys):
        # the article states one theorem, so a second would be dropped unseen
        path = tmp_path / "two.p"
        path.write_text("fof(a,axiom,p(c)). fof(g1,conjecture,p(c)). fof(g2,conjecture,q(c)).\n")
        code, _, err = run(capsys, "problem", str(path), "-o", str(tmp_path / "out"))
        assert code == 2
        assert err == ("error: MultipleConjectures: problem has a second conjecture 'g2', "
                       "and the article states only one theorem\n")
        assert not (tmp_path / "out").exists()


class TestWideInputs:
    """Units wider than the recursion limit."""

    WIDE = 5000

    def translate(self, tmp_path, capsys, text):
        (tmp_path / "wide.p").write_text(text)
        code, _, err = run(
            capsys, "problem", str(tmp_path / "wide.p"), "-o", str(tmp_path / "out")
        )
        assert (code, err) == (0, "")
        return (tmp_path / "out" / "wide.miz").read_text()

    def test_cnf_clause(self, tmp_path, capsys):
        literals = [f"{'~' if i % 2 else ''}p{i}(X)" for i in range(self.WIDE)]
        miz = self.translate(
            tmp_path, capsys, f"cnf(wide, axiom, ({' | '.join(literals)})).\n"
        )
        rendered = [f"(not p{i} X1)" if i % 2 else f"p{i} X1" for i in range(self.WIDE)]
        assert miz.splitlines() == [
            "reserve X1;", "", ":: X1 <- X",
            "Ax1: " + " or ".join(rendered) + " by AXIOMS:1;",
        ]

    def test_fof_conjunction(self, tmp_path, capsys):
        conjuncts = [f"q{i}(c)" for i in range(self.WIDE)]
        miz = self.translate(
            tmp_path, capsys, f"fof(wide, axiom, ({' & '.join(conjuncts)})).\n"
        )
        rendered = [f"q{i} c" for i in range(self.WIDE)]
        assert miz.splitlines() == ["Ax1: " + " & ".join(rendered) + " by AXIOMS:1;"]


class TestInputErrors:
    CASES = {
        # case: (files to write, the first one translated; expected error kind)
        "undecodable_input": ({"top.p": b"fof(a, axiom, p(c)).\n\xff\n"}, "IoError"),
        "undecodable_include": (
            {"top.p": b"include('bad.ax').\n", "bad.ax": b"\xff"}, "IoError"
        ),
        "include_names_a_directory": (
            {"top.p": b"include('Axioms').\n", "Axioms/x.ax": b""}, "IoError"
        ),
        "include_cycle": (
            {"top.p": b"fof(a, axiom, p(c)).\ninclude('other.ax').\n",
             "other.ax": b"include('top.p').\n"},
            "IncludeCycle",
        ),
        "self_include": ({"top.p": b"include('top.p').\n"}, "IncludeCycle"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reported_with_exit_two(self, case, tmp_path, capsys):
        files, kind = self.CASES[case]
        for name, data in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(data)
        code, _, err = run(
            capsys, "problem", str(tmp_path / "top.p"), "-o", str(tmp_path / "out")
        )
        assert code == 2
        assert err.startswith(f"error: {kind}:")
        assert "Traceback" not in err


class TestCheckObviousMode:
    def write(self, tmp_path, text):
        path = tmp_path / "query.p"
        path.write_text(text)
        return str(path)

    def test_obvious_exit_zero(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "fof(p1, axiom, ![X]: (p(X) => q(X))).\n"
            "fof(p2, axiom, p(c)).\n"
            "fof(c1, conjecture, q(c)).\n",
        )
        code, out, _ = run(capsys, "check-obvious", path)
        assert code == 0
        assert out.strip() == "Obvious"

    def test_not_obvious_exit_one(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "fof(p1, axiom, p(c)).\nfof(c1, conjecture, q(c)).\n",
        )
        code, out, _ = run(capsys, "check-obvious", path)
        assert code == 1
        assert out.strip() == "NotObvious"

    def test_unknown_exit_three(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "fof(p1, axiom, ![X]: (p(X) => q(X))).\n"
            "fof(p2, axiom, p(c)).\n"
            "fof(c1, conjecture, q(c)).\n",
        )
        code, out, _ = run(capsys, "check-obvious", path, "--budget", "1")
        assert code == 3
        assert out.strip() == "Unknown"

    def test_verbose_prints_the_selection(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "fof(p1, axiom, ![X]: (p(X) => q(X))).\n"
            "fof(p2, axiom, p(c)).\n"
            "fof(c1, conjecture, q(c)).\n",
        )
        code, out, _ = run(capsys, "check-obvious", path, "--verbose")
        assert code == 0
        assert out.splitlines() == [
            "Obvious", "reason: instances", "budget: 12 of 10000", "1 {X: c}", "2 -"]

    # one query per reason a verdict gives, with the budget it spends
    REASONS = {
        "propagation": (
            "fof(p1, axiom, p(c)).\n"
            "fof(p2, axiom, ~ p(c) | q(c)).\n"
            "fof(c1, conjecture, q(c)).\n", [], 0, 1),
        # no unit is derived at the root; congruence closes the one branch
        "case-split": (
            "fof(p1, axiom, a = b).\n"
            "fof(p2, axiom, p(a)).\n"
            "fof(c1, conjecture, p(b)).\n", [], 0, 1),
        "instances": (
            "fof(p1, axiom, ![X]: (p(X) => q(X))).\n"
            "fof(p2, axiom, p(c)).\n"
            "fof(c1, conjecture, q(c)).\n", [], 0, 12),
        "no-closing-instance": (
            "fof(p1, axiom, ![X]: (~ p(X) | q(X))).\n"
            "fof(p2, axiom, ![X]: (~ q(X) | r(X))).\n"
            "fof(c1, conjecture, ![X]: (~ p(X) | r(X))).\n", [], 1, 1),
        "search-exhausted": (
            "fof(p1, axiom, ![X]: (p(X) => p(f(X)))).\n"
            "fof(p2, axiom, p(c)).\n"
            "fof(c1, conjecture, p(f(f(c)))).\n", [], 1, 17),
        # the spend that runs out counts 2 of 1; the count printed is capped
        "budget": (
            "fof(p1, axiom, ![X]: (p(X) => q(X))).\n"
            "fof(p2, axiom, p(c)).\n"
            "fof(c1, conjecture, q(c)).\n", ["--budget", "1"], 3, 1),
        # ten two-atom conjunctions in a disjunction: 1024 clauses
        "clauses": (
            "fof(p1, axiom, " + " | ".join(f"(p{i}(c) & q{i}(c))" for i in range(10))
            + ").\nfof(c1, conjecture, r(c)).\n", [], 3, 0),
        # nine two-atom disjunctions: 512 branches
        "branches": (
            "".join(f"fof(p{i}, axiom, p{i}(c) | q{i}(c)).\n" for i in range(9))
            + "fof(c1, conjecture, r(c)).\n", ["--budget", "100000"], 3, 521),
    }

    def test_verbose_not_obvious_prints_the_verdict_and_its_reason(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "fof(p1, axiom, p(c)).\nfof(c1, conjecture, q(c)).\n",
        )
        code, out, _ = run(capsys, "check-obvious", path, "--verbose")
        assert code == 1
        assert out.splitlines() == [
            "NotObvious", "reason: no-closing-instance", "budget: 1 of 10000"]

    @pytest.mark.parametrize("reason", sorted(REASONS))
    def test_verbose_prints_each_reason(self, reason, tmp_path, capsys):
        text, options, exit_code, used = self.REASONS[reason]
        limit = options[1] if options else "10000"
        path = self.write(tmp_path, text)
        code, out, _ = run(capsys, "check-obvious", path, "--verbose", *options)
        assert code == exit_code
        assert out.splitlines()[1:3] == [f"reason: {reason}", f"budget: {used} of {limit}"]
        code, out, _ = run(capsys, "check-obvious", path, *options)
        assert out.splitlines() == [out.split()[0]]  # the reason only with --verbose


class TestNumericOptions:
    @pytest.mark.parametrize("mode,option,value", [
        ("derivation", "--budget", "0"),
        ("derivation", "--budget", "-5"),
        ("derivation", "--budget", "ten"),
        ("derivation", "--max-passes", "-1"),
        ("check-obvious", "--budget", "0"),
        ("check-obvious", "--budget", "-5"),
    ])
    def test_rejected_with_usage(self, mode, option, value, tmp_path, capsys):
        path = os.path.join(FIXTURES, "puz001+1.out")
        with pytest.raises(SystemExit) as exit_info:
            cli.main([mode, path, option, value]
                     + (["-o", str(tmp_path)] if mode == "derivation" else []))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"{option}: expected an integer" in err
        assert not list(tmp_path.iterdir())

    def test_zero_passes_accepted(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "derivation", os.path.join(FIXTURES, "puz001+1.out"),
            "-o", str(tmp_path), "--max-passes", "0",
        )
        assert code == 0
        assert "compression:" in err


def refutation(literal):
    """A derivation refuting the literal's negation with the literal itself."""
    return (
        f"fof(a, axiom, {literal}).\n"
        f"fof(g, conjecture, {literal}).\n"
        f"fof(n, negated_conjecture, ~ {literal}, "
        "inference(assume_negation, [status(cth)], [g])).\n"
        "fof(f, plain, $false, inference(r, [status(thm)], [a, n])).\n"
    )


class TestUnwritableArticles:
    """Inputs whose article could only be wrong end in exit 2, before any
    file is written."""

    NO_REFUTATION = {
        "no_false_step": (
            "fof(a, axiom, p(c)).\nfof(g, conjecture, p(c)).\n"
            "fof(n, negated_conjecture, ~ p(c), "
            "inference(assume_negation, [status(cth)], [g])).\n"
        ),
        "false_step_cites_nothing": (
            "fof(a, axiom, $false).\nfof(g, conjecture, p(c)).\n"
            "fof(f, plain, $false, inference(rw, [status(thm)], [a])).\n"
        ),
    }
    # literals naming a symbol the rendering would misread
    SYMBOLS = ["p('X1')", "contradiction(c)", "for(c)", "or(c)", "'p q'('c d')"]

    def translate(self, tmp_path, capsys, text, *argv):
        path = tmp_path / "in.p"
        path.write_text(text)
        out = tmp_path / "out"
        code, _, err = run(capsys, argv[0], str(path), "-o", str(out), *argv[1:])
        assert "Traceback" not in err
        assert not out.exists()
        return code, err

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    @pytest.mark.parametrize("case", sorted(NO_REFUTATION))
    def test_no_refutation(self, case, options, tmp_path, capsys):
        code, err = self.translate(tmp_path, capsys, self.NO_REFUTATION[case],
                                   "derivation", *options)
        assert code == 2
        assert err.startswith("error: NoRefutation:")

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    def test_closing_step_not_obvious(self, options, tmp_path, capsys):
        # $false cites only p(c), which contradicts nothing
        text = (
            "fof(a, axiom, p(c)).\nfof(g, conjecture, q(c)).\n"
            "fof(n, negated_conjecture, ~ q(c), "
            "inference(assume_negation, [status(cth)], [g])).\n"
            "fof(f, plain, $false, inference(r, [status(thm)], [a])).\n"
        )
        code, err = self.translate(tmp_path, capsys, text, "derivation", *options)
        assert code == 2
        assert err.startswith("error: ExpansionFailed:") and "'f'" in err

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    def test_introduced_unit(self, options, tmp_path, capsys):
        # stated as an axiom, the invented r(c) would prove the conjecture
        text = (
            "fof(d1, plain, r(c), introduced(definition)).\n"
            "fof(g, conjecture, r(c)).\n"
            "fof(n, negated_conjecture, ~ r(c), "
            "inference(assume_negation, [status(cth)], [g])).\n"
            "fof(f, plain, $false, inference(rw, [status(thm)], [d1, n])).\n"
        )
        code, err = self.translate(tmp_path, capsys, text, "derivation", *options)
        assert code == 2
        assert err.startswith("error: UnsupportedDefinition:") and "'d1'" in err

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    @pytest.mark.parametrize("literal", SYMBOLS)
    def test_symbol_in_derivation(self, literal, options, tmp_path, capsys):
        code, err = self.translate(tmp_path, capsys, refutation(literal),
                                   "derivation", *options)
        assert code == 2
        assert err.startswith("error: UnsupportedSymbol:")

    @pytest.mark.parametrize("literal", SYMBOLS)
    def test_symbol_in_problem(self, literal, tmp_path, capsys):
        text = f"fof(a, axiom, {literal}).\nfof(g, conjecture, ![X]: p(X)).\n"
        code, err = self.translate(tmp_path, capsys, text, "problem")
        assert code == 2
        assert err.startswith("error: UnsupportedSymbol:")
