"""Justification on demand: with compression on, a derived step's justify
query is asked when a deletion scan reads the step's sub-proof, or after
the last pass when the step is kept, and a deleted step is never
justified.  The article, the manifest and the report are those of eager
justification, every step justified first, followed by compression and
finish_article on the compressed copy.  Without compression
finish_article justifies every step."""

import contextlib
import io
import os

import pytest

from tptp2miz import article, cli, compress, derivation, expand, fol, obvious, tptp

import helpers
from conftest import FIXTURES
from test_premise_memo import ground_chain

HEAD = (
    "fof(goal, conjecture, {goal}, file('x.p', goal)).\n"
    "fof(neg, negated_conjecture, ~ {goal},"
    " inference(assume_negation,[status(cth)],[goal])).\n"
)


def derivation_text(goal, axioms, steps, closing):
    """A TSTP refutation: axioms (name -> formula), steps (name, formula,
    parents) and the parents of the closing $false step."""
    lines = [f"fof({name}, axiom, {formula}, file('x.p', {name}))."
             for name, formula in axioms.items()]
    lines.append(HEAD.format(goal=goal))
    lines += [f"fof({name}, plain, {formula}, inference(r,[status(thm)],[{', '.join(parents)}]))."
              for name, formula, parents in steps]
    lines.append(f"cnf(f, plain, $false, inference(r,[status(thm)],[{', '.join(closing)}])).")
    return "\n".join(lines) + "\n"


TWICE = "![X]: (p(X) => p(g(X)))"  # a step two applications away needs a sub-proof
CASES = {
    # s1 needs two instances of a1, but q(c) and the assumption close the
    # refutation without it, so compression deletes it
    "deleted_step_with_subproof": derivation_text(
        "q(c)", {"a1": TWICE, "a2": "p(c)", "a3": "q(c)"},
        [("s1", "p(g(g(c)))", ["a1", "a2"])], ["s1", "a3", "neg"]),
    # s1 needs a sub-proof, and the closing step needs s1; s0 is cited
    # only by s1, whose sub-proof keeps it
    "kept_steps_with_subproof": derivation_text(
        "p(g(g(g(c))))", {"a1": TWICE, "a2": "p(c)"},
        [("s0", "p(g(c))", ["a1", "a2"]), ("s1", "p(g(g(g(c))))", ["a1", "s0"])],
        ["s1", "neg"]),
    # the skolem step is deleted, its choice axiom still in the manifest
    "deleted_skolem_step": derivation_text(
        "q(c)", {"a1": "?[X]: p(X)", "a2": "q(c)"},
        [("s0", "p(esk1_0)", ["a1"])], ["s0", "a2", "neg"]),
    # two skolem steps and the steps that use them, all deleted
    "skolem_steps": derivation_text(
        "r(c)", {"a1": "?[X]: p(X)", "a2": "![X]: (p(X) => r(c))", "a3": "?[Y]: s(Y)",
                 "a4": "![Y]: (s(Y) => t(Y))", "a5": "u(c)"},
        [("s0", "p(esk1_0)", ["a1"]), ("s1", "r(c)", ["a2", "s0"]),
         ("s2", "s(esk2_0)", ["a3"]), ("s3", "t(esk2_0)", ["a4", "s2"])],
        ["s1", "s3", "neg"]),
    # s1 states more variables than any kept formula, and is deleted, so
    # the reserve line of the compressed article is shorter than the draft's
    "deleted_step_with_more_variables": derivation_text(
        "q(c)", {"a1": "![X]: p(X)", "a2": "q(c)"},
        [("s1", "![X,Y]: (p(X) | p(Y))", ["a1"])], ["s1", "a2", "neg"]),
}


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def eager(path, **options):
    """Every draft step justified, then compression, and the compressed
    copy finished: the article, the manifest and the report's lines."""
    graph = derivation.build_graph(tptp.parse_derivation_file(path))
    with obvious.PremiseMemo() as memo:
        model, manifest = article.build_article(graph, memo=memo)
        for item in model.all_steps():
            item.subproof = item.subproof.justify(item.source_name)
        model, report = compress.compress(model, manifest, memo=memo, **options)
    article.finish_article(model, manifest)
    return (article.render_article(model), article.render_manifest(manifest),
            [report.summary(), report.checks()])


def deferred(path, out, *options):
    """cli.main, which defers justification: the article, the manifest, the
    report's lines from stderr, and the deferred justification line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["derivation", str(path), "-o", str(out), "--verbose", *options])
    assert code == 0
    stem = os.path.basename(str(path)).rsplit(".", 1)[0]
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("wrote ")]
    justification = [line for line in lines if line.startswith("deferred justification:")]
    lines = [line for line in lines if line not in justification]
    return (read(os.path.join(out, stem + ".miz")), read(os.path.join(out, stem + ".env")),
            lines), justification


def inputs(tmp_path):
    yield os.path.join(FIXTURES, "puz001+1.out")
    for name, text in [("chain", ground_chain(40)), ("chain_reversed", ground_chain(40, False)),
                       *CASES.items()]:
        path = tmp_path / f"{name}.out"
        path.write_text(text)
        yield str(path)


class TestExactness:
    @pytest.mark.parametrize("max_passes", [None, 0, 1])
    def test_same_outputs_as_eager_justification(self, tmp_path, max_passes):
        options = [] if max_passes is None else ["--max-passes", str(max_passes)]
        for path in inputs(tmp_path):
            got, _ = deferred(path, tmp_path / "out", *options)
            assert got == eager(path, max_passes=max_passes), path

    def test_the_cases_exercise_what_they_name(self, tmp_path):
        paths = {os.path.basename(p).rsplit(".", 1)[0]: p for p in inputs(tmp_path)}
        (miz, _, lines), (justification,) = deferred(
            paths["deleted_step_with_subproof"], tmp_path / "out")
        assert "proof" not in miz.split("theorem")[0] and "removed [S1]" in lines[0]
        assert justification == "deferred justification: 0 justify queries"
        (miz, _, lines), (justification,) = deferred(
            paths["kept_steps_with_subproof"], tmp_path / "out")
        assert "removed []" in lines[0] and "thus thesis by" in miz
        assert justification == "deferred justification: 2 justify queries"
        (miz, env, lines), (justification,) = deferred(
            paths["deleted_skolem_step"], tmp_path / "out")
        assert "removed [S1]" in lines[0] and "skolemdef 1:" in env and "skolem1" in env
        assert justification == "deferred justification: 0 justify queries"
        # the reserve line is the written article's, not the draft's
        path = paths["deleted_step_with_more_variables"]
        (miz, _, lines), _ = deferred(path, tmp_path / "out")
        assert "removed [S1]" in lines[0] and miz.startswith("reserve X1;\n")
        (miz, _, _), _ = deferred(path, tmp_path / "out", "--no-compress")
        assert miz.startswith("reserve X1,X2;\n")


class TestQueries:
    def test_ground_chain_asks_only_the_closing_query(self, monkeypatch, tmp_path):
        # Justified before compression, the chain asks 200 justify queries
        # and the closing one.  Compression deletes every step, and a
        # deleted step is not justified.
        calls = [0]
        original = obvious.is_obvious

        def is_obvious(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(obvious, "is_obvious", is_obvious)
        path = tmp_path / "chain.out"
        path.write_text(ground_chain(200))
        (_, _, lines), (justification,) = deferred(path, tmp_path / "out")
        assert lines[0].startswith("compression: 200 -> 0 steps")
        queries = int(lines[1].split()[2])  # compression checks: N queries ...
        assert calls[0] - queries == 1
        assert justification == "deferred justification: 0 justify queries"

    def test_a_deleted_step_needs_no_subproof_search(self, monkeypatch, tmp_path):
        # s1 would need a sub-proof, but compression deletes it unjustified
        searched = []
        original = expand.build_subproof

        def build_subproof(step_name, *args):
            searched.append(step_name)
            return original(step_name, *args)

        monkeypatch.setattr(expand, "build_subproof", build_subproof)
        path = tmp_path / "in.out"
        path.write_text(CASES["deleted_step_with_subproof"])
        (_, _, lines), _ = deferred(path, tmp_path / "out")
        assert "removed [S1]" in lines[0] and searched == []
        deferred(path, tmp_path / "out", "--no-compress")
        assert searched == ["s1"]

    def test_no_compress_justifies_every_step_in_finish_article(self, monkeypatch, tmp_path):
        # build_article asks only the closing query; finish_article then
        # justifies every step, in model order, each under a memo of its own
        asked = []  # per query: its conclusion, its memo, whether finish_article asked it
        finishing = [False]
        original_is_obvious, original_finish = obvious.is_obvious, article.finish_article

        def is_obvious(premises, conclusion, memo=None, budget=None):
            asked.append((conclusion, memo, finishing[0]))
            return original_is_obvious(premises, conclusion, memo, budget)

        def finish_article(*args):
            finishing[0] = True
            try:
                return original_finish(*args)
            finally:
                finishing[0] = False

        def no_compress(*args, **kwargs):
            raise AssertionError("compress was called")

        monkeypatch.setattr(obvious, "is_obvious", is_obvious)
        monkeypatch.setattr(article, "finish_article", finish_article)
        monkeypatch.setattr(compress, "compress", no_compress)
        path = tmp_path / "chain.out"
        path.write_text(ground_chain(5))
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["derivation", str(path), "-o", str(tmp_path), "--no-compress"]) == 0
        (closing, memo, finished), *steps = asked
        assert closing is fol.FALSE and memo is None and not finished
        assert [tptp.format_formula(c) for c, _, _ in steps] == [f"p{i}(c)" for i in range(1, 6)]
        assert all(finished for _, _, finished in steps)
        memos = [memo for _, memo, _ in steps]
        assert None not in memos and len({id(m) for m in memos}) == len(memos)


class TestErrors:
    """The closing step is checked first.  Then, without compression, the
    first step that fails in model order is named; with compression, the
    first step that fails as compression justifies it: a citer whose
    sub-proof a deletion scan reads, or a kept step after the last pass.
    A deleted step is never justified.  ExpansionFailed comes before the
    signature's errors."""

    def translate(self, tmp_path, text, *options):
        path = tmp_path / "in.p"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["derivation", str(path), "-o", str(tmp_path / "out"), *options])
        assert not (tmp_path / "out").exists()
        return code, err.getvalue()

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    def test_a_deleted_step_ends_no_run(self, tmp_path, options):
        # r(c) does not follow from p(c); the closing step also cites the
        # facts it needs, so compression deletes s1 unjustified and writes
        # a valid article, while without compression s1 fails
        text = derivation_text("q(c)", {"a1": "p(c)", "a2": "q(c)"},
                               [("s1", "r(c)", ["a1"])], ["s1", "a2", "neg"])
        if options:
            code, err = self.translate(tmp_path, text, *options)
            assert code == 2 and err.startswith("error: ExpansionFailed:") and "'s1'" in err
            return
        path = tmp_path / "in.p"
        path.write_text(text)
        (miz, env, lines), _ = deferred(path, tmp_path / "out")
        assert "removed [S1]" in lines[0]
        assert helpers.mizcheck.check_article(miz, env).problems == []

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    def test_the_first_failing_step_is_named(self, tmp_path, options):
        # Neither s1 nor s2 follows, and both are kept.  Deciding whether
        # to delete s1, compression reads the sub-proof of its citer s2
        # first; without compression s1 comes first in model order.
        text = derivation_text("q(c)", {"a1": "p(c)", "a2": "t(c) => q(c)"},
                               [("s1", "r(c)", ["a1"]), ("s2", "t(c)", ["s1"])],
                               ["s2", "a2", "neg"])
        code, err = self.translate(tmp_path, text, *options)
        assert code == 2 and err.startswith("error: ExpansionFailed:")
        assert ("'s1'" if options else "'s2'") in err

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    def test_a_failing_step_before_the_closing_step(self, tmp_path, options):
        # the closing step does not follow, and is checked first
        text = derivation_text("q(c)", {"a1": "p(c)"}, [("s1", "r(c)", ["a1"])],
                               ["s1", "neg"])
        code, err = self.translate(tmp_path, text, *options)
        assert code == 2 and "ExpansionFailed" in err and "'f'" in err

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    def test_expansion_failed_before_unsupported_symbol(self, tmp_path, options):
        # s1 does not follow, and the closing step needs it, so it is kept
        text = derivation_text("q(c)", {"a1": "p(c)", "a2": "r(c) => q(c)", "a3": "or(c)"},
                               [("s1", "r(c)", ["a1"])], ["s1", "a2", "neg"])
        code, err = self.translate(tmp_path, text, *options)
        assert code == 2 and "ExpansionFailed" in err and "'s1'" in err


def test_recompressing_a_settled_model(tmp_path):
    # bench/worker.py compresses a compressed article again with the
    # options cli gave; its steps are settled, and nothing more goes
    captured = []
    original = compress.compress

    def capturing(model, manifest, **kwargs):
        result = original(model, manifest, **kwargs)
        captured.append((result[0], manifest, kwargs))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compress, "compress", capturing)
        for path in inputs(tmp_path):
            deferred(path, tmp_path / "out")
    for model, manifest, kwargs in captured:
        again, report = compress.compress(model, manifest, **kwargs)
        assert report.removed_labels == [] and report.justified == 0
        assert article.render_article(again) == article.render_article(model)
