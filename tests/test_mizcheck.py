"""The benchmark's independent checker accepts what the translator writes:
every citation resolves, and every plain `by` step holds in all models of
size 1 and 2.  bench/mizcheck.py shares no code with the translator; it is
loaded by path and only read."""

import os
import re

import pytest

from tptp2miz import cli

import helpers
from conftest import FIXTURES
from helpers import mizcheck

# mode: (command line before "-o", plain `by` steps checked in its article)
MODES = {
    "derivation": (["derivation", "puz001+1.out"], 7),
    "no-compress": (["derivation", "puz001+1.out", "--no-compress"], 26),
    "problem": (["problem", "puz001+1.p"], 0),
}


def translate(argv, out, capsys):
    """The exit code and the written article's report, None on no exit 0."""
    code = cli.main(argv + ["-o", str(out)])
    capsys.readouterr()
    if code != 0:
        return code, None
    stem = os.path.splitext(os.path.basename(argv[1]))[0]
    miz = (out / (stem + ".miz")).read_text()
    env = (out / (stem + ".env")).read_text()
    return code, mizcheck.check_article(miz, env)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_fixture_articles_check(mode, tmp_path, capsys):
    (mode_name, name, *rest), checked = MODES[mode]
    argv = [mode_name, os.path.join(FIXTURES, name)] + rest
    code, report = translate(argv, tmp_path, capsys)
    assert code == 0
    assert report.problems == []
    assert report.steps_checked == checked


@pytest.mark.parametrize("options", [[], ["--no-compress"]])
def test_cited_conjecture_never_yields_a_rejected_article(options, tmp_path, capsys):
    path = tmp_path / "cited.p"
    path.write_text(helpers.CONJECTURE_CITED)
    code, report = translate(["derivation", str(path)] + options,
                             tmp_path / "out", capsys)
    assert code in (0, 1, 2, 3)
    assert report is None or report.problems == []


# Step s1 needs two instances of ax.  Its own variable Z is rendered X1, which
# is also the name that ax binds, so an instance step that kept its bound
# names raw would read `r X1 implies (ex X1 st q X1,X1)`, which does not follow.
BOUND_NAME_OF_A_RENAMED_VARIABLE = (
    "fof(goal, conjecture, p(c), file('x.p', goal)).\n"
    "fof(neg, negated_conjecture, ~ p(c), "
    "inference(assume_negation, [status(cth)], [goal])).\n"
    "fof(pc, axiom, (p(c) & r(g(c))), file('x.p', pc)).\n"
    "fof(ax, axiom, ![Y]: (r(Y) => ?[X1]: q(Y, X1)), file('x.p', ax)).\n"
    "fof(s1, plain, ((r(Z) & r(g(Z))) => (?[X1]: q(Z, X1) & ?[X1]: q(g(Z), X1))), "
    "inference(resolution, [status(thm)], [ax])).\n"
    "fof(f, plain, $false, inference(resolution, [status(thm)], [s1, neg, pc])).\n"
)


def test_subproof_instances_rename_their_bound_names(tmp_path, capsys):
    """An instance step names its bound variables X2, X3, ... after its
    statement's own, and the article reserves them."""
    path = tmp_path / "bound.p"
    path.write_text(BOUND_NAME_OF_A_RENAMED_VARIABLE)
    code, report = translate(["derivation", str(path), "--no-compress"],
                             tmp_path / "out", capsys)
    assert code == 0
    assert report.problems == []
    miz = (tmp_path / "out" / "bound.miz").read_text()
    assert "  A: r X1 implies (ex X2 st q X1,X2) by Ax2;\n" in miz
    assert "  B: r (g X1) implies (ex X2 st q (g X1),X2) by Ax2;\n" in miz
    # s1's two blocks bind X1 each: they reserve one name, not two
    assert miz.startswith("reserve X1,X2;\n")
    assert set(re.findall(r"\bX\d+\b", miz)) == {"X1", "X2"}
