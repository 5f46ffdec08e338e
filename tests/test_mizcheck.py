"""The benchmark's independent checker accepts what the translator writes:
every citation resolves, and every plain `by` step holds in all models of
size 1 and 2.  bench/mizcheck.py shares no code with the translator; it is
loaded by path and only read."""

import os

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
