"""Exact output of every translation mode on the PUZ001+1 fixture.

The golden files pin the article and manifest bytes.  When a change is
meant to alter the output, regenerate them with the command in README's
Testing section and review the diff.
"""

import os

import pytest

from tptp2miz import cli

from conftest import FIXTURES

MODES = {
    # golden stem: command line before "-o"
    "puz001+1": ["derivation", "puz001+1.out"],
    "puz001+1.no-compress": ["derivation", "puz001+1.out", "--no-compress"],
    "puz001+1.problem": ["problem", "puz001+1.p"],
}


@pytest.mark.parametrize("golden", sorted(MODES))
def test_output_matches_golden(golden, tmp_path, capsys):
    mode, name, *rest = MODES[golden]
    code = cli.main([mode, os.path.join(FIXTURES, name), "-o", str(tmp_path)] + rest)
    capsys.readouterr()
    assert code == 0
    for ext in (".miz", ".env"):
        got = (tmp_path / ("puz001+1" + ext)).read_bytes()
        with open(os.path.join(FIXTURES, golden + ext), "rb") as handle:
            assert got == handle.read(), golden + ext
