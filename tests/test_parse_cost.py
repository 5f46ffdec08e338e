"""The parser reads tokens by index, not by a method call per token.

Counts the Python calls into tptp.py while `_Parser(text).parse_units()`
reads each golden input, per token of the input.  A count repeats exactly
from run to run, so the bound guards the reader's cost with no timing.
A reader that makes a method call to peek at, take or test each token
makes about four calls per token on these inputs.
"""

import os
import sys

import pytest

from tptp2miz import tptp

from conftest import FIXTURES


def calls_per_token(text):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == tptp.__file__:
            calls += 1

    parser = tptp._Parser(text)
    sys.setprofile(count)
    try:
        parser.parse_units()
    finally:
        sys.setprofile(None)
    return calls / parser.tokens.index("")  # the end-of-input markers aside


@pytest.mark.parametrize("name, bound", [("puz001+1.p", 2.0), ("puz001+1.out", 2.5)])
def test_calls_per_token(name, bound):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        text = handle.read()
    assert calls_per_token(text) <= bound
