"""The tokenizer gives the token stream of the named-group lexer it replaced.

`reference_tokens` below is that lexer, kept here as the specification:
each token has a kind, a value and an offset, and a character that no group
takes is an error at its line and column.  The translator's tokenizer
returns the values only; a kind follows from a value's first character by
`_KINDS`, and an offset is `_TOKEN_RE`'s group 1 start of the same match.
"""

import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from tptp2miz import tptp
from tptp2miz.errors import TptpSyntaxError

from conftest import FIXTURES

_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*|\#[^\n]*|/\*.*?\*/)
  | (?P<quoted>'(?:[^'\\]|\\.)*')
  | (?P<dollar>\$[a-z][a-zA-Z0-9_]*)
  | (?P<lower>[a-z][a-zA-Z0-9_]*)
  | (?P<upper>[A-Z][a-zA-Z0-9_]*)
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<op><=>|<~>|=>|<=|!=|~\||~&|[!?~&|=:(),.\[\]<>*])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def line_column(text, pos):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def reference_tokens(text):
    """[(kind, value, offset)] ending in ("eof", "", len(text)), or a
    TptpSyntaxError at the first bad character."""
    tokens = []
    for m in _REFERENCE_RE.finditer(text):
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        if kind == "bad":
            raise TptpSyntaxError(f"unexpected character {m.group()!r}",
                                  *line_column(text, m.start()))
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def tokens(text):
    """The same triples from the translator's tokenizer."""
    values = tptp.tokenize(text)
    values = values[:values.index("") + 1]
    offsets = [m.start(1) for m in tptp._TOKEN_RE.finditer(text)]
    return [(tptp._KINDS.get(v[:1], "number"), v, pos) for v, pos in zip(values, offsets)]


def outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except TptpSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def assert_same_stream(text):
    expected = outcome(reference_tokens, text)
    assert outcome(tokens, text) == expected
    if expected[0] != "error":
        # an error at any token reports the reference offset's line and column
        for index in (0, len(expected) // 2, len(expected) - 1):
            assert tptp._position(text, index) == line_column(text, expected[index][2])


@pytest.mark.parametrize("name", ["puz001+1.p", "puz001+1.out"])
def test_golden_inputs(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        text = handle.read()
    assert_same_stream(text)
    assert len(tptp.tokenize(text)) > 300


EDGE_CASES = [
    "",
    "   \n\t ",
    "fof(a, axiom, p). % trailing comment with no newline",
    "fof(a, axiom, p). # hash comment",
    "fof(a, axiom, p). /* unterminated block",
    "p /* one */ /* two\n lines */ q",
    "fof(a, axiom, p('unterminated)).",
    "p('it\\'s', 'back\\\\slash')",
    "p(_x)",
    "$X",
    "$true $false $distinct",
    "a - b",
    "-",
    "+1.5 -2 3. 4.25.6",
    "p(٣)",  # ARABIC-INDIC DIGIT THREE, a decimal digit
    "p(²)",  # SUPERSCRIPT TWO, not a decimal digit
    "p(é)",  # a letter, but not an ASCII one
    "<=><~>=><=!=~|~&!?~&|=:(),.[]<>*",
    "a<=b c<=>d e=>f ~~p",
    "x\n\n  @",
    # words and one-character operators are tried before the other tokens
    "p(.5)",
    "3.5.",
    "'a'.b",
    "x.y",
    "[a,b]",
    "a*b",
    "p~|q",
    "p~&q",
    "a!=b",
    "a<=>b",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases(text):
    assert_same_stream(text)


PIECES = [
    " ", "\n", "\t", "%", "#", "/*", "*/", "/", "*", "'", "\\", "$", "_", "-", "+",
    ".", "0", "7", "٣", "²", "é", "a", "Z", "fof", "Xy_1", "(", ")",
    "[", "]", ",", ":", "&", "|", "~", "!", "?", "=", "<", ">", "@",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_random_texts(text):
    assert_same_stream(text)
