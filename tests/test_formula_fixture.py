"""The readings of generated fof and cnf units are pinned.

The generator builds formulas from every connective (`&`, `|`, `=>`, `<=`,
`<=>`, `<~>`, `~|`, `~&`, `~`), quantifier blocks of one to three
variables, atoms with and without arguments, `=` and `!=`, `$true`,
`$false` and unsupported `$` words, and quoted and numeric functors.
Clauses are disjunctions of literals, some in parentheses.  Tokens are
separated by spaces, newlines, comments or nothing, so that errors fall at
varied lines and columns.  About one unit in four is malformed: a bare
variable, mixed or chained binary connectives, an unsupported `$` word, a
quantifier block with a word that is no variable, a stray token at the
end, an unknown role, a text cut short after a random token, or a bad
character.  The last units nest at the parser's limit and one level past
it, in each way a formula nests.

Per unit, fixtures/formulas.txt holds the unit's name, role and formula,
with variables and constants told apart, or the kind of the error and its
message with its line, column and expected tokens.  The inputs are
regenerated from the seed.  The fixture is written by

    PYTHONPATH=src python tests/test_formula_fixture.py > tests/fixtures/formulas.txt
"""

import os
import random

from tptp2miz import fol, tptp
from tptp2miz.errors import TranslationError

HERE = os.path.dirname(os.path.abspath(__file__))
FORMULAS = os.path.join(HERE, "fixtures", "formulas.txt")
SEED = 1
COUNT = 400

VARIABLES = ("X", "Y", "Z1", "Xy_2")
CONSTANTS = ("a", "b", "c_0", "'c d'", "'X'", "'it\\'s'", "0", "42", "-3", "+7", "1.5")
FUNCTORS = ("f", "g", "'h i'", "'F'", "7")
PREDICATES = ("p", "q", "r_1", "'P q'", "'$p'", "9")
BINARY = ("=>", "<=", "<=>", "<~>", "~|", "~&")
NAMES = ("u", "ax_1", "'a name'", "42")
SEPARATORS = (" ", " ", " ", "", "", "\n", "  ", "\t", " % a comment\n", "/* c */")
TIGHT = frozenset("(),[]:")  # tokens that need no space on either side


def term(rng, depth=0):
    roll = rng.random()
    if roll < 0.35:
        return [rng.choice(VARIABLES)]
    if roll < 0.7 or depth > 2:
        return [rng.choice(CONSTANTS)]
    return application(rng, rng.choice(FUNCTORS), rng.randint(1, 3), depth + 1)


def application(rng, functor, arity, depth):
    tokens = [functor, "("]
    for k in range(arity):
        tokens += ([","] if k else []) + term(rng, depth)
    return tokens + [")"]


def atomic(rng):
    roll = rng.random()
    if roll < 0.4:
        return application(rng, rng.choice(PREDICATES), rng.randint(1, 3), 0)
    if roll < 0.5:
        return [rng.choice(PREDICATES)]
    if roll < 0.7:
        return term(rng) + ["="] + term(rng)
    if roll < 0.8:
        return term(rng) + ["!="] + term(rng)
    if roll < 0.9:
        return [rng.choice(("$true", "$false"))]
    return application(rng, rng.choice(PREDICATES), 0, 0)[:1]


def unitary(rng, depth):
    roll = rng.random()
    if depth > 3 or roll < 0.45:
        return atomic(rng)
    if roll < 0.6:
        return ["~"] + unitary(rng, depth + 1)
    if roll < 0.75:
        block = rng.sample(VARIABLES, rng.randint(1, 3))
        tokens = [rng.choice("!?"), "["]
        for k, name in enumerate(block):
            tokens += ([","] if k else []) + [name]
        return tokens + ["]", ":"] + unitary(rng, depth + 1)
    return ["("] + fof_formula(rng, depth + 1) + [")"]


def fof_formula(rng, depth=0):
    roll = rng.random()
    if roll < 0.3:
        return unitary(rng, depth)
    if roll < 0.6:
        op = rng.choice("&|")
        tokens = unitary(rng, depth)
        for _ in range(rng.randint(1, 3)):
            tokens += [op] + unitary(rng, depth)
        return tokens
    return unitary(rng, depth) + [rng.choice(BINARY)] + unitary(rng, depth)


def cnf_formula(rng):
    tokens = []
    for k in range(rng.randint(1, 4)):
        tokens += (["|"] if k else []) + ["~"] * rng.choice((0, 0, 1, 2)) + atomic(rng)
    return ["("] + tokens + [")"] if rng.random() < 0.3 else tokens


def malformed(rng, language, tokens):
    """The formula's tokens made wrong in one of seven ways."""
    roll = rng.random()
    if roll < 0.2:  # a bare variable, alone or as an operand
        bare = [rng.choice(VARIABLES)]
        return bare if rng.random() < 0.5 else tokens + ["|"] + bare
    if roll < 0.4 and language == "fof":  # mixed or chained binary connectives
        return (unitary(rng, 3) + [rng.choice(("&", "|", "=>"))] + unitary(rng, 3)
                + [rng.choice(("&", "|") + BINARY)] + unitary(rng, 3))
    if roll < 0.4:  # a connective a clause does not take
        return atomic(rng) + [rng.choice(("&",) + BINARY)] + atomic(rng)
    if roll < 0.55:  # a bad character in place of a token
        at = rng.randrange(len(tokens))
        return tokens[:at] + [rng.choice(("@", "^", "\\", "é", "{"))] + tokens[at + 1:]
    if roll < 0.7:  # an unsupported defined word
        return ["~"] * rng.randint(0, 1) + [rng.choice(("$distinct", "$ite", "$less")), "(", "a", ")"]
    if roll < 0.85:  # a word that is no variable in a quantifier block
        return [rng.choice("!?"), "[", "X", ",", rng.choice(("x", "'X'", "1", "$true")), "]", ":"] + tokens
    return tokens + [rng.choice(("]", ")", ",", "."))]


def joined(rng, tokens):
    """The tokens as text, each pair apart by a random separator where
    running together keeps them apart."""
    out = [tokens[0]]
    for before, after in zip(tokens, tokens[1:]):
        gap = rng.choice(SEPARATORS)
        if not gap and before not in TIGHT and after not in TIGHT:
            gap = " "
        out += [gap, after]
    return "".join(out)


def unit(rng):
    language = "fof" if rng.random() < 0.65 else "cnf"
    formula = fof_formula(rng) if language == "fof" else cnf_formula(rng)
    role = "axiom" if rng.random() < 0.7 else rng.choice(sorted(tptp.ROLES) + ["lemmas"])
    roll = rng.random()
    if roll < 0.15:
        formula = malformed(rng, language, formula)
    tokens = [language, "(", rng.choice(NAMES), ",", role, ","] + formula + [")", "."]
    if 0.15 <= roll < 0.25:  # cut short after a random token
        tokens = tokens[:rng.randint(1, len(tokens) - 1)]
    return joined(rng, tokens)


# Formulas `depth` levels deep, each from one way to nest: the atom p(c)
# has one level of its own, and so does each term's argument list.
DEEP = {
    "negations": lambda depth: "fof(u, axiom, " + "~ " * (depth - 1) + "p(c)).",
    "parentheses": lambda depth: "fof(u, axiom, " + "(" * (depth - 1) + "p(c)" + ")" * (depth - 1) + ").",
    "quantifiers": lambda depth: "fof(u, axiom, " + "![X]: " * (depth - 1) + "p(X)).",
    "terms": lambda depth: "fof(u, axiom, p(" + "f(" * (depth - 1) + "c" + ")" * depth + ").",
    "literals": lambda depth: "cnf(u, axiom, q | " + "~ " * (depth - 1) + "p(c)).",
}


def units(seed=SEED, count=COUNT):
    """The generated units, the last of them at the nesting limit and past it."""
    rng = random.Random(seed)
    deep = [make(depth) for make in DEEP.values()
            for depth in (tptp.MAX_NESTING, tptp.MAX_NESTING + 1)]
    return [unit(rng) for _ in range(count - len(deep))] + deep


def shown(node):
    """A formula with variables and constants told apart."""
    if isinstance(node, fol.Var):
        return f"Var({node.name!r})"
    if isinstance(node, fol.App):
        return f"App({node.name!r}{''.join(', ' + shown(a) for a in node.args)})"
    if isinstance(node, tuple):
        return "(" + ", ".join(map(shown, node)) + ")"
    if isinstance(node, fol.Record):
        return f"{type(node).__name__}({', '.join(shown(getattr(node, f)) for f in node._fields)})"
    return repr(node)


def reading(text):
    try:
        [found] = tptp.parse_problem(text)
    except TranslationError as exc:
        return f"{exc.kind}: {exc}"
    return f"{found.language} {found.name!r} {found.role} {shown(found.formula)}"


def formula_lines(seed=SEED, count=COUNT):
    return [f"{number} {reading(text)}" for number, text in enumerate(units(seed, count))]


def test_formulas_match_the_pinned_fixture():
    with open(FORMULAS, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert formula_lines() == expected


if __name__ == "__main__":
    print("\n".join(formula_lines()))
