"""The readings of generated source annotations are pinned.

Each annotation is the source of one unit `cnf(u, plain, p(c), <source>)`,
sometimes followed by a useful-info term.  The generator mixes inference
records of 2, 3 and 4 arguments, with and without the optional commas,
info given as a list or as one term, bind() hints in the info and in
`name : [...]` parents (nested in binds of two and of three arguments, with
$fot of one and of two arguments), nested inferences with and without a
parent list, file() items of one and two arguments, theory() and nested
lists, and top-level sources of other shapes: `x : y`, a list, a quoted or
numeric name, `unknown` and `introduced(...)`.  A few inputs are cut short,
and one nests past the parser's limit.

Per annotation, fixtures/sources.txt holds the repr of the unit's source
and the messages of the warnings it raised, or the kind and message of the
error, with its line and column.  The inputs are regenerated from the seed.
The fixture is written by

    PYTHONPATH=src python tests/test_source_fixture.py > tests/fixtures/sources.txt
"""

import os
import random
import warnings

from tptp2miz import tptp
from tptp2miz.errors import TranslationError

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(HERE, "fixtures", "sources.txt")
SEED = 1
COUNT = 400

NAMES = ("c_0_1", "c_0_2", "i_0_3", "ax1", "'a name'", "'it\\'s'", "42")
RULES = ("resolution", "spm", "cn", "'quoted rule'", "X", "f(r)")
VARIABLES = ("X", "Y", "X1")


def separated(rng, items):
    """The items joined by commas, or at random by spaces alone."""
    return (", " if rng.random() < 0.8 else " ").join(items)


def term(rng, depth=0):
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(VARIABLES)
    if roll < 0.6 or depth > 0:
        return rng.choice(("a", "b", "'c d'", "7"))
    if roll < 0.7:
        return f"{rng.choice(VARIABLES)} : {term(rng, depth + 1)}"
    return f"f({separated(rng, [term(rng, depth + 1) for _ in range(rng.randint(1, 2))])})"


def bind(rng, depth=0):
    roll = rng.random()
    var = rng.choice(VARIABLES + ("x", "'X'"))
    if depth < 1 and roll < 0.1:  # a bind of three arguments, looked into
        return f"bind({var}, $fot({term(rng)}), {bind(rng, depth + 1)})"
    if depth < 1 and roll < 0.2:  # a bind in a bind's value, not looked into
        return f"bind({var}, {bind(rng, depth + 1)})"
    if roll < 0.25:
        return f"bind({var})"
    if roll < 0.35:
        return f"bind({var}, $fot({term(rng)}, {term(rng)}))"
    if roll < 0.45:
        return f"bind({var}, {term(rng)})"
    return f"bind({var}, $fot({term(rng)}))"


def info_item(rng, depth):
    roll = rng.random()
    if roll < 0.35:
        return f"status({rng.choice(('thm', 'esa', 'cth', 'X'))})"
    if roll < 0.6:
        return bind(rng)
    if roll < 0.7 and depth < 2:
        return f"[{separated(rng, [info_item(rng, depth + 1) for _ in range(rng.randint(0, 2))])}]"
    if roll < 0.8:
        return f"g({bind(rng)})"
    return rng.choice(("esa", "split(1)", "status", "status(thm, esa)", "'status'(cth)"))


def info(rng, depth=0):
    if rng.random() < 0.2:
        return info_item(rng, depth)
    return f"[{separated(rng, [info_item(rng, depth) for _ in range(rng.randint(0, 2))])}]"


def parent_item(rng, depth):
    roll = rng.random()
    if roll < 0.35 or depth > 1:
        return rng.choice(NAMES)
    if roll < 0.45:
        binds = separated(rng, [bind(rng) for _ in range(rng.randint(1, 2))])
        return f"{rng.choice(NAMES)} : [{binds}]"
    if roll < 0.5:
        return f"{rng.choice(NAMES)} : {rng.choice(NAMES)}"
    if roll < 0.55:
        return f"file('dir/ax.p', {rng.choice(NAMES)})"
    if roll < 0.6:
        return rng.choice(("file(ax1)", "file('ax.p', f(a))", "file()", "file(a, b, c)"))
    if roll < 0.65:
        return rng.choice(("theory(equality)", "theory(equality, [symmetry])"))
    if roll < 0.75:
        return inference(rng, depth + 1)
    if roll < 0.8:
        return f"inference(cn, [], {rng.choice(('c_0_1', 'f(c_0_1)', 'c_0_1 : [bind(X, $fot(a))]'))})"
    if roll < 0.9:
        return parents(rng, depth + 1)
    return rng.choice(("f(c_0_1)", "'inference'(a, [], [c_0_9])", "':'(c_0_8, x)"))


def parents(rng, depth=0):
    return f"[{separated(rng, [parent_item(rng, depth) for _ in range(rng.randint(0, 3 - depth))])}]"


def inference(rng, depth=0):
    """An inference record, one in ten of another shape than
    inference(name, info, [parents]) with short info and parents."""
    roll = rng.random()
    if roll < 0.9:
        args = [rng.choice(RULES[:3]), info(rng), parents(rng, depth)]
    elif roll < 0.925:
        args = [rng.choice(RULES[3:]), info(rng, 2), parents(rng, 2)]
    elif roll < 0.95:
        args = [rng.choice(RULES), info(rng, 2)]
    elif roll < 0.975:
        args = [rng.choice(RULES), info(rng, 2), parents(rng, 2),
                rng.choice(("[]", "c_0_1", "[bind(X, $fot(a))]"))]
    else:
        args = [rng.choice(RULES), info(rng, 2), rng.choice(NAMES)]
    name = "'inference'" if rng.random() < 0.05 else "inference"
    return f"{name}({separated(rng, args)})"


def source(rng):
    roll = rng.random()
    if roll < 0.7:
        return inference(rng)
    if roll < 0.74:
        return rng.choice(("file('ax.p', ax1)", "file(ax1)", "file('ax.p', f(a))", "file()"))
    if roll < 0.78:
        return rng.choice(("unknown", "'unknown'", "42", "'a name'", "creator(esoteric)"))
    if roll < 0.82:
        return rng.choice(("introduced(definition)",
                           "introduced(definition, [new_symbols(definition, [epred1_0])])"))
    if roll < 0.86:
        return f"{rng.choice(NAMES + ('inference(cn, [], [c_0_1])',))} : {parents(rng, 1)}"
    if roll < 0.9:
        return parents(rng, 1)
    if roll < 0.95:  # cut short
        text = inference(rng)
        return text[:rng.randint(1, len(text) - 1)]
    return rng.choice(("inference(a, [], [c_0_1]",  "inference(a, [], [c_0_1)",
                       "inference(a, [], [c_0_1]))", "inference(a, , [])", "bind(X :)"))


def annotations(seed=SEED, count=COUNT):
    """The generated sources, the last of them nested past the limit."""
    rng = random.Random(seed)
    found = [source(rng) for _ in range(count - 1)]
    deep = tptp.MAX_NESTING + 1
    found.append("inference(a, [], " + "[" * deep + "c_0_1" + "]" * deep + ")")
    return found


def reading(annotation, rng):
    """The repr of the source and its warnings, or the error."""
    extra = ", [description('x'), iquote(bind(X, $fot(a)))]" if rng.random() < 0.1 else ""
    text = f"cnf(u, plain, p(c), {annotation}{extra})."
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            [unit] = tptp.parse_problem(text)
        except TranslationError as exc:
            return f"{exc.kind}: {exc}"
    return " ; ".join([repr(unit.source)] + [f"warning: {w.message}" for w in caught])


def source_lines(seed=SEED, count=COUNT):
    rng = random.Random(seed + 1)
    return [f"{number} {reading(annotation, rng)}"
            for number, annotation in enumerate(annotations(seed, count))]


def test_sources_match_the_pinned_fixture():
    with open(SOURCES, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert source_lines() == expected


if __name__ == "__main__":
    print("\n".join(source_lines()))
