"""Expansions of generated resolution steps are pinned.

Each step resolves a clause L1|...|Lk|P against a clause ~P'|M1|... whose
variables are renamed apart, cites 0 to 2 unrelated clauses too, and
concludes the resolvent under a random substitution whose terms may hold
the variable X1.  About 30% of the steps carry a hint, as a prover's
bind() records give one, and half run at a budget of 300 units.

Per step, fixtures/expansions.txt holds the instances build_subproof
chooses, as parent index and TPTP formula, or ExpansionFailed, and the
budget it used, so a change to the instance search that should choose the
same instances at the same cost is checked to.  The fixture is written by

    PYTHONPATH=src python tests/test_expansion_fixture.py > tests/fixtures/expansions.txt
"""

import os
import random

from tptp2miz import expand, fol, obvious, tptp
from tptp2miz.errors import ExpansionFailed

from test_expand import problem, verify_subproof

HERE = os.path.dirname(os.path.abspath(__file__))
EXPANSIONS = os.path.join(HERE, "fixtures", "expansions.txt")
SEED = 1
COUNT = 1000

PREDICATES = (("p", 1), ("q", 1), ("r", 2), ("t", 1), ("s", 0))
CONSTANTS = ("a", "b", "c")
FIRST = ("X", "Y", "Z")
SECOND = ("X2", "Y2", "Z2")  # the first clause's names, renamed apart


def random_term(rng, variables, nested=False):
    roll = rng.random()
    if variables and roll < 0.4:
        return fol.Var(rng.choice(variables))
    if not nested and roll < 0.6:
        return fol.App("f", (random_term(rng, variables, True),))
    return fol.App(rng.choice(CONSTANTS))


def random_atom(rng, variables):
    pred, arity = rng.choice(PREDICATES)
    return fol.Atom(pred, tuple(random_term(rng, variables) for _ in range(arity)))


def random_literal(rng, variables):
    atom = random_atom(rng, variables)
    return fol.Not(atom) if rng.random() < 0.5 else atom


def with_literal(rng, literals, literal):
    """The literals with one more at a random position."""
    at = rng.randint(0, len(literals))
    return literals[:at] + [literal] + literals[at:]


def resolution_step(rng):
    """(parents, conclusion, hint, budget limit) of one generated step."""
    resolved = random_atom(rng, FIRST)
    renamed = fol.apply_substitution(
        {v: fol.Var(w) for v, w in zip(FIRST, SECOND)}, resolved)
    positive = rng.random() < 0.5
    side = [random_literal(rng, FIRST) for _ in range(rng.randint(0, 2))]
    other = [random_literal(rng, SECOND) for _ in range(rng.randint(0, 2))]
    first = with_literal(rng, side, resolved if positive else fol.Not(resolved))
    second = with_literal(rng, other, fol.Not(renamed) if positive else renamed)
    # a substitution that unifies the resolved atoms, its terms over X1
    theta = {v: random_term(rng, ("X1",)) for v in FIRST}
    for v, w in zip(FIRST, SECOND):
        theta[w] = theta[v] if v in resolved.free else random_term(rng, ("X1",))
    conclusion = fol.join(fol.Or, [fol.apply_substitution(theta, lit)
                                   for lit in side + other])
    parents = [fol.join(fol.Or, first), fol.join(fol.Or, second)]
    for _ in range(rng.randint(0, 2)):
        names = rng.choice((FIRST, SECOND))
        parents.append(fol.join(fol.Or, [random_literal(rng, names)
                                         for _ in range(rng.randint(1, 2))]))
    rng.shuffle(parents)
    hint = {}
    if rng.random() < 0.3:
        bound = sorted(v for p in parents for v in p.free)
        hint = {v: theta[v] for v in rng.sample(bound, min(len(bound), rng.randint(1, 2)))}
    limit = 300 if rng.random() < 0.5 else obvious.DEFAULT_BUDGET
    return parents, conclusion, hint, limit


def expansion_lines(seed=SEED, count=COUNT):
    """One line per step: its number, then each instance as parent index
    and TPTP formula, or ExpansionFailed, then the budget used.  Every
    sub-proof is checked to justify its step."""
    rng = random.Random(seed)
    lines = []
    for number in range(count):
        parents, conclusion, hint, limit = resolution_step(rng)
        budget = obvious.Budget(limit)
        try:
            with obvious.PremiseMemo() as memo:
                sub = expand.build_subproof(f"s{number}",
                                            problem(parents, conclusion, budget, memo), hint)
        except ExpansionFailed:
            found = ["ExpansionFailed"]
        else:
            verify_subproof(sub, parents, conclusion)
            found = [f"{s.parent_index}:{tptp.format_formula(s.formula)}"
                     for s in sub.instances]
        lines.append(" ; ".join([str(number)] + found + [f"used {budget.used}"]))
    return lines


def test_expansions_match_the_pinned_fixture():
    with open(EXPANSIONS, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert expansion_lines() == expected


if __name__ == "__main__":
    print("\n".join(expansion_lines()))
