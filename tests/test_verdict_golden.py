"""The checker's answers on the 500-query soundness sample, pinned.

`tests/fixtures/verdicts-500.txt` holds one line per query: its seed, its
verdict kind, the certificate selection and the commitments.  A change to
the checker that should not alter a verdict must keep every line.  When a
change is meant to alter verdicts, regenerate the file with the command in
README's Testing section and review the diff.
"""

import os

from tptp2miz import obvious

import helpers

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "verdicts-500.txt")


def sample_queries():
    """The acceptance gate's soundness sample, same seeds, as (seed,
    (premises, conclusion)); each query is asked with the gate's budget of
    2000."""
    for seed in range(500):
        rng = helpers.make_rng(seed)
        premises = [helpers.random_quantified(rng) for _ in range(rng.randint(1, 3))]
        conclusion = helpers.random_quantified(rng)
        yield seed, (premises, conclusion)


def describe(seed, verdict):
    selection = " ".join(
        "{" + ", ".join(f"{var}: {term!r}" for var, term in chosen.items()) + "}"
        for chosen in verdict.selection
    )
    commitments = " ".join(
        f"{key!r} {{{', '.join(f'{var}: {term!r}' for var, term in items)}}}"
        for key, items in verdict.commitments
    )
    return f"{seed} {verdict.kind.value} | {selection or '-'} | {commitments or '-'}"


def verdict_lines(budget=2000):
    return [describe(seed, obvious.is_obvious(*q, budget=obvious.Budget(budget)))
            for seed, q in sample_queries()]


def test_sample_matches_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    got = verdict_lines()
    assert len(got) == len(expected) == 500
    for line, want in zip(got, expected):
        assert line == want


def test_sample_needs_no_more_budget():
    # no query of the sample runs out of the gate's budget: each answer is
    # the one a budget that never runs out gives
    assert verdict_lines() == verdict_lines(10**6)


if __name__ == "__main__":
    print("\n".join(verdict_lines()))
