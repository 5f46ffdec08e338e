"""Deletions settled by propagation (`obvious.covered`): every check the
rule settles is one the full query would answer Obvious by "propagation",
and compression gives the same article and report with the rule off.
Edge cases fall back to the full query, and on ground chains the premises
given to full queries grow no faster than the chain, each premise
prepared once."""

import collections
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tptp2miz import article, compress, derivation, fol, obvious, tptp
from tptp2miz.article import ArticleModel, DiffuseBlock, EnvironmentManifest, Item
from tptp2miz.obvious import ObviousnessQuery, Verdict

import helpers
from conftest import FIXTURES
from test_corpus_digests import _bench_run
from test_premise_memo import ground_chain

COUNTERS = ("queries", "premises", "settled")
REPORT_FIELDS = [f for f in compress.CompressionReport._fields if f not in COUNTERS]


def F(text):
    return tptp.parse_problem(f"fof(x,axiom,{text}).")[0].formula


def exact(monkeypatch):
    """Check with the full query, at every deletion check, that a citer
    marked as closed by propagation is closed so by its refs, and that each
    check the rule settles is closed so by the new refs; returns the labels
    of the victims of the settled checks."""
    settled = []
    original = compress._Checker.deletion

    def propagates(checker, refs, conclusion):
        premises = [checker.index[r] for r in refs if r in checker.index]
        verdict = obvious.is_obvious(ObviousnessQuery.make(premises, conclusion),
                                     checker.memo, obvious.Budget(checker.budget))
        return (verdict.kind, verdict.reason) == (Verdict.OBVIOUS, "propagation")

    def deletion(self, rank, refs, conclusion, victim):
        if rank in self.propagated:
            assert propagates(self, refs, conclusion), f"citer of {refs} marked"
        before = self.report.settled
        result = original(self, rank, refs, conclusion, victim)
        if self.report.settled > before:
            refs_after = compress._inline(refs, victim.label, victim.refs)
            assert propagates(self, refs_after, conclusion), \
                f"{victim.label} settled for a citer of {refs}"
            settled.append(victim.label)
        return result

    monkeypatch.setattr(compress._Checker, "deletion", deletion)
    return settled


def without_rule(model, manifest, **options):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(obvious, "covered", lambda memo, victim, refs: False)
        return helpers.compressed(model, manifest, **options)


def assert_same_as_without_rule(model, manifest, **options):
    """The article and the report are those of the full-query path; the
    checks the rule settles are the queries it saves.  Returns the report."""
    out, report = helpers.compressed(model, manifest, **options)
    full, full_report = without_rule(model, manifest, **options)
    assert article.render_article(out) == article.render_article(full)
    for name in REPORT_FIELDS:
        assert getattr(report, name) == getattr(full_report, name)
    assert full_report.settled == 0
    assert report.queries + report.settled == full_report.queries
    return report


def translate(text):
    return helpers.finished_article(derivation.build_graph(tptp.parse_problem(text)))


class TestExactness:
    def test_fixture(self, monkeypatch):
        units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
        model, manifest = helpers.finished_article(derivation.build_graph(units))
        settled = exact(monkeypatch)
        report = assert_same_as_without_rule(model, manifest)
        # none: no citer of a deleted step closes by propagation
        assert report.settled == len(settled) == 0

    def test_refute_compress_corpus(self, monkeypatch, tmp_path):
        # the seed-1 corpus, built as test_corpus_digests builds it
        run = _bench_run()
        corpus_dir = str(tmp_path / "refute-compress")
        facts = run.corpus.generate("refute-compress", 1, corpus_dir)
        settled = exact(monkeypatch)
        totals = dict.fromkeys(COUNTERS, 0)
        for job in run.jobs_for("refute-compress", corpus_dir, facts):
            assert job["args"] == []  # compression on, the default budget
            units = tptp.parse_derivation_file(job["input"])
            model, manifest = helpers.finished_article(derivation.build_graph(units))
            report = assert_same_as_without_rule(model, manifest)
            for name in COUNTERS:
                totals[name] += getattr(report, name)
        assert len(settled) == totals["settled"]
        # the full-query path asks 3,064 queries over 309,428 premises
        assert totals["queries"] + totals["settled"] == 3064
        assert totals["queries"] <= 800 and totals["premises"] <= 15000

    @given(st.integers(0, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_random_ground_derivations(self, seed):
        model, manifest = random_derivation(helpers.make_rng(seed))
        with pytest.MonkeyPatch.context() as monkeypatch:
            exact(monkeypatch)
            assert_same_as_without_rule(model, manifest)
            assert_same_as_without_rule(model, manifest, budget=1)

    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_random_citations(self, seed):
        model, manifest = random_citations(helpers.make_rng(seed))
        with pytest.MonkeyPatch.context() as monkeypatch:
            exact(monkeypatch)
            assert_same_as_without_rule(model, manifest)
            assert_same_as_without_rule(model, manifest, budget=1)


def random_citations(rng):
    """A ground article over a few atoms whose steps cite earlier items at
    random, parents repeated, so that many deletions are refused: literals,
    disjunctions, conjunctions, implications, an equation and tautologies."""
    a, b = fol.App("a"), fol.App("b")
    atoms = [fol.Atom(p, (a,)) for p in "pqr"] + [fol.Atom("p", (b,)), fol.Eq(a, b)]

    def literal():
        atom = rng.choice(atoms)
        return fol.Not(atom) if rng.random() < 0.5 else atom

    def formula():
        kind = rng.randrange(5)
        if kind == 0:
            return literal()
        if kind == 1:
            return fol.Or((literal(), literal()))
        if kind == 2:
            return fol.And((literal(), literal()))
        if kind == 3:
            return fol.Implies(literal(), literal())
        lit = literal()
        return fol.Or((lit, fol.Not(lit)))

    axioms = [Item(f"Ax{k}", formula(), (f"AXIOMS:{k}",)) for k in range(1, rng.randint(2, 5))]
    steps = []
    for k in range(1, rng.randint(6, 16)):
        labels = [i.label for i in axioms + steps]
        refs = tuple(rng.choice(labels) for _ in range(rng.randint(2, 4)))
        steps.append(Item(f"S{k}", formula(), refs))
    labels = [i.label for i in axioms + steps]
    closing = tuple(rng.choice(labels) for _ in range(rng.randint(1, 4)))
    model = ArticleModel((), axioms, steps, fol.FALSE, DiffuseBlock("S0", fol.FALSE, [], closing))
    return model, EnvironmentManifest([], [], [i.formula for i in axioms], [])


def random_derivation(rng):
    """A ground refutation article: a chain of literals, each link an
    implication, a disjunction, a conjunction with a side fact, an
    equation or a case split, with tautologies, restatements, weakenings,
    repeated and needless parents along the way.  The closing step cites
    the last literal and the assumption, or a literal and two clauses
    that make it contradictory."""
    consts = [fol.App(c) for c in "abc"]
    count = [0]

    def atom():
        count[0] += 1
        return fol.Atom(f"p{count[0]}", (rng.choice(consts),))

    axioms, steps = [], []

    def axiom(formula):
        axioms.append(Item(f"Ax{len(axioms) + 1}", formula, (f"AXIOMS:{len(axioms) + 1}",)))
        return axioms[-1].label

    def labels():
        return [i.label for i in axioms + steps]

    def step(formula, refs):
        refs = list(refs)
        if rng.random() < 0.3:
            refs.append(rng.choice(refs))  # a repeated parent
        if rng.random() < 0.3:
            refs.append(rng.choice(labels()))  # a needless one
        rng.shuffle(refs)
        steps.append(Item(f"S{len(steps) + 1}", formula, tuple(refs)))
        return steps[-1].label

    current = atom()
    prev = axiom(current)
    for _ in range(rng.randint(2, 9)):
        nxt = atom()
        kind = rng.randrange(6)
        if kind == 0:
            refs = [prev, axiom(fol.Implies(current, nxt))]
        elif kind == 1:
            refs = [prev, axiom(fol.Or((fol.Not(current), nxt)))]
        elif kind == 2:
            side = atom()
            refs = [prev, axiom(side), axiom(fol.Implies(fol.And((current, side)), nxt))]
        elif kind == 3:
            # the same predicate of another constant, through an equation
            other = rng.choice([c for c in consts if c != current.args[0]])
            nxt = fol.Atom(current.pred, (other,))
            refs = [prev, axiom(fol.Eq(current.args[0], other))]
        elif kind == 4:
            # from current | x and ~x | next, with current
            x = atom()
            refs = [prev, axiom(fol.Or((current, x))), axiom(fol.Or((fol.Not(x), nxt)))]
        else:
            # next by a case split on x: refs next | x and next | ~x
            x = atom()
            refs = [axiom(fol.Or((nxt, x))), axiom(fol.Or((nxt, fol.Not(x))))]
        prev = step(nxt, refs)
        extra = rng.randrange(4)
        if extra == 0:  # a tautology
            t = atom()
            step(fol.Or((t, fol.Not(t))), [prev])
        elif extra == 1:  # a restatement
            prev = step(nxt, [prev])
        elif extra == 2:  # a weakening, cited next to what it weakens
            weak = step(fol.Or((nxt, atom())), [prev])
            if rng.random() < 0.5:
                prev = step(nxt, [prev, weak])
        current = nxt
    if rng.random() < 0.5:
        goal, assumption = current, fol.Not(current)
        closing = (prev, "S0")
    else:
        m = atom()
        goal = assumption = fol.FALSE
        closing = (prev, axiom(fol.Or((fol.Not(current), m))),
                   axiom(fol.Or((fol.Not(current), fol.Not(m)))))
    diffuse = DiffuseBlock("S0", assumption, [], closing)
    model = ArticleModel((), axioms, steps, goal, diffuse)
    manifest = EnvironmentManifest([], [], [i.formula for i in axioms], [])
    return model, manifest


def chain_model(lemmas, axioms, closing):
    """An article from formulas: axiom items Ax1.. and lemma steps, each
    given as (label, formula, refs, sub-proof), closed by `thus` citing
    `closing`."""
    axiom_items = [Item(f"Ax{k}", f, (f"AXIOMS:{k}",)) for k, f in enumerate(axioms, 1)]
    steps = [Item(label, f, tuple(refs), subproof) for label, f, refs, subproof in lemmas]
    diffuse = DiffuseBlock("S0", fol.FALSE, [], tuple(closing))
    model = ArticleModel((), axiom_items, steps, fol.FALSE, diffuse)
    return model, EnvironmentManifest([], [], list(axioms), [])


# A sub-proof item that nothing collapses, so that what it cites stays.
PINNED = object()


class TestFallsBack:
    def test_reverse_unit_propagation_counterexample(self, monkeypatch):
        # V = l from l|a and l|~a; thus cites V (through its restatement
        # X) with ~l|m and ~l|~m.  Deleting X makes thus close by
        # propagation; the refs of V imply l but propagate nothing, so
        # deleting V takes the full query, which needs a case split.
        model, manifest = chain_model(
            [("V", F("l"), ["Ax1", "Ax2"], None), ("X", F("l"), ["V"], None)],
            [F("l | a"), F("l | ~a"), F("~l | m"), F("~l | ~m")],
            ["X", "Ax3", "Ax4"])
        settled = exact(monkeypatch)
        out, report = helpers.compressed(model, manifest)
        assert report.removed_labels == ["X", "V"] and settled == []
        assert out.diffuse.contradiction_refs == ("Ax1", "Ax2", "Ax3", "Ax4")
        # with one unit of budget the case split is Unknown: V stays
        out, report = helpers.compressed(model, manifest, budget=1)
        assert report.removed_labels == ["X"] and report.settled == 0
        assert_same_as_without_rule(model, manifest, budget=1)

    def test_rejected_deletion_keeps_the_first_citers_flag(self, monkeypatch):
        # V is cited by C1 and by thus.  With V inlined, C1 closes by
        # propagation (Ax1's opaque fact gives q and r through Ax4), but
        # thus needs two instances of Ax1, so the deletion is refused and
        # C1 keeps its refs, which close it only by a case split on s
        # (Ax6).  Deleting W, which its ref covers, must then take the full
        # query for C1.  D, a sub-proof nothing collapses, keeps C1.
        model, manifest = chain_model(
            [("W", F("w | h"), ["Ax5"], None),
             ("V", F("p(a) & g"), ["Ax1", "Ax2"], None),
             ("C1", F("q & r"), ["V", "W", "Ax6", "Ax4"], None),
             ("D", F("z"), ["C1"], PINNED)],
            [F("![X]: p(X)"), F("g"), F("~z | ~p(a) | ~p(b)"),
             F("(~(![X]: p(X)) | q) & (~(![X]: p(X)) | r)"), F("w"),
             F("(s | q) & (~s | q) & (s | r) & (~s | r)")],
            ["D", "V", "Ax1", "Ax3"])
        settled = exact(monkeypatch)
        out, report = helpers.compressed(model, manifest)
        assert report.removed_labels == ["W"] and settled == []
        assert [i.refs for i in out.lemma_items if i.formula == F("q & r")] == [
            ("S1", "Ax5", "Ax6", "Ax4")]

    def test_ref_past_the_clause_guard(self, monkeypatch):
        # V = l cites l itself and a formula of 1024 clauses: the rule
        # cannot prepare that ref, and the full query is Unknown
        blowup = F(" | ".join(f"(p{i} & q{i})" for i in range(10)))
        model, manifest = chain_model(
            [("V", F("l"), ["Ax1", "Ax2"], None), ("X", F("l"), ["V"], None)],
            [F("l"), blowup, F("~l | m"), F("~l | ~m")],
            ["X", "Ax3", "Ax4"])
        settled = exact(monkeypatch)
        out, report = helpers.compressed(model, manifest)
        assert report.removed_labels == ["X"] and settled == []
        assert out.diffuse.contradiction_refs == ("S1", "Ax3", "Ax4")
        assert report.queries == 3  # V is asked again in the second pass

    def test_budget_one_matches_the_full_query_path(self, monkeypatch):
        units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
        model, manifest = helpers.finished_article(derivation.build_graph(units))
        exact(monkeypatch)
        assert_same_as_without_rule(model, manifest, budget=1)
        recipe = [("ground", 20), ("skolem_fn", 1), ("equality", 3), ("wide", 4)]
        text, _ = _bench_run().corpus.refutation(random.Random(0), "mixed", recipe)
        model, manifest = translate(text)
        report = assert_same_as_without_rule(model, manifest, budget=1)
        assert report.settled > 0


def test_covered_clauses():
    def covered(victim, *refs):
        with obvious.PremiseMemo() as memo:
            return obvious.covered(memo, F(victim), [F(r) for r in refs])

    assert covered("l", "a", "~a | l")  # derived by propagation
    assert covered("l | m", "l")  # subsumed
    assert covered("(l | m) & n", "l", "n")  # one clause each way
    assert covered("l", "a", "~a")  # the refs conflict
    assert covered("l | ~l")  # a tautology has no clauses
    assert not covered("l", "l | a", "l | ~a")  # implied, not derived
    assert not covered("l", "l | m")  # subsumption the other way round
    assert not covered("l & m", "l")


def test_premises_grow_with_the_chain():
    """Counts, not timings: on a ground chain, the premises given to full
    queries grow at most 2.5 times from 100 to 200 segments (about 4 times
    when every deletion is a full query)."""
    run = _bench_run()
    premises = []
    for n in (100, 200):
        text, _ = run.corpus.refutation(random.Random(0), "chain", [("ground", n)])
        model, manifest = translate(text)
        out, report = helpers.compressed(model, manifest)
        assert report.steps_after == 0
        premises.append(report.premises)
    assert premises[1] <= 2.5 * premises[0]


@pytest.mark.parametrize("previous_first", [True, False])
def test_ground_chain_counts(monkeypatch, previous_first):
    """Counts with the rule on: on a 200-step ground chain every deletion
    check is a query or settled, every query registers atoms in the memo's
    one registry, and each premise is prepared and clausified once, whether
    a query or `covered` reads it."""
    units = tptp.parse_problem(ground_chain(200, previous_first))
    model, manifest = helpers.finished_article(derivation.build_graph(units))

    registries = []  # per query: (its registry, its memo's registry)
    prepared = collections.Counter()  # id(premise) -> _prepare calls
    kept = []  # the prepared premises, so no id is reused
    clausified = [0]
    original_of = obvious._Problem.of
    original_prepare = obvious._prepare
    original_clausify = obvious._clausify

    def of(premises, conclusion, fixed_vars, budget, memo):
        problem = original_of(premises, conclusion, fixed_vars, budget, memo)
        registries.append((problem.registry, memo.registry))
        return problem

    def prepare(premise, *args):
        prepared[id(premise)] += 1
        kept.append(premise)
        return original_prepare(premise, *args)

    def clausify(*args):
        clausified[0] += 1
        return original_clausify(*args)

    monkeypatch.setattr(obvious._Problem, "of", staticmethod(of))
    monkeypatch.setattr(obvious, "_prepare", prepare)
    monkeypatch.setattr(obvious, "_clausify", clausify)
    out, report = helpers.compressed(model, manifest)

    assert report.steps_before == 200 and report.steps_after == 0
    # the closing step's one query closes by propagation; the rest settle
    assert report.queries == len(registries) == 1
    assert report.settled == 199
    assert all(mine is theirs for mine, theirs in registries)
    assert len({id(mine) for mine, _ in registries}) == 1
    assert set(prepared.values()) == {1}
    assert clausified[0] == len(registries) + len(prepared)
