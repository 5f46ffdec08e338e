"""The premise memo: it changes no verdict, it lives for one compress
call, and it keeps compression from preparing a premise more than once,
with one atom registry for every query of the call."""

import collections
import os

import pytest

from tptp2miz import article, cli, compress, derivation, obvious, tptp
from tptp2miz.errors import ExpansionFailed
from tptp2miz.obvious import ObviousnessQuery, Verdict

import helpers
from conftest import FIXTURES


def F(text):
    return tptp.parse_problem(f"fof(x,axiom,{text}).")[0].formula


def answer(verdict):
    return verdict.kind, verdict.selection, verdict.commitments


class TestVerdictsUnchanged:
    def test_soundness_sample(self):
        # the 500 queries of the acceptance gate's soundness criterion
        queries = []
        for seed in range(500):
            rng = helpers.make_rng(seed)
            premises = [
                helpers.random_quantified(rng) for _ in range(rng.randint(1, 3))
            ]
            conclusion = helpers.random_quantified(rng)
            queries.append(ObviousnessQuery.make(premises, conclusion))

        def answers(memo=None):
            return [answer(obvious.is_obvious(q, memo, obvious.Budget(2000)))
                    for q in queries]

        alone = answers()
        with obvious.PremiseMemo() as memo:
            first = answers(memo)
            # the second round finds every premise prepared already
            second = answers(memo)
        assert first == alone
        assert second == alone

    @pytest.mark.parametrize("left,right,conclusion", [
        ("![X]:(p(X)=>q(X))", "![Y]:(p(Y)=>q(Y))", "p(c)=>q(c)"),
        ("![X]:(p(X)=>q(X))", "p(c) & ![Y]:(p(Y)=>q(Y))", "q(c)"),
        ("![X]:?[Z]:r(X,Z)", "![Y]:?[W]:r(Y,W)", "?[V]:r(c,V)"),
    ])
    def test_alpha_variant_premises_in_both_orders(self, left, right, conclusion):
        left, right, conclusion = F(left), F(right), F(conclusion)
        queries = [ObviousnessQuery.make(premises, conclusion)
                   for premises in ([left, right], [right, left])]
        alone = [answer(obvious.is_obvious(q)) for q in queries]
        assert all(kind is Verdict.OBVIOUS for kind, _, _ in alone)
        with obvious.PremiseMemo() as memo:
            shared = [answer(obvious.is_obvious(q, memo)) for q in queries + queries]
        assert shared == alone + alone

    def test_clause_blowup_is_unknown_on_every_call(self):
        # ten two-atom conjunctions in a disjunction: 1024 clauses
        blowup = F(" | ".join(f"(p{i}(c) & q{i}(c))" for i in range(10)))
        q = ObviousnessQuery.make([blowup, F("r(c)")], F("r(c)"))
        assert obvious.is_obvious(q).kind is Verdict.UNKNOWN
        with obvious.PremiseMemo() as memo:
            assert obvious.is_obvious(q, memo).kind is Verdict.UNKNOWN
            assert obvious.is_obvious(q, memo).kind is Verdict.UNKNOWN

    def test_memo_keeps_the_guard_that_fired(self):
        blowup = F(" | ".join(f"(p{i}(c) & q{i}(c))" for i in range(10)))
        q = ObviousnessQuery.make([blowup, F("r(c)")], F("r(c)"))
        assert obvious.is_obvious(q).reason == "clauses"
        with obvious.PremiseMemo() as memo:
            assert [obvious.is_obvious(q, memo).reason for _ in range(2)] == ["clauses"] * 2


@pytest.fixture
def memos(monkeypatch):
    """Every PremiseMemo opened in a `with` block while the test runs, with
    its largest size.  A query without a memo makes a throwaway one, which
    is never opened."""
    made = []

    class Recording(obvious.PremiseMemo):
        def __init__(self):
            super().__init__()
            self.peak = 0

        def __enter__(self):
            made.append(self)
            return super().__enter__()

        def prepare(self, premise, fixed_vars):
            try:
                return super().prepare(premise, fixed_vars)
            finally:
                self.peak = max(self.peak, len(self))

    monkeypatch.setattr(obvious, "PremiseMemo", Recording)
    return made


def fixture_graph():
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    return derivation.build_graph(units)


def assert_used_and_emptied(made, count):
    assert len(made) == count
    assert all(m.peak > 0 for m in made)
    # the registry is dropped with the prepared premises
    assert all(len(m) == 0 and not m.registry.atoms for m in made)


class TestLifetime:
    def test_build_article(self, memos):
        # justify queries cite parents no other step cites: no shared memo
        article.build_article(fixture_graph())
        assert_used_and_emptied(memos, 0)

    def test_compress(self, memos):
        model, manifest = article.build_article(fixture_graph())
        compress.compress(model, manifest)
        assert_used_and_emptied(memos, 1)

    def test_cli_main(self, memos, tmp_path, capsys):
        code = cli.main(["derivation", os.path.join(FIXTURES, "puz001+1.out"),
                         "-o", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        assert_used_and_emptied(memos, 1)

    def test_emptied_on_raise(self):
        memo = obvious.PremiseMemo()
        with pytest.raises(RuntimeError):
            with memo:
                memo.prepare(F("![X]:p(X)"), ())
                memo.prepare(F("q(c)"), ())
                assert len(memo) == 2 and len(memo.registry.atoms) == 2
                raise RuntimeError()
        assert len(memo) == 0
        assert not memo.registry.atoms

    def test_raising_call(self, memos):
        # r(c) does not follow from p(c), so the step cannot be expanded
        units = tptp.parse_problem(
            "fof(a1, axiom, p(c), file('x.p', a1)).\n"
            "fof(goal, conjecture, q(c), file('x.p', goal)).\n"
            "fof(neg, negated_conjecture, ~q(c),"
            " inference(assume_negation,[status(cth)],[goal])).\n"
            "cnf(bad, plain, r(c), inference(resolution,[status(thm)],[a1])).\n"
            "cnf(f, plain, $false, inference(resolution,[status(thm)],[bad, neg])).\n"
        )
        with pytest.raises(ExpansionFailed):
            article.build_article(derivation.build_graph(units))
        assert_used_and_emptied(memos, 0)


def ground_chain(n, previous_first=True):
    """A TSTP refutation: p0(c) and n implications p(i-1)(c) => pi(c)
    derive pn(c) step by step, against the conjecture's negation.  Step i
    cites the step before it and then axiom i, or the other way round."""
    lines = ["fof(a0, axiom, p0(c), file('chain.p', a0))."]
    lines += [f"fof(a{i}, axiom, (p{i - 1}(c) => p{i}(c)), file('chain.p', a{i}))."
              for i in range(1, n + 1)]
    lines.append(f"fof(goal, conjecture, p{n}(c), file('chain.p', goal)).")
    lines.append(f"fof(neg, negated_conjecture, ~p{n}(c),"
                 " inference(assume_negation,[status(cth)],[goal])).")
    previous = "a0"
    for i in range(1, n + 1):
        parents = f"{previous}, a{i}" if previous_first else f"a{i}, {previous}"
        lines.append(f"cnf(s{i}, plain, p{i}(c),"
                     f" inference(resolution,[status(thm)],[{parents}])).")
        previous = f"s{i}"
    lines.append("cnf(f, plain, $false,"
                 f" inference(resolution,[status(thm)],[{previous}, neg])).")
    return "\n".join(lines) + "\n"


class TestComplexityGuard:
    """Counts, not timings: compression prepares each premise formula once,
    builds its formula index once, and every query of the call registers
    atoms in its memo's one registry.  Every deletion check here is a full
    query: deletions settled by propagation would leave a ground chain one
    query (test_propagation_skip counts those)."""

    @pytest.fixture(autouse=True)
    def full_queries(self, monkeypatch):
        monkeypatch.setattr(obvious, "covered", lambda memo, victim, refs: False)

    def test_ground_chain(self, monkeypatch):
        units = tptp.parse_problem(ground_chain(200))
        model, manifest = article.build_article(derivation.build_graph(units))

        counts = {"clausify": 0, "queries": 0, "index": 0}
        premises = {}  # id -> formula: distinct premise objects queried

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        original_is_obvious = obvious.is_obvious

        def is_obvious(query, *args, **kwargs):
            counts["queries"] += 1
            premises.update((id(p), p) for p in query.premises)
            return original_is_obvious(query, *args, **kwargs)

        monkeypatch.setattr(obvious, "_clausify", counting("clausify", obvious._clausify))
        monkeypatch.setattr(obvious, "is_obvious", is_obvious)
        monkeypatch.setattr(compress, "_formula_index",
                            counting("index", compress._formula_index))
        out, report = compress.compress(model, manifest)

        assert report.steps_before == 200 and report.steps_after == 0
        assert counts["queries"] >= 200
        # every query clausifies its goal once; the rest are premises
        assert counts["clausify"] - counts["queries"] <= len(premises)
        assert counts["index"] == 1

    @pytest.mark.parametrize("previous_first", [True, False])
    def test_one_registry_and_one_clausify_per_premise(self, monkeypatch,
                                                       previous_first):
        # Deleting step i replaces its label in the closing query by its
        # refs, so consecutive queries share all but a few premises, first
        # or last depending on the citation order.
        units = tptp.parse_problem(ground_chain(200, previous_first))
        model, manifest = article.build_article(derivation.build_graph(units))

        registries = []  # per query: (its registry, its memo's registry)
        prepared = collections.Counter()  # id(premise) -> _prepare calls
        kept = []  # the prepared premises, so no id is reused
        clausified = [0]
        original_init = obvious._Problem.__init__
        original_prepare = obvious._prepare
        original_clausify = obvious._clausify

        def init(self, premises, conclusion, fixed_vars, budget, memo=None):
            original_init(self, premises, conclusion, fixed_vars, budget, memo)
            registries.append((self.registry, getattr(memo, "registry", None)))

        def prepare(premise, *args):
            prepared[id(premise)] += 1
            kept.append(premise)
            return original_prepare(premise, *args)

        def clausify(*args):
            clausified[0] += 1
            return original_clausify(*args)

        monkeypatch.setattr(obvious._Problem, "__init__", init)
        monkeypatch.setattr(obvious, "_prepare", prepare)
        monkeypatch.setattr(obvious, "_clausify", clausify)
        out, report = compress.compress(model, manifest)

        assert report.steps_before == 200 and report.steps_after == 0
        assert len(registries) >= 200
        assert all(mine is theirs for mine, theirs in registries)
        assert len({id(mine) for mine, _ in registries}) == 1
        # Every premise of the chain is ground.  Each query clausifies its
        # goal, and each premise is clausified once, when it is prepared.
        assert set(prepared.values()) == {1}
        assert clausified[0] == len(registries) + len(prepared)

    @pytest.mark.parametrize("previous_first", [True, False])
    def test_same_article_without_the_memo(self, monkeypatch, previous_first):
        shared = compress_chain(30, previous_first)
        original = obvious._Problem.__init__

        def alone(self, premises, conclusion, fixed_vars, budget, memo=None):
            original(self, premises, conclusion, fixed_vars, budget,
                     obvious.PremiseMemo())

        monkeypatch.setattr(obvious._Problem, "__init__", alone)
        unshared = compress_chain(30, previous_first)
        assert article.render_article(shared) == article.render_article(unshared)


def compress_chain(n, previous_first):
    units = tptp.parse_problem(ground_chain(n, previous_first))
    model, manifest = article.build_article(derivation.build_graph(units))
    out, report = compress.compress(model, manifest)
    assert report.steps_after == 0
    return out
