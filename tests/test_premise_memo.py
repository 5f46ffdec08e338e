"""The premise memo: it changes no verdict, it lives for one compress
call, and it keeps compression from preparing a premise more than once or
merging again the premises a query shares with the one before it."""

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
            queries.append(ObviousnessQuery.make(premises, conclusion, budget=2000))
        alone = [answer(obvious.is_obvious(q)) for q in queries]
        with obvious.PremiseMemo() as memo:
            first = [answer(obvious.is_obvious(q, memo)) for q in queries]
            # the second round finds every premise prepared already
            second = [answer(obvious.is_obvious(q, memo)) for q in queries]
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


@pytest.fixture
def memos(monkeypatch):
    """Every PremiseMemo made while the test runs, with its largest size."""
    made = []

    class Recording(obvious.PremiseMemo):
        def __init__(self):
            super().__init__()
            self.peak = 0
            made.append(self)

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
    assert all(m.peak > 0 and m.merged > 0 for m in made)
    assert all(len(m) == 0 for m in made)
    # the last query's merge is dropped with the prepared premises
    assert all(not m._parts and not m._sizes and m._last == ([], {}, {})
               for m in made)


class TestLifetime:
    def test_build_article(self, memos):
        # justify queries cite parents no other step cites: no memo
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
                parts = [memo.prepare(F("![X]:p(X)"), ()), memo.prepare(F("q(c)"), ())]
                memo.merge(parts)
                assert len(memo) == 2 and memo._parts
                raise RuntimeError()
        assert len(memo) == 0
        assert not memo._parts and memo._last == ([], {}, {})

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
    builds its formula index once, and merges premises a query shares with
    the one before it once."""

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

    # Deleting step i replaces its label in the closing query by its refs,
    # in place.  Each query merges only the premises past the longest start
    # it shares with the query before it.

    @pytest.mark.parametrize("previous_first", [True, False])
    def test_merges_only_the_delta(self, merges, previous_first):
        compress_chain(200, previous_first)
        assert merges
        assert all(merged == parts - shared for parts, shared, merged in merges)

    def test_linear_when_steps_cite_their_axiom_first(self, merges):
        # Step i cites (a_i, s_(i-1)), so the closing query grows by a_i in
        # front of the step that replaces s_i and keeps its start.  It
        # reaches 202 premises, yet the compression merges 3 per step.
        # Citing (s_(i-1), a_i) puts each change at the start, and the
        # merge stays quadratic on that chain (CHANGES.md).
        compress_chain(200, previous_first=False)
        assert max(parts for parts, _, _ in merges) > 200
        assert sum(merged for _, _, merged in merges) <= 4 * 200

    @pytest.mark.parametrize("previous_first", [True, False])
    def test_same_article_without_the_memo(self, monkeypatch, previous_first):
        shared = compress_chain(30, previous_first)
        original = obvious._Problem.__init__

        def alone(self, premises, conclusion, fixed_vars, budget, memo=None):
            original(self, premises, conclusion, fixed_vars, budget)

        monkeypatch.setattr(obvious._Problem, "__init__", alone)
        unshared = compress_chain(30, previous_first)
        assert article.render_article(shared) == article.render_article(unshared)


def compress_chain(n, previous_first):
    units = tptp.parse_problem(ground_chain(n, previous_first))
    model, manifest = article.build_article(derivation.build_graph(units))
    out, report = compress.compress(model, manifest)
    assert report.steps_after == 0
    return out


@pytest.fixture
def merges(monkeypatch):
    """Each premise merge as (parts, parts it shares with the start of the
    previous merge, parts it merged rather than copied)."""
    made = []
    original = obvious.PremiseMemo.merge
    last = []

    def merge(self, parts):
        shared = 0
        while shared < min(len(parts), len(last)) and parts[shared] is last[shared]:
            shared += 1
        before = self.merged
        out = original(self, parts)
        made.append((len(parts), shared, self.merged - before))
        last[:] = parts
        return out

    monkeypatch.setattr(obvious.PremiseMemo, "merge", merge)
    return made
