"""The premise memo: it changes no verdict, it lives for one derivation
run, and it keeps the run from preparing a premise more than once, with
one atom registry for every justify and compress query of the run and
every sub-proof search.  With --no-compress no memo outlives its step."""

import collections
import contextlib
import io
import os
import weakref

import pytest

from tptp2miz import article, cli, compress, derivation, expand, fol, obvious, tptp
from tptp2miz.errors import ExpansionFailed
from tptp2miz.obvious import ObviousnessQuery, Verdict

import helpers
import test_verdict_golden
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

    def test_lazy_universe_is_the_eager_one(self):
        # The reference gathers the ground terms of every closed premise,
        # in premise order up to the cut-off, then the goal's, as if each
        # premise's were gathered when it was prepared.
        def eager(query, goal_matrix):
            found = {}
            for p in query.premises:
                found.update(fol.keyed_ground_subterms(fol.universal_closure(p)))
                if len(found) > obvious._MAX_FILL_UNIVERSE:
                    break
            else:
                found.update(fol.keyed_ground_subterms(goal_matrix))
            found.setdefault(obvious._FILL.key, obvious._FILL)
            if len(found) <= obvious._MAX_FILL_UNIVERSE:
                return [found[k] for k in sorted(found)]
            return list(found.values())

        # the sample's universes stay below the cut-off; one query passes it
        queries = [q for _, q in test_verdict_golden.sample_queries()]
        queries.append(ObviousnessQuery.make(
            [F("![X]:q(X)")] + [F(f"p(c{i})") for i in range(20)], F("q(d)")))
        sizes = []
        with obvious.PremiseMemo() as memo:
            for q in queries:
                problem = obvious._Problem.of(q.premises, q.conclusion, q.fixed_vars,
                                              obvious.Budget(2000), memo)
                universe = problem._fill_universe()
                assert universe == eager(q, problem.goal_matrix)
                sizes.append(len(universe))
        assert max(sizes[:-1]) <= obvious._MAX_FILL_UNIVERSE < sizes[-1]

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


RAISING = (
    # r(c) does not follow from p(c), so the step cannot be expanded
    "fof(a1, axiom, p(c), file('x.p', a1)).\n"
    "fof(goal, conjecture, q(c), file('x.p', goal)).\n"
    "fof(neg, negated_conjecture, ~q(c),"
    " inference(assume_negation,[status(cth)],[goal])).\n"
    "cnf(bad, plain, r(c), inference(resolution,[status(thm)],[a1])).\n"
    "cnf(f, plain, $false, inference(resolution,[status(thm)],[bad, neg])).\n"
)


def derivation_run(tmp_path, text, *options):
    """cli.main on the derivation text; its exit code and stderr."""
    path = tmp_path / "in.p"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["derivation", str(path), "-o", str(tmp_path), *options])
    return code, err.getvalue()


class TestLifetime:
    def test_build_article(self, memos):
        # without a run memo, each step's justify query and sub-proof
        # search share one, emptied when the step is justified
        model, _ = helpers.finished_article(fixture_graph())
        assert_used_and_emptied(memos, len(model.all_steps()))

    def test_build_article_with_a_memo(self, memos):
        # the justify queries use the memo given, and its caller empties it
        with obvious.PremiseMemo() as memo:
            helpers.finished_article(fixture_graph(), memo=memo)
            assert len(memo) > 0
        assert_used_and_emptied(memos, 1)

    def test_compress(self, memos):
        # compression's queries use the memo given, and its caller empties it
        model, manifest = helpers.finished_article(fixture_graph())
        del memos[:]  # the steps' own
        with obvious.PremiseMemo() as memo:
            compress.compress(model, manifest, memo)
            assert len(memo) > 0
        assert_used_and_emptied(memos, 1)

    def test_cli_main(self, memos, monkeypatch, tmp_path):
        # one memo serves justification and compression
        given = []  # the memo each phase was given
        for module, name in ((article, "build_article"), (compress, "compress")):
            def phase(*args, original=getattr(module, name), **kwargs):
                given.append(kwargs.get("memo"))
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, phase)
        with open(os.path.join(FIXTURES, "puz001+1.out"), encoding="utf-8") as handle:
            code, _ = derivation_run(tmp_path, handle.read())
        assert code == 0
        assert_used_and_emptied(memos, 1)
        assert given == [memos[0], memos[0]]

    @pytest.mark.parametrize("options, outlived", [(("--no-compress",), False), ((), True)])
    def test_no_memo_outlives_its_query_without_compression(self, monkeypatch, tmp_path,
                                                            options, outlived):
        # With --no-compress each memo is a step's own, shared by its
        # justify query and sub-proof search and emptied or gone before the
        # next query; with compression the run memo outlives every query.
        made = []  # weak references to every memo made
        filled = [set()]  # ids of the memos live and not empty after the last query
        outliving = []  # the memos still live and not empty when the next query starts

        original_init = obvious.PremiseMemo.__init__
        original_is_obvious = obvious.is_obvious

        def init(self):
            original_init(self)
            made.append(weakref.ref(self))

        def filled_now():
            return {id(m()) for m in made
                    if m() is not None and (len(m()) or m().registry.atoms)}

        def is_obvious(*args, **kwargs):
            outliving.extend(filled[0] & filled_now())
            verdict = original_is_obvious(*args, **kwargs)
            filled[0] = filled_now()
            return verdict

        monkeypatch.setattr(obvious.PremiseMemo, "__init__", init)
        monkeypatch.setattr(obvious, "is_obvious", is_obvious)
        code, _ = derivation_run(tmp_path, ground_chain(20), *options)
        assert code == 0
        assert len(made) == (21 if options else 1)  # 20 steps and the closing one
        assert bool(outliving) is outlived

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
        # the failing step's memo is emptied as the failure passes
        with pytest.raises(ExpansionFailed):
            article.build_article(derivation.build_graph(tptp.parse_problem(RAISING)))
        assert_used_and_emptied(memos, 1)

    def test_raising_run(self, memos, tmp_path):
        code, err = derivation_run(tmp_path, RAISING)
        assert code == 2 and "ExpansionFailed" in err
        assert_used_and_emptied(memos, 1)


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


def expansion_chain(n):
    """A TSTP refutation whose every step needs a sub-proof: step i
    resolves q(X) | p(i-1)(X) against the non-ground ~p(i-1)(Y) | pi(Y) | ri
    and the ground ~ri, which its justify query cannot chain through."""
    lines = ["cnf(a0, axiom, q(X) | p0(X), file('chain.p', a0))."]
    for i in range(1, n + 1):
        lines.append(f"cnf(a{i}, axiom, ~p{i - 1}(Y) | p{i}(Y) | r{i}, file('chain.p', a{i})).")
        lines.append(f"cnf(g{i}, axiom, ~r{i}, file('chain.p', g{i})).")
    lines.append(f"cnf(h, axiom, ~p{n}(c), file('chain.p', h)).")
    lines.append("fof(goal, conjecture, q(c), file('chain.p', goal)).")
    lines.append("fof(neg, negated_conjecture, ~q(c),"
                 " inference(assume_negation,[status(cth)],[goal])).")
    previous = "a0"
    for i in range(1, n + 1):
        lines.append(f"cnf(s{i}, plain, q(X) | p{i}(X),"
                     f" inference(resolution,[status(thm)],[{previous}, a{i}, g{i}])).")
        previous = f"s{i}"
    lines.append("cnf(f, plain, $false,"
                 f" inference(resolution,[status(thm)],[{previous}, h, neg])).")
    return "\n".join(lines) + "\n"


class TestComplexityGuard:
    """Counts, not timings: a run prepares each premise formula once,
    compression builds its formula index once, and every query of the run
    registers atoms in its memo's one registry.  Every deletion check here
    is a full query: deletions settled by propagation would leave a ground
    chain one query (test_propagation_skip counts those)."""

    @pytest.fixture(autouse=True)
    def full_queries(self, monkeypatch):
        monkeypatch.setattr(obvious, "covered", lambda memo, victim, refs: False)

    def test_ground_chain(self, monkeypatch):
        units = tptp.parse_problem(ground_chain(200))
        model, manifest = helpers.finished_article(derivation.build_graph(units))

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
        out, report = helpers.compressed(model, manifest)

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
        graph = derivation.build_graph(tptp.parse_problem(ground_chain(200, previous_first)))
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
        with obvious.PremiseMemo() as memo:  # the run memo, as cli opens it
            model, manifest = article.build_article(graph, memo=memo)
            out, report = compress.compress(model, manifest, memo=memo)

        assert report.steps_before == 200 and report.steps_after == 0
        assert len(registries) >= 201 + 200  # justify queries, then compression's
        assert all(mine is theirs for mine, theirs in registries)
        assert len({id(mine) for mine, _ in registries}) == 1
        # Every premise of the chain is ground.  Each query clausifies its
        # goal, and each premise is clausified once, when it is prepared.
        assert set(prepared.values()) == {1}
        assert clausified[0] == len(registries) + len(prepared)

    @pytest.mark.parametrize("previous_first", [True, False])
    def test_same_article_without_the_memo(self, monkeypatch, previous_first):
        shared = compress_chain(30, previous_first)
        original = obvious._Problem.of

        def alone(premises, conclusion, fixed_vars, budget, memo):
            return original(premises, conclusion, fixed_vars, budget, obvious.PremiseMemo())

        monkeypatch.setattr(obvious._Problem, "of", staticmethod(alone))
        unshared = compress_chain(30, previous_first)
        assert article.render_article(shared) == article.render_article(unshared)

    @pytest.mark.parametrize("run_memo", [True, False])
    def test_expanded_steps(self, monkeypatch, run_memo):
        # Every step of the chain is expanded into a sub-proof.  Its search
        # runs on the justify query's problem: it makes no registry, memo or
        # query of its own, each leaf is a problem over the memo's registry,
        # and a ground parent is clausified once, for the justify query.
        n = 20
        graph = derivation.build_graph(tptp.parse_problem(expansion_chain(n)))
        grounds = [graph.nodes[f"g{i}"].formula for i in range(1, n + 1)]
        registries = []  # the registry of every problem, leaves included
        made = []  # the registries, memos and queries built inside build_subproof
        inside = [False]
        clausified = collections.Counter()  # id(formula) -> _clausify calls
        original_init = obvious._Problem.__init__
        original_clausify = obvious._clausify
        original_build = expand.build_subproof

        def init(self, *args):
            original_init(self, *args)
            registries.append(self.registry)

        def clausify(f, registry):
            clausified[id(f)] += 1
            return original_clausify(f, registry)

        def build_subproof(*args, **kwargs):
            inside[0] = True
            try:
                return original_build(*args, **kwargs)
            finally:
                inside[0] = False

        for cls in (obvious._Registry, obvious.PremiseMemo, obvious.ObviousnessQuery):
            def counting(self, *args, cls=cls, original=cls.__init__, **kwargs):
                if inside[0]:
                    made.append(cls.__name__)
                original(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        monkeypatch.setattr(obvious._Problem, "__init__", init)
        monkeypatch.setattr(obvious, "_clausify", clausify)
        monkeypatch.setattr(expand, "build_subproof", build_subproof)
        if run_memo:
            with obvious.PremiseMemo() as memo:  # the run memo, as cli opens it
                run_registry = memo.registry
                model, manifest = article.build_article(graph, memo=memo)
                compress.compress(model, manifest, memo=memo)
            article.finish_article(model, manifest)
            assert {id(r) for r in registries} == {id(run_registry)}
        else:
            model, _ = helpers.finished_article(graph)

        assert [i.subproof is not None for i in model.all_steps()] == [True] * n
        # two problems per step at least: the justify query and a leaf
        assert len(registries) > 2 * n
        assert made == []
        assert [clausified[id(g)] for g in grounds] == [1] * n


class TestRunMemo:
    """Counts, not timings: with the run memo that cli opens, each premise
    is prepared once over the run.  build_article asks only the closing
    step's query; every step's justification is left to compression."""

    def test_ground_chain(self, monkeypatch, tmp_path):
        phase = [None]
        prepared = {"justify": [], "compress": []}  # (id(premise), fixed_vars) per call
        kept = []  # the prepared premises, so no id is reused
        original_prepare = obvious._prepare

        def prepare(premise, fixed_vars, registry):
            kept.append(premise)
            prepared[phase[0]].append((id(premise), fixed_vars))
            return original_prepare(premise, fixed_vars, registry)

        for name, module, attr in (("justify", article, "build_article"),
                                   ("compress", compress, "compress")):
            def entering(*args, name=name, original=getattr(module, attr), **kwargs):
                phase[0] = name
                return original(*args, **kwargs)
            monkeypatch.setattr(module, attr, entering)
        monkeypatch.setattr(obvious, "_prepare", prepare)
        code, err = derivation_run(tmp_path, ground_chain(200))

        assert code == 0 and "compression: 200 -> 0 steps" in err
        # the closing query's premises, s200 and the assumption
        assert len(prepared["justify"]) == len(set(prepared["justify"])) == 2
        # a0..a200 and s1..s199, each prepared once, by compression
        assert len(prepared["compress"]) == len(set(prepared["compress"])) == 400
        again = set(prepared["compress"]) & set(prepared["justify"])
        assert len(again) == 0


def compress_chain(n, previous_first):
    units = tptp.parse_problem(ground_chain(n, previous_first))
    model, manifest = helpers.finished_article(derivation.build_graph(units))
    out, report = helpers.compressed(model, manifest)
    assert report.steps_after == 0
    return out
