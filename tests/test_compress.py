import os
import random

from hypothesis import given, settings, strategies as st

from tptp2miz import article, compress, derivation, fol, obvious, tptp

import helpers
from conftest import FIXTURES
from test_corpus_digests import _bench_run
from test_deferred_justification import CASES


def F(text):
    return tptp.parse_problem(f"fof(x,axiom,{text}).")[0].formula


def fixture_article():
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    graph = derivation.build_graph(units)
    return helpers.finished_article(graph)


class TestInline:
    def test_label_replaced_in_place(self):
        assert compress._inline(("A", "V", "B"), "V", ("C", "D")) == ("A", "C", "D", "B")

    def test_duplicates_dropped_first_occurrence_kept(self):
        refs = ("A", "B", "A", "V", "B")
        assert compress._inline(refs, "V", ("C", "D", "C")) == ("A", "B", "C", "D")

    def test_replacement_already_cited_is_not_repeated(self):
        # B and A are cited already, before and after the label
        assert compress._inline(("A", "V", "B"), "V", ("B", "C", "A")) == ("A", "C", "B")

    def test_label_cited_twice_is_replaced_once(self):
        assert compress._inline(("V", "A", "V"), "V", ("C",)) == ("C", "A")

    def test_absent_label_leaves_refs_unchanged(self):
        assert compress._inline(("A", "B"), "V", ("C",)) == ("A", "B")


class TestSplice:
    """_Refs.splice edits refs in place into what _inline builds anew."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_splices_are_inlines(self, seed):
        rng = helpers.make_rng(seed)
        names = [f"L{i}" for i in range(10)]
        expected = tuple(rng.choice(names) for _ in range(rng.randint(1, 8)))
        refs = compress._Refs(expected)
        while expected and rng.random() < 0.9:
            label = rng.choice(expected)
            replacement = tuple(x for x in (rng.choice(names) for _ in range(rng.randint(0, 4)))
                                if x != label)
            if rng.random() < 0.5:  # a deleted step's refs are being edited too
                replacement = compress._Refs(replacement)
            expected = compress._inline(expected, label, replacement)
            refs.splice(label, replacement)
            if rng.random() < 0.5:
                assert tuple(refs) == expected
        assert tuple(refs) == expected

    @staticmethod
    def ref_entries_touched(monkeypatch, n):
        """The ref entries that compression lists, links or splices on a
        ("ground", n) refutation, and the steps it leaves."""
        text, _ = _bench_run().corpus.refutation(random.Random(n), "chain", [("ground", n)])
        model, manifest = helpers.finished_article(derivation.build_graph(tptp.parse_problem(text)))
        touched = [0]
        listed, spliced = compress._Refs.__iter__, compress._Refs.splice

        def count_listed(self):
            labels = tuple(listed(self))
            touched[0] += len(labels)
            return iter(labels)

        def count_spliced(self, label, replacement):
            if self._next is None:  # linked at its first splice
                touched[0] += len(self._labels)
            touched[0] += 1
            return spliced(self, label, replacement)

        with monkeypatch.context() as patch:
            patch.setattr(compress._Refs, "__iter__", count_listed)
            patch.setattr(compress._Refs, "splice", count_spliced)
            out, _ = helpers.compressed(model, manifest)
        return touched[0], len(out.all_steps())

    def test_long_chain_is_linear(self, monkeypatch):
        # the closing step absorbs one deleted step after another; rebuilding
        # its refs at each deletion touched a number of entries quadratic in n
        small, left = self.ref_entries_touched(monkeypatch, 1000)
        large, _ = self.ref_entries_touched(monkeypatch, 2000)
        assert left == 0
        assert large <= 2.1 * small


class TestChainExample:
    def build(self):
        # phi'' --(conjunction elim)--> phi' --(restatement)--> phi
        conj = F("p(c) & q(c)")
        phi = F("q(c)")
        axiom = article.Item("Ax1", conj, ("AXIOMS:1",))
        s1 = article.Item("S1", phi, ("Ax1",))
        s2 = article.Item("S2", phi, ("S1",))
        diffuse = article.DiffuseBlock("S3", fol.Not(phi), [], ("S2", "S3"))
        model = article.ArticleModel((), [axiom], [s1, s2], phi, diffuse)
        manifest = article.EnvironmentManifest(
            [("c", 0)], [("p", 1), ("q", 1)], [conj], []
        )
        return model, manifest

    def test_chain_collapses_to_direct_citation(self):
        model, manifest = self.build()
        out, report = helpers.compressed(model, manifest)
        assert out.lemma_items == []
        assert out.diffuse.contradiction_refs == ("Ax1", "S1")
        assert report.steps_before == 2
        assert report.steps_after == 0
        assert helpers.recheck(out, manifest) == []


class TestFixtureCompression:
    def test_compresses_and_revalidates(self):
        model, manifest = fixture_article()
        before = len(model.all_steps())
        out, report = helpers.compressed(model, manifest)
        assert report.steps_before == before
        assert report.steps_after == len(out.all_steps())
        assert report.steps_after <= before
        assert report.passes <= before + 1
        assert helpers.recheck(out, manifest) == []

    def test_idempotent(self):
        model, manifest = fixture_article()
        once, report1 = helpers.compressed(model, manifest)
        twice, report2 = helpers.compressed(once, manifest)
        assert report2.removed_labels == []
        assert article.render_article(once) == article.render_article(twice)

    def test_theorem_axioms_and_formulas_preserved(self):
        model, manifest = fixture_article()
        out, _ = helpers.compressed(model, manifest)
        assert out.theorem == model.theorem
        assert [i.formula for i in out.axiom_items] == [
            i.formula for i in model.axiom_items
        ]
        surviving = {fol.debruijn(i.formula) for i in out.all_steps()}
        original = {fol.debruijn(i.formula) for i in model.all_steps()}
        assert surviving <= original

    def test_max_passes_limits_work(self):
        model, manifest = fixture_article()
        out, report = helpers.compressed(model, manifest, max_passes=1)
        assert report.passes == 1
        assert helpers.recheck(out, manifest) == []


class TestRandomArticles:
    def test_fixed_point_properties(self):
        failures = []
        for seed in range(30):
            rng = helpers.make_rng(seed)
            model, manifest = helpers.random_article(rng)
            before = len(model.all_steps())
            out, report = helpers.compressed(model, manifest)
            assert report.passes <= before + 1
            again, report2 = helpers.compressed(out, manifest)
            if report2.removed_labels:
                failures.append(seed)
            assert helpers.recheck(out, manifest) == []
        assert failures == []


def kept_subproof_inputs():
    """Refutations whose steps keep sub-proofs through compression: the
    small case, and a generated one dense in non-ground resolution steps."""
    text, _ = _bench_run().corpus.refutation(
        random.Random(1), "ng", [("nonground", 20), ("nonground", 10)])
    return [CASES["kept_steps_with_subproof"], text]


def draft_and_compressed(text, monkeypatch):
    """build_article's draft, its compressed copy, and the (refs,
    conclusion) of every query compression asked, under one run memo."""
    asked = []
    original = compress._Checker.query

    def query(self, refs, conclusion):
        asked.append((tuple(refs), conclusion))
        return original(self, refs, conclusion)

    monkeypatch.setattr(compress._Checker, "query", query)
    graph = derivation.build_graph(tptp.parse_problem(text))
    with obvious.PremiseMemo() as memo:
        draft, manifest = article.build_article(graph, memo=memo)
        out, _ = compress.compress(draft, manifest, memo)
    article.finish_article(draft, manifest)
    return draft, out, asked


class TestKeptSubproofs:
    """Compression only deletes steps: a step that keeps a sub-proof keeps
    the refs it was justified from, so asking whether they make it obvious
    would repeat its failed justify query."""

    def test_no_query_repeats_a_kept_steps_justify_query(self, monkeypatch):
        for text in kept_subproof_inputs():
            draft, out, asked = draft_and_compressed(text, monkeypatch)
            by_name = {item.source_name: item for item in draft.all_steps()}
            kept = [by_name[item.source_name] for item in out.all_steps()
                    if item.subproof is not None]
            assert kept
            for step in kept:
                assert not any(refs == step.refs and conclusion is step.formula
                               for refs, conclusion in asked), step.label

    def test_kept_subproof_steps_keep_their_draft_refs(self, monkeypatch):
        for text in kept_subproof_inputs():
            draft, out, _ = draft_and_compressed(text, monkeypatch)
            relabel = {draft.diffuse.assumption_label: out.diffuse.assumption_label}
            by_name = {item.source_name: item for item in draft.all_steps()}
            for item in out.all_steps():
                relabel[by_name[item.source_name].label] = item.label
            kept = [item for item in out.all_steps() if item.subproof is not None]
            assert kept
            for item in kept:
                step = by_name[item.source_name]
                assert item.subproof == step.subproof
                assert item.refs == tuple(relabel.get(r, r) for r in step.refs)
