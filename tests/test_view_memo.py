"""The per-query memos: within one query, each branch view is built once
per distinct assignment, each instance is made and compiled once, and the
article does not change."""

import collections
import os

from tptp2miz import article, compress, derivation, obvious, tptp

from conftest import FIXTURES


def test_fixture_builds_each_view_once(monkeypatch):
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    model, manifest = article.build_article(derivation.build_graph(units))

    original_is_obvious = obvious.is_obvious
    original_branches = obvious._dpll_branches
    original_view = obvious._make_branch_view
    query = [0]
    builds = [0]
    # (query, assignment as a set of (atom key, value)) pairs
    branches, distinct, open_branches = set(), set(), set()

    def is_obvious(q, *args, **kwargs):
        query[0] += 1
        return original_is_obvious(q, *args, **kwargs)

    def dpll_branches(clauses, budget):
        found = original_branches(clauses, budget)
        branches.update((query[0], frozenset(b.items())) for b in found)
        return found

    def make_branch_view(assignment, registry):
        builds[0] += 1
        triple = (query[0], frozenset(assignment.items()))
        distinct.add(triple)
        view = original_view(assignment, registry)
        if view is not None and triple in branches:
            open_branches.add(triple)
        return view

    monkeypatch.setattr(obvious, "is_obvious", is_obvious)
    monkeypatch.setattr(obvious, "_dpll_branches", dpll_branches)
    monkeypatch.setattr(obvious, "_make_branch_view", make_branch_view)
    out, _ = compress.compress(model, manifest)

    assert open_branches
    # without the memo this fixture builds 4,154 views for 187 assignments
    assert builds[0] <= len(distinct) + len(open_branches)
    with open(os.path.join(FIXTURES, "puz001+1.miz"), encoding="utf-8") as handle:
        assert article.render_article(out) == handle.read()


def test_fixture_compiles_each_instance_once(monkeypatch):
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    model, manifest = article.build_article(derivation.build_graph(units))

    original_is_obvious = obvious.is_obvious
    original_instance = obvious.instance_formula
    original_nnf = obvious._nnf
    query = [0]
    made = collections.Counter()  # (query, unit, substitution) -> instances made
    compiled = collections.Counter()  # the same -> normal forms of the instance
    instances = {}  # id -> (instance, (query, unit, substitution))

    def is_obvious(q, *args, **kwargs):
        query[0] += 1
        return original_is_obvious(q, *args, **kwargs)

    def instance_formula(unit, subst):
        inst = original_instance(unit, subst)
        triple = (query[0], id(unit), tuple(sorted((v, t.key) for v, t in subst.items())))
        made[triple] += 1
        instances[id(inst)] = (inst, triple)
        return inst

    def nnf(f):
        hit = instances.get(id(f))
        if hit is not None and hit[0] is f:
            compiled[hit[1]] += 1
        return original_nnf(f)

    monkeypatch.setattr(obvious, "is_obvious", is_obvious)
    monkeypatch.setattr(obvious, "instance_formula", instance_formula)
    monkeypatch.setattr(obvious, "_nnf", nnf)
    out, _ = compress.compress(model, manifest)

    assert made and compiled
    assert max(made.values()) == 1
    assert max(compiled.values()) == 1
    with open(os.path.join(FIXTURES, "puz001+1.miz"), encoding="utf-8") as handle:
        assert article.render_article(out) == handle.read()
