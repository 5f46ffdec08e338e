import collections
import contextlib
import io
import os

import networkx as nx
import pytest

from tptp2miz import cli, derivation, fol, tptp
from tptp2miz.derivation import StepClass
from tptp2miz.errors import CycleDetected, DuplicateName, MissingParent

import helpers
from conftest import FIXTURES


def load_fixture_graph():
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    return derivation.build_graph(units)


def unit(name, formula, rule=None, parents=(), role="plain", lang="fof"):
    source = None
    if rule is not None:
        source = tptp.InferenceRecord(rule, tuple(parents))
    return tptp.AnnotatedFormula(name, lang, role, formula, source)


P_C = fol.Atom("p", (fol.App("c"),))
Q_C = fol.Atom("q", (fol.App("c"),))


class TestBuildGraph:
    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            derivation.build_graph([unit("a", P_C), unit("a", Q_C)])

    def test_missing_parent(self):
        with pytest.raises(MissingParent):
            derivation.build_graph([unit("a", P_C, "resolution", ["ghost"])])

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected) as info:
            derivation.build_graph(
                [
                    unit("a", P_C, "resolution", ["b"]),
                    unit("b", Q_C, "resolution", ["a"]),
                ]
            )
        assert set(info.value.cycle) >= {"a", "b"}

    def test_sink_is_first_falsum_in_topo_order(self):
        g = derivation.build_graph(
            [
                unit("a", P_C),
                unit("f1", fol.FALSE, "sr", ["a"]),
                unit("f2", fol.FALSE, "sr", ["a"]),
            ]
        )
        assert g.sink == "f1"


class TestTopologicalOrder:
    def test_respects_edges_oracle(self):
        g = load_fixture_graph()
        order = derivation.topological_order(g)
        dag = nx.DiGraph()
        dag.add_nodes_from(g.nodes)
        for child, parents in g.parents.items():
            for p in parents:
                dag.add_edge(p, child)
        assert nx.is_directed_acyclic_graph(dag)
        position = {n: i for i, n in enumerate(order)}
        for parent, child in dag.edges:
            assert position[parent] < position[child]

    def test_tie_break_by_input_order(self):
        g = derivation.build_graph([unit("b", P_C), unit("a", Q_C)])
        assert derivation.topological_order(g) == ["b", "a"]

    def test_one_sort_per_derivation_run(self, monkeypatch):
        # the graph keeps the order it was checked for cycles with
        sorts = []
        sort = derivation.topological_order
        monkeypatch.setattr(derivation, "topological_order",
                            lambda g: sorts.append(g) or sort(g))
        g = load_fixture_graph()
        assert g.order == sort(g)
        helpers.finished_article(g)
        assert sorts == [g]


class TestClassification:
    def test_fixture_classes(self):
        g = load_fixture_graph()
        classes = derivation.classify_all(g)
        assert classes["c_0_1"] is StepClass.AXIOM
        assert classes["c_0_11"] is StepClass.CONJECTURE
        assert classes["c_0_12"] is StepClass.NEGATED_CONJECTURE
        assert classes["c_0_13"] is StepClass.SKOLEMIZATION
        assert classes["c_0_16"] is StepClass.SKOLEMIZATION
        assert classes["c_0_14"] is StepClass.CLAUSIFICATION
        assert classes["c_0_18"] is StepClass.CLAUSIFICATION
        assert classes["c_0_27"] is StepClass.INFERENCE
        assert classes["c_0_42"] is StepClass.FINAL_CONTRADICTION

    def test_structural_skolem_test_overrides_rule_name(self):
        # a step labeled as plain rewriting that smuggles in a fresh
        # function symbol is still a skolemization
        exists = fol.Exists(("Y",), fol.Atom("p", (fol.Var("Y"),)))
        skolemized = fol.Atom("p", (fol.App("esk9"),))
        g = derivation.build_graph(
            [
                tptp.AnnotatedFormula(
                    "a", "fof", "axiom", exists, tptp.FileSource("a", "x.p")
                ),
                unit("b", skolemized, "rw", ["a"]),
            ]
        )
        assert derivation.classify_step("b", g) is StepClass.SKOLEMIZATION

    def test_exactly_one_final_contradiction(self):
        g = derivation.build_graph(
            [
                unit("a", P_C),
                unit("f1", fol.FALSE, "sr", ["a"]),
                unit("f2", fol.FALSE, "sr", ["a"]),
            ]
        )
        classes = derivation.classify_all(g)
        finals = [n for n, c in classes.items() if c is StepClass.FINAL_CONTRADICTION]
        assert finals == ["f1"]


class TestPartitions:
    def test_conjecture_dependence_matches_reachability_oracle(self):
        g = load_fixture_graph()
        depends = derivation.mark_conjecture_dependence(g, derivation.classify_all(g))
        dag = nx.DiGraph()
        for child, parents in g.parents.items():
            for p in parents:
                dag.add_edge(p, child)
        reachable = {"c_0_11", "c_0_12"} | nx.descendants(dag, "c_0_11")
        for name in g.nodes:
            assert depends[name] == (name in reachable)

    def test_used_matches_ancestor_oracle(self):
        g = load_fixture_graph()
        used = derivation.mark_used(g)
        dag = nx.DiGraph()
        dag.add_nodes_from(g.nodes)
        for child, parents in g.parents.items():
            for p in parents:
                dag.add_edge(p, child)
        keep = {g.sink} | nx.ancestors(dag, g.sink)
        for name in g.nodes:
            assert used[name] == (name in keep)
        assert not used["c_0_35"]  # the deliberately unused step

    def test_no_sink_means_everything_used(self):
        g = derivation.build_graph([unit("a", P_C), unit("b", Q_C, "rw", ["a"])])
        assert all(derivation.mark_used(g).values())


class TestNewSymbols:
    def test_skolem_symbols_found(self):
        g = load_fixture_graph()
        syms = derivation.new_function_symbols("c_0_13", g)
        assert [(s.name, s.arity) for s in syms] == [("esk1_0", 0)]
        syms = derivation.new_function_symbols("c_0_16", g)
        assert [(s.name, s.arity) for s in syms] == [("esk2_1", 1)]

    def test_no_fresh_symbols_on_ordinary_step(self):
        g = load_fixture_graph()
        assert derivation.new_function_symbols("c_0_27", g) == []


class TestOneSymbolWalk:
    """Counts, not timings: a run walks each formula object for its
    symbols once, however many steps cite it and however many phases
    (classification, skolem renaming, the manifest) read its symbols."""

    @pytest.mark.parametrize("options", [[], ["--no-compress"]])
    def test_each_formula_walked_once_per_run(self, monkeypatch, tmp_path, options):
        walked = collections.Counter()  # id(formula) -> walks
        kept = []  # the walked formulas, so no id is reused
        original = fol.formula_symbols

        def formula_symbols(f):
            walked[id(f)] += 1
            kept.append(f)
            return original(f)

        monkeypatch.setattr(fol, "formula_symbols", formula_symbols)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["derivation", os.path.join(FIXTURES, "puz001+1.out"),
                             "-o", str(tmp_path), *options])
        assert code == 0
        # the fixture's 42 units and the article's renamed formulas
        assert len(walked) > 42
        assert set(walked.values()) == {1}
