"""Acceptance gate: one printed pass/fail line per criterion."""

import os
import time

import networkx as nx

from tptp2miz import article, derivation, fol, obvious, skolem, tptp
from tptp2miz.errors import MultipleSkolemsUnsupported, TranslationError
from tptp2miz.obvious import Verdict

import helpers
import oracle
from conftest import FIXTURES

PROBLEM = os.path.join(FIXTURES, "puz001+1.p")
DERIVATION = os.path.join(FIXTURES, "puz001+1.out")


def report(number, name, ok):
    print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def F(text):
    return tptp.parse_problem(f"fof(x,axiom,{text}).")[0].formula


class TestCriterion1EndToEnd:
    def test_golden_derivation(self):
        ok = True
        started = time.perf_counter()
        units = tptp.parse_derivation_file(DERIVATION)
        graph = derivation.build_graph(units)
        model, manifest = helpers.finished_article(graph)
        lemmas_before = len(model.lemma_items)
        model, _ = helpers.compressed(model, manifest)
        text = article.render_article(model)
        elapsed = time.perf_counter() - started

        ok &= elapsed < 5.0
        # (a) exactly 10 axiom items
        ok &= len(model.axiom_items) == 10
        ok &= text.count(" by AXIOMS:") == 10
        # (b) theorem alpha-equivalent to the fixture conjecture
        ok &= fol.alpha_equivalent(model.theorem, F("killed(agatha,agatha)"))
        # (c) two skolem symbols, two manifest definitions
        skolems = [n for n, _ in manifest.functions if n.startswith("skolem")]
        ok &= sorted(skolems) == ["skolem1", "skolem2"]
        ok &= len(manifest.skolem_defs) == 2
        # (d) partition and diffuse block shape
        theorem_at = text.index("theorem\n")
        for item in model.lemma_items:
            ok &= text.index(item.label + ":") < theorem_at
        block = text[theorem_at:]
        ok &= "now" in block and "assume " in block
        ok &= "thus contradiction by " in block
        ok &= block.rstrip().endswith("hence thesis;\nend;")
        for item in model.diffuse.inner_steps:
            ok &= text.index(item.label + ":") > theorem_at
        ok &= len(model.lemma_items) <= lemmas_before
        report(1, "end-to-end golden derivation", ok)


class TestCriterion2CheckerExample:
    def test_resolution_example_verdicts(self):
        started = time.perf_counter()
        formula_level = (
            [F("![X]:(~l(X)|d(X))"), F("![X]:![Y]:(~l(X)|~d(X)|~d(Y))")],
            F("![X]:![Y]:(~l(X)|~d(Y))"),
        )
        instance_level = helpers.fixed_query(
            [F("~l(X)|d(X)"), F("~l(X)|~d(X)|~d(Y)")],
            F("~l(X)|~d(Y)"),
            ("X", "Y"),
        )
        v1 = obvious.is_obvious(*formula_level)
        v2 = obvious.is_obvious(*instance_level)
        ok = v1.kind is Verdict.NOT_OBVIOUS and v2.kind is Verdict.OBVIOUS
        # the NotObvious query is still a valid entailment
        for n in (1, 2, 3):
            ok &= oracle.brute_force_entails(*formula_level, n)
        ok &= (time.perf_counter() - started) < 1.0
        report(2, "checker verdicts on the resolution example", ok)


class TestCriterion3Soundness:
    def test_obvious_never_contradicts_brute_force(self):
        counterexamples = 0
        checked = 0
        for seed in range(500):
            rng = helpers.make_rng(seed)
            premises = [
                helpers.random_quantified(rng) for _ in range(rng.randint(1, 3))
            ]
            conclusion = helpers.random_quantified(rng)
            verdict = obvious.is_obvious(premises, conclusion, budget=obvious.Budget(2000))
            checked += 1
            if verdict.is_obvious:
                for n in (1, 2, 3):
                    if not oracle.brute_force_entails(premises, conclusion, n):
                        counterexamples += 1
                        break
        ok = checked >= 500 and counterexamples == 0
        report(3, "soundness vs brute force on 500 random queries", ok)


class TestCriterion4Skolemization:
    @staticmethod
    def random_skolem_graph(rng):
        n_univ = rng.randint(0, 1)
        univ = ["X"][:n_univ]
        # tiny signature (one constant, one unary predicate) keeps the
        # brute-force validity check over esk interpretations fast
        terms = [fol.Var(v) for v in univ] + [fol.Var("Y"), fol.App("a")]
        lits = []
        for _ in range(rng.randint(1, 2)):
            atom = fol.Atom("p", (rng.choice(terms),))
            lits.append(fol.Not(atom) if rng.random() < 0.5 else atom)
        if not any(
            "Y" in l.free for l in lits
        ):
            lits.append(fol.Atom("p", (fol.Var("Y"),)))
        matrix = fol.join(fol.Or, lits)
        parent = fol.Exists(("Y",), matrix)
        for v in reversed(univ):
            parent = fol.Forall((v,), parent)
        witness = fol.App("esk", tuple(fol.Var(v) for v in univ))
        conclusion = fol.apply_substitution({"Y": witness}, matrix)
        for v in reversed(univ):
            conclusion = fol.Forall((v,), conclusion)
        units = [
            tptp.AnnotatedFormula(
                "par", "fof", "axiom", parent, tptp.FileSource("par", "x.p")
            ),
            tptp.AnnotatedFormula(
                "sk", "fof", "plain", conclusion,
                tptp.InferenceRecord("skolemize", ("par",), "esa"),
            ),
        ]
        return derivation.build_graph(units), parent, conclusion

    def test_randomized_henkin_axioms(self):
        ok = True
        produced = 0
        for seed in range(100):
            rng = helpers.make_rng(seed + 7_000)
            graph, parent, conclusion = self.random_skolem_graph(rng)
            symbol = skolem.validate_single_skolem("sk", graph)
            axiom = skolem.make_henkin_axiom("sk", graph)
            produced += 1
            ok &= axiom.free == ()
            ok &= symbol.name == "esk"
            ok &= any(
                name == "esk"
                for name, kind, _ in fol.formula_symbols(axiom)
                if kind == "function"
            )
            for n in (1, 2, 3):
                ok &= oracle.brute_force_entails([parent, axiom], conclusion, n)
        ok &= produced >= 100
        # two fresh symbols in one step must be rejected
        units = [
            tptp.AnnotatedFormula(
                "par", "fof", "axiom", F("?[Y]:?[Z]:r(Y,Z)"),
                tptp.FileSource("par", "x.p"),
            ),
            tptp.AnnotatedFormula(
                "sk", "fof", "plain", F("r(esk1_0,esk2_0)"),
                tptp.InferenceRecord("skolemize", ("par",)),
            ),
        ]
        try:
            skolem.validate_single_skolem("sk", derivation.build_graph(units))
            ok = False
        except MultipleSkolemsUnsupported:
            pass
        report(4, "skolemization properties", ok)


class TestCriterion5Compression:
    def test_fixed_point(self):
        ok = True
        units = tptp.parse_derivation_file(DERIVATION)
        graph = derivation.build_graph(units)
        model, manifest = helpers.finished_article(graph)
        out, rep = helpers.compressed(model, manifest)
        ok &= rep.passes <= max(1, rep.steps_before)
        again, rep2 = helpers.compressed(out, manifest)
        ok &= rep2.removed_labels == []
        ok &= article.render_article(out) == article.render_article(again)
        ok &= helpers.recheck(out, manifest) == []
        for seed in range(50):
            rng = helpers.make_rng(seed + 40_000)
            model, manifest = helpers.random_article(rng)
            out, rep = helpers.compressed(model, manifest)
            ok &= rep.passes <= max(1, rep.steps_before)
            again, rep2 = helpers.compressed(out, manifest)
            ok &= rep2.removed_labels == []
            ok &= helpers.recheck(out, manifest) == []
        report(5, "compression fixed point", ok)


class TestCriterion6StructuralInvariants:
    def test_invariants(self, tmp_path):
        ok = True
        units = tptp.parse_derivation_file(DERIVATION)
        graph = derivation.build_graph(units)
        order = derivation.topological_order(graph)
        position = {n: i for i, n in enumerate(order)}
        dag = nx.DiGraph()
        dag.add_nodes_from(graph.nodes)
        for child, parents in graph.parents.items():
            for p in parents:
                dag.add_edge(p, child)
        ok &= nx.is_directed_acyclic_graph(dag)
        for parent, child in dag.edges:
            ok &= position[parent] < position[child]

        model, manifest = helpers.finished_article(graph)
        model, _ = helpers.compressed(model, manifest)
        text = article.render_article(model)
        ok &= helpers.mizcheck_problems(model, manifest) == []

        model2, manifest2 = helpers.finished_article(
            derivation.build_graph(tptp.parse_derivation_file(DERIVATION))
        )
        model2, _ = helpers.compressed(model2, manifest2)
        ok &= article.render_article(model2) == text
        ok &= article.render_manifest(manifest2) == article.render_manifest(manifest)

        punits = tptp.parse_problem_file(PROBLEM)
        pm1 = article.translate_problem(punits)
        pm2 = article.translate_problem(tptp.parse_problem_file(PROBLEM))
        ok &= article.render_article(pm1[0]) == article.render_article(pm2[0])
        ok &= helpers.mizcheck_problems(*pm1) == []
        report(6, "structural invariants", ok)


class TestCriterion7ParserRoundTrip:
    def test_round_trip_and_fuzz(self):
        ok = True
        for path, parse in (
            (PROBLEM, tptp.parse_problem_file),
            (DERIVATION, tptp.parse_derivation_file),
        ):
            units = parse(path)
            again = tptp.parse_problem(tptp.serialize(units))
            ok &= again == units

        for seed in range(1000):
            rng = helpers.make_rng(seed + 90_000)
            units = [
                tptp.AnnotatedFormula(
                    f"u{i}", "fof", rng.choice(["axiom", "plain"]),
                    fol.universal_closure(helpers.random_formula(rng, ["X"])),
                )
                for i in range(rng.randint(1, 3))
            ]
            once = tptp.parse_problem(tptp.serialize(units))
            twice = tptp.parse_problem(tptp.serialize(once))
            ok &= once == twice

        for seed in range(200):
            rng = helpers.make_rng(seed + 123_456)
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(1, 300)))
            text = blob.decode("latin-1")
            started = time.perf_counter()
            try:
                tptp.parse_problem(text)
            except TranslationError:
                pass
            ok &= (time.perf_counter() - started) < 1.0
        report(7, "parser round trip and fuzzing", ok)
