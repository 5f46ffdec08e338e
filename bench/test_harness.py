"""Tests of the benchmark harness itself (not of the translator).

    python3 bench/test_harness.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import mizcheck  # noqa: E402
from mizcheck import entails, parse_tptp  # noqa: E402


def _tree(root):
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


class GeneratorTest(unittest.TestCase):
    def generate(self, workload, seed):
        with tempfile.TemporaryDirectory() as out:
            facts = corpus.generate(workload, seed, out)
            return facts, _tree(out)

    def test_same_seed_same_bytes(self):
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.generate(workload, 7), self.generate(workload, 7))

    def test_other_seed_same_shape(self):
        facts_a, files_a = self.generate("refute-compress", 1)
        facts_b, files_b = self.generate("refute-compress", 2)
        self.assertNotEqual(files_a, files_b)
        self.assertEqual(sorted(files_a), sorted(files_b))
        for name in facts_a:
            self.assertEqual(facts_a[name]["units"], facts_b[name]["units"])


class EvaluatorTest(unittest.TestCase):
    def check(self, premises, conclusion):
        closed = [mizcheck.close(parse_tptp(p)) for p in premises]
        return entails(closed, mizcheck.close(parse_tptp(conclusion)))

    def test_accepts_entailments(self):
        self.assertTrue(self.check(["![X]: p(X)"], "p(a)"))
        self.assertTrue(self.check(["p(a)", "~p(X) | q(X)"], "q(a)"))
        self.assertTrue(self.check(["a = b", "p(f(a))"], "p(f(b))"))
        self.assertTrue(self.check(["?[Y]: r(c,Y)", "(?[Y]: r(c,Y)) => r(c,sk)"], "r(c,sk)"))
        self.assertTrue(self.check(["p(a)", "~p(a)"], "$false"))

    def test_rejects_non_entailments(self):
        self.assertFalse(self.check(["p(a)"], "p(b)"))
        self.assertFalse(self.check(["p(a) | q(a)"], "p(a)"))
        self.assertFalse(self.check(["?[X]: p(X)"], "p(a)"))
        self.assertFalse(self.check(["p(a)", "~p(X) | q(X)"], "$false"))


ARTICLE = """\
reserve X1;

Ax1: p X1 implies q X1 by AXIOMS:1;

Ax2: p a by AXIOMS:2;

S1: q a by Ax1,Ax2;

S2: r X1 or (not q X1)
proof
  A: r X1 or (not q X1) by Ax3;
  thus thesis by A;
end;

theorem
r a
proof
  now
    assume S3: not r a;
    thus contradiction by S1,S2,S3;
  end;
  hence thesis;
end;
"""
ENV = """\
func a 0
pred p 1
pred q 1
pred r 1
axiom 1: ! [X1] : (p(X1) => q(X1))
axiom 2: p(a)
axiom 3: ! [X1] : (r(X1) | ~ q(X1))
"""


class ScannerTest(unittest.TestCase):
    def test_sound_article_passes(self):
        report = mizcheck.check_article(ARTICLE.replace("by Ax3", "by AXIOMS:3"), ENV,
                                        {"conjecture": "r(a)", "axioms": 3, "skolem_defs": 0})
        self.assertEqual(report.problems, [])
        self.assertEqual(report.items, 5)

    def test_dangling_citation(self):
        report = mizcheck.check_article(ARTICLE, ENV)
        self.assertTrue(any("'Ax3' does not resolve" in p for p in report.problems))

    def test_citation_out_of_scope(self):
        text = ARTICLE.replace("by Ax3", "by AXIOMS:3").replace("by S1,S2,S3", "by S1,S2,S3,A")
        report = mizcheck.check_article(text, ENV)
        self.assertTrue(any("'A' does not resolve" in p for p in report.problems))

    def test_unsound_step(self):
        text = ARTICLE.replace("by Ax3", "by AXIOMS:3").replace("S1: q a by Ax1,Ax2",
                                                                "S1: q a by Ax1")
        report = mizcheck.check_article(text, ENV)
        self.assertTrue(any("countermodel" in p for p in report.problems))

    def test_wrong_theorem(self):
        report = mizcheck.check_article(ARTICLE.replace("by Ax3", "by AXIOMS:3"), ENV,
                                        {"conjecture": "q(a)"})
        self.assertIn("theorem is not alpha-equal to the conjecture", report.problems)


if __name__ == "__main__":
    unittest.main()
