"""Deep and wide inputs end in a documented exit code in every mode.

The parser accepts at most tptp.MAX_NESTING levels of nesting and answers
deeper input with `error: NestingTooDeep` (exit 2).  Width costs no depth:
a clause of any length is one flat Or, and a quantifier block of any
width is one level.  These tests run at the default recursion limit.
"""

import re
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tptp2miz import cli, fol, obvious, tptp
from tptp2miz.tptp import MAX_NESTING

MODES = ("problem", "check-obvious", "derivation")


def run(tmp_path, capsys, mode, text, *options):
    path = tmp_path / "in.p"
    path.write_text(text)
    argv = [mode, str(path), *options]
    if mode != "check-obvious":
        argv += ["-o", str(tmp_path / "out")]
    code = cli.main(argv)
    return code, capsys.readouterr().err


def units(mode, formula, records=0):
    """An input for the mode that states the formula at its own depth:
    premise and conclusion for problem and check-obvious, and in a
    derivation an axiom that the closing step cites.  The closing step's
    source nests `records` more inference records, two levels each (the
    record and its parent list) below the two of its own."""
    if mode != "derivation":
        return f"fof(ax, axiom, {formula}).\nfof(goal, conjecture, {formula}).\n"
    source = "pc"
    for i in range(records):
        source = f"inference(r{i}, [], [{source}])"
    return (
        "fof(goal, conjecture, p(c), file('x.p', goal)).\n"
        "fof(neg, negated_conjecture, ~ p(c), "
        "inference(assume_negation, [status(cth)], [goal])).\n"
        f"fof(ax, axiom, {formula}, file('x.p', ax)).\n"
        "fof(pc, axiom, p(c), file('x.p', pc)).\n"
        "fof(f, plain, $false, inference(resolution, [status(thm)], "
        f"[neg, ax, {source}])).\n"
    )


def term(depth, inner="c"):
    return "f(" * depth + inner + ")" * depth


# Formulas `depth` levels deep: each `~`, parenthesis, quantifier block
# and argument list is one level, and the atom p(c) has one of its own.
SHAPES = {
    "negations": lambda depth: "~ " * (depth - 1) + "p(c)",
    "parentheses": lambda depth: "(" * (depth - 1) + "p(c)" + ")" * (depth - 1),
    "implications": lambda depth: (
        "".join(f"(q{i}(c) => " for i in range(depth - 1)) + "p(c)" + ")" * (depth - 1)
    ),
    "term": lambda depth: f"p({term(depth - 1)})",
    "variables": lambda depth: (
        "".join(f"![X{i}]: " for i in range(depth - 1)) + "p(X0)"
    ),
}


def assert_too_deep(code, err):
    assert code == 2
    assert err.startswith("error: NestingTooDeep: ")
    assert "Traceback" not in err


def assert_verdict(code, err):
    """A documented exit code, and no traceback."""
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


class TestAtTheLimit:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_accepted(self, tmp_path, capsys, mode, shape):
        formula = SHAPES[shape](MAX_NESTING)
        assert run(tmp_path, capsys, mode, units(mode, formula))[0] == 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_one_deeper_rejected(self, tmp_path, capsys, mode, shape):
        formula = SHAPES[shape](MAX_NESTING + 1)
        assert_too_deep(*run(tmp_path, capsys, mode, units(mode, formula)))

    def test_nested_sources(self, tmp_path, capsys):
        records = (MAX_NESTING - 2) // 2
        text = units("derivation", "p(c)", records)
        assert run(tmp_path, capsys, "derivation", text)[0] == 0
        text = units("derivation", "p(c)", records + 1)
        assert_too_deep(*run(tmp_path, capsys, "derivation", text))

    def test_instance_twice_as_deep(self, tmp_path, capsys):
        # Step s1 instantiates ax1 at the depth-n ground term t = f^n(c)
        # and ax2 at f^n(t), a term twice as deep as any the input states.
        # Both instances are compound, so only a sub-proof, which states
        # them, can justify s1.
        n = MAX_NESTING - 3
        t = term(n)
        text = (
            f"fof(goal, conjecture, r({t}), file('x.p', goal)).\n"
            f"fof(neg, negated_conjecture, ~ r({t}), "
            "inference(assume_negation, [status(cth)], [goal])).\n"
            f"fof(ax1, axiom, ![X]: (p({term(n, 'X')}) => r(X)), file('x.p', ax1)).\n"
            "fof(ax2, axiom, ![Z]: (s(Z) & p(Z)), file('x.p', ax2)).\n"
            f"fof(s1, plain, r({t}), inference(resolution, [status(thm)], "
            "[ax1, ax2])).\n"
            "fof(f, plain, $false, inference(resolution, [status(thm)], [s1, neg])).\n"
        )
        assert run(tmp_path, capsys, "derivation", text)[0] == 0
        code, err = run(tmp_path, capsys, "derivation", text, "--no-compress")
        assert code == 0, err
        miz = (tmp_path / "out" / "in.miz").read_text()
        assert "p " + "(f " * (2 * n) + "c" in miz


class TestInstancesOfInstances:
    def test_stop_at_the_instance_depth_limit(self, tmp_path, capsys):
        # Each instance of ax1 or ax2 adds q-atoms 120 levels deeper than
        # its own term, and the next copy is matched against them, so the
        # search would build deeper and deeper terms.  Past
        # obvious.MAX_INSTANCE_DEPTH it skips a candidate, and the step,
        # which does not follow, ends in ExpansionFailed.
        axiom = f"![X]: (~ q(X) | q({term(120, 'X')}))"
        text = (
            "fof(goal, conjecture, p(c), file('x.p', goal)).\n"
            "fof(neg, negated_conjecture, ~ p(c), "
            "inference(assume_negation, [status(cth)], [goal])).\n"
            f"fof(ax1, axiom, {axiom}, file('x.p', ax1)).\n"
            f"fof(ax2, axiom, {axiom}, file('x.p', ax2)).\n"
            f"fof(h, axiom, ~ q({term(100)}), file('x.p', h)).\n"
            "fof(pq, axiom, (p(c) | q(c)), file('x.p', pq)).\n"
            "fof(s1, plain, ~ q(c), inference(resolution, [status(thm)], "
            "[ax1, ax2, h])).\n"
            "fof(f, plain, $false, inference(resolution, [status(thm)], "
            "[neg, pq, s1])).\n"
        )
        code, err = run(tmp_path, capsys, "derivation", text)
        assert code == 2
        assert err.startswith("error: ExpansionFailed: ")
        assert "Traceback" not in err


class TestNestedIff:
    """Each side of an <=> occurs twice in its normal form, so nested <=>
    doubles per level unless each (node, polarity) is rewritten once."""

    @staticmethod
    def nested(levels):
        formula = "p0(c)"
        for i in range(1, levels):
            formula = f"(p{i}(c) <=> {formula})"
        return formula

    def test_normal_form_shares_subformulas(self):
        f = tptp.parse_problem(f"fof(a, axiom, {self.nested(40)}).")[0].formula
        seen = {}  # id -> node: the distinct nodes of the normal form
        stack = [obvious._nnf(f)]
        while stack:
            g = stack.pop()
            if id(g) not in seen:
                seen[id(g)] = g
                stack.extend(getattr(g, "parts", ()))
        # as a tree the normal form has about 2^40 nodes
        assert len(seen) < 10 * 40

    def test_forty_levels_end_unknown(self, tmp_path, capsys):
        text = units("check-obvious", self.nested(40))
        started = time.perf_counter()
        assert run(tmp_path, capsys, "check-obvious", text)[0] == 3
        assert time.perf_counter() - started < 30


class TestProbes:
    """Inputs far past the limit, each of which used to raise RecursionError."""

    PROBES = {
        "3000 negations": SHAPES["negations"](3000),
        "1500 parentheses": SHAPES["parentheses"](1500),
        "1200 implications": SHAPES["implications"](1200),
        "400-deep term": SHAPES["term"](401),
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_rejected(self, tmp_path, capsys, mode, probe):
        text = units(mode, self.PROBES[probe])
        assert_too_deep(*run(tmp_path, capsys, mode, text))

    @pytest.mark.parametrize("mode", MODES)
    def test_600_nested_sources_rejected(self, tmp_path, capsys, mode):
        text = units("derivation", "p(c)", 600)
        assert_too_deep(*run(tmp_path, capsys, mode, text))


class TestWideClauses:
    WIDE = 1000

    def test_check_obvious(self, tmp_path, capsys):
        clause = " | ".join(
            f"{'~' if i % 2 else ''}p{i}(X)" for i in range(self.WIDE)
        )
        text = f"cnf(a, axiom, ({clause})).\ncnf(b, axiom, ({clause})).\n"
        code, err = run(tmp_path, capsys, "check-obvious", text)
        assert code in (0, 1, 3)
        assert "Traceback" not in err

    def test_two_clauses_with_a_long_decision_path(self, tmp_path, capsys):
        # every decision sets one more atom true, a path 1000 decisions long
        pos = " | ".join(f"p{i}(c)" for i in range(self.WIDE))
        neg = " | ".join(f"~p{i}(c)" for i in range(self.WIDE))
        text = f"cnf(a, axiom, ({pos})).\ncnf(b, axiom, ({neg})).\ncnf(g, axiom, q(c)).\n"
        assert run(tmp_path, capsys, "check-obvious", text)[0] in (0, 1, 3)

    def test_derivation_cites_wide_clause(self, tmp_path, capsys):
        # goal, its negation, the wide clause, the facts that cut it down
        # to the goal, the resolvent, and $false
        qs = [f"q{i % 10}(c)" for i in range(1, self.WIDE)]
        facts = " & ".join(f"~ q{i}(c)" for i in range(10))
        text = (
            "fof(goal, conjecture, p(c), file('x.p', goal)).\n"
            "fof(neg, negated_conjecture, ~ p(c), "
            "inference(assume_negation, [status(cth)], [goal])).\n"
            f"cnf(wide, axiom, (p(c) | {' | '.join(qs)}), file('x.p', wide)).\n"
            f"fof(facts, axiom, ({facts}), file('x.p', facts)).\n"
            "cnf(res, plain, p(c), inference(resolution, [status(thm)], "
            "[wide, facts])).\n"
            "cnf(f, plain, $false, inference(resolution, [status(thm)], [res, neg])).\n"
        )
        code, err = run(tmp_path, capsys, "derivation", text)
        assert code == 0, err


class TestManyVariables:
    """A clause's closure is one Forall block, and its key is one level
    deep however many variables it binds, so a premise binding 1,200
    variables gets a verdict in every mode."""

    N = 1200

    @staticmethod
    def clause(n):
        return " | ".join(f"p(X{i})" for i in range(n))

    def derivation(self, n):
        return (
            "fof(goal, conjecture, p(c), file('x.p', goal)).\n"
            "fof(neg, negated_conjecture, ~ p(c), "
            "inference(assume_negation, [status(cth)], [goal])).\n"
            f"cnf(w, axiom, ({self.clause(n)}), file('x.p', w)).\n"
            "cnf(s1, plain, p(c), inference(resolution, [status(thm)], [w])).\n"
            "cnf(f, plain, $false, inference(resolution, [status(thm)], [s1, neg])).\n"
        )

    @pytest.mark.parametrize("options", [(), ("--no-compress",)])
    def test_derivation_ends_in_a_verdict(self, tmp_path, capsys, options):
        code, err = run(tmp_path, capsys, "derivation", self.derivation(self.N), *options)
        assert_verdict(code, err)
        assert "TooManyVariables" not in err

    def test_check_obvious_ends_in_a_verdict(self, tmp_path, capsys):
        text = f"cnf(w, axiom, ({self.clause(self.N)})).\ncnf(g, axiom, p(c)).\n"
        code, err = run(tmp_path, capsys, "check-obvious", text)
        assert_verdict(code, err)
        assert "TooManyVariables" not in err

    def test_problem_translates(self, tmp_path, capsys):
        code, err = run(tmp_path, capsys, "problem", self.derivation(self.N))
        assert code == 0, err

    @pytest.mark.parametrize("mode", MODES)
    def test_wide_block_is_one_level(self, tmp_path, capsys, mode):
        formula = "![" + ",".join(f"X{i}" for i in range(200)) + "]: p(X0)"
        code, err = run(tmp_path, capsys, mode, units(mode, formula))
        assert code == 0, err

    def test_key_is_one_level(self):
        body = fol.Atom("p", (fol.Var("X0"),))
        names = tuple(f"X{i}" for i in range(MAX_NESTING + 1))
        unit = obvious.universal_unit(fol.Forall(names, body))
        assert unit.variables == names
        assert unit.key == ("forall", len(names), ("p", "p", (("b", 0),)))


class TestCaptureInAWideBlock:
    """Instantiating a universal parent at a variable that a 1,000-name
    block inside it binds renames that name in one pass, where peeling the
    block one name per call raised RecursionError.  Step s1 needs two
    instances of ax, so the expander states them, and one of them is
    Y := Z, with Z fixed by the step and bound by the block below Y."""

    NAMES = [f"A{i}" for i in range(999)]
    TEXT = (
        "fof(goal, conjecture, p(c), file('x.p', goal)).\n"
        "fof(neg, negated_conjecture, ~ p(c), "
        "inference(assume_negation, [status(cth)], [goal])).\n"
        "fof(pc, axiom, (p(c) & r(g(c))), file('x.p', pc)).\n"
        f"fof(ax, axiom, ![Y]: (r(Y) => ?[{','.join(NAMES + ['Z'])}]: q(Y, Z)), "
        "file('x.p', ax)).\n"
        f"fof(s1, plain, ((r(Z) & r(g(Z))) => (?[{','.join(NAMES + ['Z1'])}]: q(Z, Z1) "
        f"& ?[{','.join(NAMES + ['Z1'])}]: q(g(Z), Z1))), "
        "inference(resolution, [status(thm)], [ax])).\n"
        "fof(f, plain, $false, inference(resolution, [status(thm)], [s1, neg, pc])).\n"
    )

    @pytest.mark.parametrize("mode, options", [
        ("problem", ()), ("check-obvious", ()),
        ("derivation", ()), ("derivation", ("--no-compress",)),
    ])
    def test_every_mode(self, tmp_path, capsys, mode, options):
        code, err = run(tmp_path, capsys, mode, self.TEXT, *options)
        assert code == 0, err
        if options:
            # without compression, s1 keeps its instance at Y := Z, Z
            # rendered X1 and the block's names X2, ..., X1001
            miz = (tmp_path / "out" / "in.miz").read_text()
            assert "  A: r X1 implies (ex X2,X3," in miz
            assert ",X1000,X1001 st q X1,X1001) by Ax2;" in miz

    @pytest.mark.parametrize("mode, options", [
        ("problem", ()), ("derivation", ()), ("derivation", ("--no-compress",)),
    ])
    def test_reserve_line_names_only_what_the_article_uses(self, tmp_path, capsys,
                                                           mode, options):
        # the two blocks bind the same 1,000 names: they reserve them once
        code, err = run(tmp_path, capsys, mode, self.TEXT, *options)
        assert code == 0, err
        reserve, body = (tmp_path / "out" / "in.miz").read_text().split("\n", 1)
        used = max(int(n) for n in re.findall(r"\bX(\d+)\b", body))
        assert used == 1001
        assert reserve == "reserve " + ",".join(f"X{i}" for i in range(1, used + 1)) + ";"


class TestLongSearches:
    """Searches that choose one instance per universal premise or parent
    keep their path on an explicit stack, so its length costs no recursion.
    Each input below used to raise RecursionError."""

    N = 1000

    @staticmethod
    def universal_parents(n):
        """n axioms ![X]: q<i>(X), cited before ![X]: r(X), so the checker
        commits to an instance of each before the one that refutes ~ r(c)."""
        return (
            "fof(goal, conjecture, r(c), file('x.p', goal)).\n"
            "fof(neg, negated_conjecture, ~ r(c), "
            "inference(assume_negation, [status(cth)], [goal])).\n"
            + "".join(f"fof(q{i}, axiom, ![X]: q{i}(X), file('x.p', q{i})).\n"
                      for i in range(n))
            + "fof(r, axiom, ![X]: r(X), file('x.p', r)).\n"
        )

    @staticmethod
    def step(parents):
        return (
            "fof(s1, plain, r(c), inference(resolution, [status(thm)], "
            f"[{', '.join(parents)}])).\n"
            "fof(f, plain, $false, inference(resolution, [status(thm)], [s1, neg])).\n"
        )

    def test_check_obvious_commits_to_every_premise(self, tmp_path, capsys):
        text = "".join(f"fof(q{i}, axiom, ![X]: q{i}(X)).\n" for i in range(self.N))
        text += "fof(r, axiom, ![X]: r(X)).\nfof(g, conjecture, r(c)).\n"
        code, err = run(tmp_path, capsys, "check-obvious", text, "--budget", "3000000")
        assert code == 0, err  # Obvious

    def test_justify_query_commits_to_every_parent(self, tmp_path, capsys):
        parents = [f"q{i}" for i in range(self.N)] + ["r"]
        text = self.universal_parents(self.N) + self.step(parents)
        code, err = run(tmp_path, capsys, "derivation", text,
                        "--budget", "100000000", "--no-compress")
        assert code == 0, err

    def test_expansion_chooses_for_every_parent(self, tmp_path, capsys):
        # The cited blow-up makes every query Unknown at once, so the
        # expander chooses an instance for each universal parent, twice
        # over on its doubled retry, before it gives up.
        blowup = " | ".join(f"(b{i}(c) & d{i}(c))" for i in range(10))
        parents = [f"q{i}" for i in range(self.N)] + ["r", "h"]
        text = (self.universal_parents(self.N)
                + f"fof(h, axiom, {blowup}, file('x.p', h)).\n"
                + self.step(parents))
        code, err = run(tmp_path, capsys, "derivation", text, "--budget", "100000000")
        assert code == 2
        assert err.startswith("error: ExpansionFailed: ")
        assert "Traceback" not in err


# -- fuzzing -------------------------------------------------------------------

def _wrap(formula, layer):
    kind, i = layer
    if kind == "not":
        return "~ " + formula
    if kind == "paren":
        return f"({formula})"
    if kind == "implies":
        return f"(q{i}(c) => {formula})"
    if kind == "implied":
        return f"({formula} => q{i}(c))"
    if kind == "and":
        return f"({formula} & q{i}(c))"
    if kind == "or":
        return f"(q{i}(c) | {formula})"
    return f"![X{i}]: {formula}"


_LAYER = st.tuples(
    st.sampled_from(["not", "paren", "implies", "implied", "and", "or", "forall"]),
    st.integers(0, 3),
)


@st.composite
def nested_formulas(draw):
    """Layers of connectives around an atom with a nested term and a wide
    clause beside it, deep enough to fall on either side of the limit."""
    depth = draw(st.integers(0, MAX_NESTING + 8))
    layers = draw(st.lists(_LAYER, min_size=0, max_size=depth))
    width = draw(st.integers(1, 300))
    atom = f"p({term(depth - len(layers))})"
    formula = "(" + " | ".join([atom] + [f"r{i}(c)" for i in range(width - 1)]) + ")"
    for layer in layers:
        formula = _wrap(formula, layer)
    return formula


_TOKENS = [
    "fof(", "cnf(", "a", "axiom", "conjecture", ",", ")", "(", "~", "&", "|",
    "=>", "<=", "!", "?", "[", "]", ":", "X", "p", "f(", "c", "=", "!=", ".",
    "$false", "$true", "inference(", "file(", "'x'", "%", "\n",
]


class TestFuzz:
    @given(nested_formulas(), st.sampled_from(MODES), st.integers(0, 80))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_nested(self, tmp_path, capsys, formula, mode, records):
        code, err = run(tmp_path, capsys, mode, units(mode, formula, records))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    @given(st.lists(st.sampled_from(_TOKENS), max_size=60), st.sampled_from(MODES))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_token_soup(self, tmp_path, capsys, tokens, mode):
        code, err = run(tmp_path, capsys, mode, " ".join(tokens))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
