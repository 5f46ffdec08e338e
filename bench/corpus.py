"""Deterministic corpus generator for the benchmark.

    python3 bench/corpus.py --workload refute-compress --seed 1 --out DIR

writes the workload's input files under DIR and prints the facts the
generator knows about each file as JSON.  The same seed gives the same
bytes.  In refutations the seed only renames symbols, keeping their
relative order, so every seed costs the same to translate; literal order
is shuffled by a generator seeded with the file's recipe, not the seed.  In problem files the seed
also draws the formulas, whose cost averages out over thousands of them.

Refutations are written in the style of E's TSTP output: file-sourced
axioms, clausification (`fof_nnf`, `variable_rename`), skolemization,
`resolution`, `sr`, `rw` and `spm` steps, a conjecture with its
`assume_negation`, and a final `$false`.  Every file is assembled from
segments that each derive one or more unit clauses; a wide combination
clause then resolves all of them away against the negated conjecture.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "puz001+1.out")

WORKLOADS = ("refute-compress", "refute-expand", "problem-parse")

# The PUZ001+1 fixture: facts read off the TPTP problem by hand.
PUZ001_FACTS = {
    "conjecture": "killed(agatha,agatha)",
    "axioms": 10,
    "skolem_defs": 2,
    "units": 42,
}

# Refutation files per workload: (file stem, recipe).  A recipe lists the
# segments of one file; see Refutation.segment for their meaning.
_MID = [
    ("mid010", [("ground", 3), ("skolem_fn", 1), ("wide", 3)]),
    ("mid020", [("ground", 5), ("equality", 3), ("wide", 3)]),
    ("mid030", [("ground", 8), ("wide", 5), ("skolem_const", 1)]),
    ("mid040", [("ground", 10), ("nonground", 3), ("wide", 4)]),
    ("mid050", [("ground", 14), ("wide", 6), ("skolem_fn", 1)]),
    ("mid060", [("ground", 16), ("equality", 8), ("wide", 6)]),
    ("mid070", [("ground", 20), ("nonground", 4), ("wide", 8)]),
    ("mid080", [("ground", 24), ("equality", 6), ("wide", 4)]),
    ("mid090", [("ground", 28), ("wide", 10), ("skolem_const", 1)]),
    ("mid100", [("ground", 32), ("nonground", 6), ("wide", 8)]),
]
# Files of one recipe, so of one cost: the median file time falls inside
# this cluster instead of in a gap between two different files.
_TYP = [(f"typ{i:02d}", [("ground", 60), ("wide", 8)]) for i in range(1, 11)]
# One file of about 1000 steps: it dominates `units_per_s`.  A second one
# would take another 10 s a pass, and a run makes at least three passes.
_BIG = ("big1000", [("ground", 480), ("wide", 10)])
# A skolem segment and an equality segment in one file, as in the PUZ001+1
# fixture and in users' refutations: the collapsed `thus contradiction`
# then keeps universal premises from both, and compression costs tens of
# times what it costs for either segment alone.
_MIX = ("mix021", [("skolem_fn", 1), ("equality", 3)])
REFUTE_COMPRESS = (
    [_TYP[0], _MID[0], _TYP[1], _MID[1], _TYP[2], _MID[2], _TYP[3], _MID[3], _TYP[4], _BIG]
    + [_MID[4], _TYP[5], _MID[5], _TYP[6], _MID[6], _TYP[7], _MID[7], _TYP[8], _MID[8],
       _TYP[9], _MID[9], _MIX]
)

# Sizes grow with i; the stride 7 order spreads files of similar size
# (those around the median) over the pass.
REFUTE_EXPAND = [
    (f"ng{i:02d}", [("nonground", 20 + 8 * i), ("nonground", 10 + 4 * i)]
     + [[("skolem_fn", 1)], [("ground", 4)], [("skolem_const", 1)], [("wide", 4)]][i % 4])
    for i in (7 * k % 20 for k in range(20))
]

# Problem files: (stem, axioms written in the file, include files as
# (name, axiom count, selected count or None)).
PROBLEMS = [
    ("LRG001+1", 1500, [("LRG001+0", 1000, None)]),
    ("LRG002+1", 1400, [("LRG002+0", 600, None), ("LRG002+2", 500, 200)]),
    ("LRG003-1", 2000, []),
    ("LRG004+1", 1200, [("LRG004+0", 1000, None)]),
    ("LRG005+1", 2400, []),
]
WIDE_CLAUSE_LITERALS = 1000


class Names:
    """Fresh symbol names: two seeded letters and a running number.

    Each kind draws its first letter from its own range, so names of one
    kind sort before those of the next whatever the seed, and the fixed
    names (`esk`, `skolem`) sort in the same place too.
    """

    FIRST_LETTERS = {"pred": "bcd", "const": "fgh", "func": "mnp"}

    def __init__(self, rng):
        self.prefix = {kind: rng.choice(first) + rng.choice("aeiou")
                       for kind, first in self.FIRST_LETTERS.items()}
        self.count = 0

    def __call__(self, kind):
        self.count += 1
        return f"{self.prefix[kind]}{self.count}"


class Refutation:
    """Builder for one E-style refutation."""

    def __init__(self, rng, problem, order):
        self.order = order  # literal order comes from the recipe, not the seed
        self.problem = problem
        self.names = Names(rng)
        self.lines = []
        self.units = 0
        self.steps = 0
        self.skolem_steps = 0
        self.axioms = 0
        self.esk = 0

    def _unit(self, lang, role, text, source):
        self.units += 1
        name = f"c_0_{self.units}"
        self.lines.append(f"{lang}({name}, {role}, ({text}), {source}).")
        return name

    def axiom(self, text, role="axiom"):
        if role == "axiom":
            self.axioms += 1
        origin = f"ax{self.units + 1}"
        return self._unit("fof", role, text, f"file('{self.problem}', {origin})")

    def infer(self, text, rule, parents, lang="cnf", role="plain", status="thm"):
        self.steps += 1
        return self._unit(
            lang, role, text,
            f"inference({rule},[status({status})],[{', '.join(parents)}])")

    def clausify(self, text, parent, rename=False):
        inner = parent
        if rename:
            inner = f"inference(variable_rename,[status(thm)],[{parent}])"
        return self.infer(text, "fof_nnf", [inner])

    def shuffled(self, literals):
        literals = list(literals)
        self.order.shuffle(literals)
        return literals

    # -- segments: each returns [(unit name, ground literal it proves)] ----

    def segment(self, kind, size):
        return getattr(self, "_" + kind)(size)

    def _ground(self, length):
        """Ground implication chain: compression collapses it."""
        c = self.names("const")
        preds = [self.names("pred") for _ in range(length + 1)]
        prev = self.clausify(f"{preds[0]}({c})", self.axiom(f"{preds[0]}({c})"))
        for i in range(length):
            a, b = f"{preds[i]}({c})", f"{preds[i + 1]}({c})"
            ax = self.axiom(f"({a} => {b})")
            clause = self.clausify(" | ".join(self.shuffled([f"~{a}", b])), ax)
            prev = self.infer(b, "resolution", [clause, prev])
        return [(prev, f"{preds[-1]}({c})")]

    def _nonground(self, length):
        """Resolution of non-ground clauses: every step needs a sub-proof."""
        c = self.names("const")
        preds = [self.names("pred") for _ in range(length + 1)]
        clauses = []
        for i in range(length):
            ax = self.axiom(f"![X]:({preds[i]}(X) => {preds[i + 1]}(X))")
            lits = self.shuffled([f"~{preds[i]}(X1)", f"{preds[i + 1]}(X1)"])
            clauses.append(self.clausify(" | ".join(lits), ax, rename=True))
        chain = clauses[0]
        for i in range(1, length):
            lits = self.shuffled([f"~{preds[0]}(X1)", f"{preds[i + 1]}(X1)"])
            chain = self.infer(" | ".join(lits), "resolution", [chain, clauses[i]])
        base = self.clausify(f"{preds[0]}({c})", self.axiom(f"{preds[0]}({c})"))
        goal = f"{preds[-1]}({c})"
        return [(self.infer(goal, "resolution", [chain, base]), goal)]

    def _skolem_fn(self, _size):
        """`![X]:?[Y]` axiom skolemized with a unary function."""
        s, t = self.names("pred"), self.names("pred")
        c = self.names("const")
        self.esk += 1
        f = f"esk{self.esk}_1"
        ax = self.axiom(f"![X]:?[Y]:{s}(X,Y)")
        sk = self.infer(
            f"![X]:{s}(X,{f}(X))", "skolemize",
            [f"inference(variable_rename,[status(thm)],[{ax}])"],
            lang="fof", status="esa")
        self.skolem_steps += 1
        unit = self.infer(f"{s}(X1,{f}(X1))", "split_conjunct", [sk])
        ax2 = self.axiom(f"![X,Y]:({s}(X,Y) => {t}(X))")
        clause = self.clausify(" | ".join(self.shuffled([f"~{s}(X1,X2)", f"{t}(X1)"])),
                               ax2, rename=True)
        return [(self.infer(f"{t}(X1)", "resolution", [clause, unit]), f"{t}({c})")]

    def _skolem_const(self, _size):
        """`?[Y]` axiom about a constant skolemized with a fresh constant."""
        s, w, t = self.names("pred"), self.names("pred"), self.names("pred")
        c = self.names("const")
        self.esk += 1
        e = f"esk{self.esk}_0"
        ax = self.axiom(f"?[Y]:({s}({c},Y) & {w}(Y))")
        sk = self.infer(
            f"({s}({c},{e}) & {w}({e}))", "skolemize",
            [f"inference(variable_rename,[status(thm)],[{ax}])"],
            lang="fof", status="esa")
        self.skolem_steps += 1
        first = self.infer(f"{s}({c},{e})", "split_conjunct", [sk])
        second = self.infer(f"{w}({e})", "split_conjunct", [sk])
        ax2 = self.axiom(f"![X,Y]:(({s}(X,Y) & {w}(Y)) => {t}(X))")
        lits = [f"~{s}(X1,X2)", f"~{w}(X2)", f"{t}(X1)"]
        clause = self.clausify(" | ".join(self.shuffled(lits)), ax2, rename=True)
        mid = self.infer(" | ".join(self.shuffled([f"~{w}({e})", f"{t}({c})"])),
                         "resolution", [clause, first])
        return [(self.infer(f"{t}({c})", "sr", [mid, second]), f"{t}({c})")]

    def _equality(self, length):
        """`rw` chain with a universal equation, then one ground `spm`."""
        g, h = self.names("func"), self.names("func")
        v, y, z = self.names("pred"), self.names("pred"), self.names("pred")
        c, d = self.names("const"), self.names("const")

        def nest(k):
            term = c
            for _ in range(k):
                term = f"{g}({term})"
            return term

        eq = self.clausify(f"{g}(X1)=X1", self.axiom(f"![X]:{g}(X)=X"), rename=True)
        prev = self.clausify(f"{v}({nest(length)})", self.axiom(f"{v}({nest(length)})"))
        for k in range(length - 1, -1, -1):
            prev = self.infer(f"{v}({nest(k)})", "rw", [prev, eq])
        ground_eq = self.clausify(f"{h}({c})={d}", self.axiom(f"{h}({c})={d}"))
        wide = self.clausify(f"{y}({h}({c})) | {z}({c})",
                             self.axiom(f"({y}({h}({c})) | {z}({c}))"))
        sup = self.infer(f"{y}({d}) | {z}({c})", "spm", [ground_eq, wide])
        neg = self.clausify(f"~{z}({c})", self.axiom(f"~{z}({c})"))
        return [(prev, f"{v}({c})"), (self.infer(f"{y}({d})", "sr", [sup, neg]), f"{y}({d})")]

    def _wide(self, width):
        """A wide ground clause cut down literal by literal with `sr`."""
        c = self.names("const")
        preds = [self.names("pred") for _ in range(width + 1)]
        lits = [f"{p}({c})" for p in preds]
        clause = self.clausify(" | ".join(self.shuffled(lits)),
                               self.axiom("(" + " | ".join(lits) + ")"))
        left = list(lits)
        for lit in lits[:-1]:
            neg = self.clausify(f"~{lit}", self.axiom(f"~{lit}"))
            left.remove(lit)
            clause = self.infer(" | ".join(self.shuffled(left)), "sr", [clause, neg])
        return [(clause, lits[-1])]

    def finish(self, proved):
        """Combination clause, conjecture, negated conjecture and $false."""
        goal = f"{self.names('pred')}({self.names('const')})"
        body = " & ".join(lit for _, lit in proved)
        ax = self.axiom(f"(({body}) => {goal})")
        left = [f"~{lit}" for _, lit in proved] + [goal]
        clause = self.clausify(" | ".join(self.shuffled(left)), ax)
        for unit, lit in proved:
            left.remove(f"~{lit}")
            clause = self.infer(" | ".join(self.shuffled(left)), "sr", [clause, unit])
        conj = self.axiom(goal, role="conjecture")
        neg = self.infer(f"~{goal}", "assume_negation", [conj],
                         lang="fof", role="negated_conjecture", status="cth")
        neg_clause = self.infer(f"~{goal}", "fof_nnf", [neg], role="negated_conjecture")
        self.infer("$false", "sr", [clause, neg_clause], role="negated_conjecture")
        return goal


def refutation(rng, stem, recipe):
    r = Refutation(rng, stem + ".p", random.Random(repr(recipe)))
    proved = []
    for kind, size in recipe:
        proved.extend(r.segment(kind, size))
    goal = r.finish(proved)
    text = ("# SZS status Theorem\n# SZS output start CNFRefutation\n"
            + "\n".join(r.lines) + "\n# SZS output end CNFRefutation\n")
    facts = {"conjecture": goal, "axioms": r.axioms, "skolem_defs": r.skolem_steps,
             "steps": r.steps, "units": r.units}
    return text, facts


# ---------------------------------------------------------------------------
# Problem files


class FormulaMaker:
    """Random fof and cnf axioms over a fixed signature."""

    def __init__(self, rng):
        self.rng = rng
        names = Names(rng)
        self.preds = [(names("pred"), rng.choice((1, 1, 2, 2, 3))) for _ in range(40)]
        self.funcs = [(names("func"), rng.choice((1, 2))) for _ in range(12)]
        self.consts = [names("const") for _ in range(16)]

    def term(self, variables, depth=0):
        roll = self.rng.random()
        if variables and roll < 0.45:
            return self.rng.choice(variables)
        if depth < 2 and roll < 0.7:
            name, arity = self.rng.choice(self.funcs)
            return f"{name}({','.join(self.term(variables, depth + 1) for _ in range(arity))})"
        return self.rng.choice(self.consts)

    def atom(self, variables):
        if self.rng.random() < 0.15:
            return f"{self.term(variables)} = {self.term(variables)}"
        name, arity = self.rng.choice(self.preds)
        return f"{name}({','.join(self.term(variables) for _ in range(arity))})"

    def literal(self, variables):
        text = self.atom(variables)
        return "~ " + text if self.rng.random() < 0.4 else text

    def fof(self, variables=(), depth=0):
        roll = self.rng.random()
        if depth >= 3 or roll < 0.3:
            return self.literal(list(variables))
        if roll < 0.55:
            var = f"X{len(variables) + 1}"
            q = self.rng.choice("!?")
            return f"{q} [{var}] : ({self.fof(variables + (var,), depth + 1)})"
        op = self.rng.choice(("&", "|", "=>", "<=>"))
        return f"({self.fof(variables, depth + 1)} {op} {self.fof(variables, depth + 1)})"

    def clause(self):
        variables = [f"X{i}" for i in range(1, self.rng.randint(1, 3) + 1)]
        width = self.rng.randint(1, 6)
        return " | ".join(self.literal(variables) for _ in range(width))

    def unit(self, name):
        """(TPTP line, formula text) of one axiom; one in four is cnf."""
        if self.rng.random() < 0.25:
            text = self.clause()
            return f"cnf({name},axiom,({text})).", text
        text = "! [X1] : (" + self.fof(("X1",), 1) + ")"
        return f"fof({name},axiom,{text}).", text


def problem_files(rng, out):
    """Large problem files with includes; facts list every axiom in order."""
    maker = FormulaMaker(rng)
    facts = {}
    for stem, own, includes in PROBLEMS:
        lines, axioms = [f"% {stem}: generated problem"], []
        for inc, count, selected in includes:
            inc_lines, inc_axioms, names = [], [], []
            for i in range(count):
                name = f"{inc.lower().replace('+', 'p').replace('-', 'm')}_{i}"
                line, text = maker.unit(name)
                inc_lines.append(line)
                inc_axioms.append(text)
                names.append(name)
            path = os.path.join(out, "axioms", "Axioms", inc + ".ax")
            _write(path, "\n".join(inc_lines) + "\n")
            if selected is None:
                lines.append(f"include('Axioms/{inc}.ax').")
                axioms.extend(inc_axioms)
            else:
                picked = sorted(rng.sample(range(count), selected))
                lines.append(f"include('Axioms/{inc}.ax',[{','.join(names[i] for i in picked)}]).")
                axioms.extend(inc_axioms[i] for i in picked)
        for i in range(own):
            line, text = maker.unit(f"a{i}")
            lines.append(line)
            axioms.append(text)
        conjecture = "! [X1] : (" + maker.fof(("X1",), 1) + ")"
        lines.append(f"fof(goal,conjecture,{conjecture}).")
        _write(os.path.join(out, stem + ".p"), "\n".join(lines) + "\n")
        facts[stem + ".p"] = {"conjecture": conjecture, "axioms": len(axioms),
                              "axiom_formulas": axioms, "units": len(axioms) + 1}
    # One 1000-literal clause; its content does not depend on the seed.
    lits = [f"lit{i}(c)" for i in range(WIDE_CLAUSE_LITERALS)]
    _write(os.path.join(out, "WIDE001-1.p"),
           f"cnf(wide,axiom,({' | '.join(lits)})).\nfof(goal,conjecture,lit0(c)).\n")
    facts["WIDE001-1.p"] = {
        "conjecture": "lit0(c)", "axioms": 1, "units": 2,
        "axiom_formulas": [" | ".join(lits)],
        "expected_failure": "RecursionError",
    }
    return facts


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def generate(workload, seed, out):
    """Write the workload's corpus under `out`; return {file: facts}.

    Files are listed in the order the benchmark translates them.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out, exist_ok=True)
    if workload == "problem-parse":
        return problem_files(rng, out)
    facts = {}
    if workload == "refute-compress":
        shutil.copyfile(FIXTURE, os.path.join(out, "puz001+1.out"))
        facts["puz001+1.out"] = dict(PUZ001_FACTS)
        recipes = REFUTE_COMPRESS
    else:
        recipes = REFUTE_EXPAND
    for stem, recipe in recipes:
        text, file_facts = refutation(rng, stem, recipe)
        _write(os.path.join(out, stem + ".out"), text)
        facts[stem + ".out"] = file_facts
    return facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    facts = generate(args.workload, args.seed, args.out)
    print(json.dumps(facts, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
