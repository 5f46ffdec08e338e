"""Shared generators and oracles for the test suite."""

import importlib.util
import os
import random
import sys

from tptp2miz import article, compress, fol, obvious

MIZCHECK = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "mizcheck.py")


def _load_mizcheck():
    """The benchmark's independent checker, which shares no code with the
    translator: loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("bench_mizcheck", MIZCHECK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


mizcheck = _load_mizcheck()

CONSTS = ["a", "b"]
UNARY_PREDS = ["p"]
BINARY_PREDS = ["r"]


def random_term(rng, variables, depth=0):
    roll = rng.random()
    if variables and roll < 0.5:
        return fol.Var(rng.choice(variables))
    return fol.App(rng.choice(CONSTS))


def random_atom(rng, variables):
    if rng.random() < 0.6:
        return fol.Atom(rng.choice(UNARY_PREDS), (random_term(rng, variables),))
    return fol.Atom(
        rng.choice(BINARY_PREDS),
        (random_term(rng, variables), random_term(rng, variables)),
    )


def random_literal(rng, variables):
    atom = random_atom(rng, variables)
    if rng.random() < 0.2:
        atom = fol.Eq(random_term(rng, variables), random_term(rng, variables))
    return fol.Not(atom) if rng.random() < 0.5 else atom


def random_clause_formula(rng, variables, width=3):
    lits = [random_literal(rng, variables) for _ in range(rng.randint(1, width))]
    return fol.join(fol.Or, lits)


def random_quantified(rng, max_vars=2):
    names = ["X", "Y"][: rng.randint(0, max_vars)]
    body = random_clause_formula(rng, names)
    return fol.Forall(tuple(names), body) if names else body


def random_formula(rng, variables=(), depth=2):
    """Arbitrary small formula, possibly with quantifiers."""
    variables = list(variables)
    if depth == 0 or rng.random() < 0.35:
        return random_literal(rng, variables)
    kind = rng.randrange(6)
    if kind == 0:
        return fol.Not(random_formula(rng, variables, depth - 1))
    if kind in (1, 2):
        node = fol.And if kind == 1 else fol.Or
        return fol.join(node, (
            random_formula(rng, variables, depth - 1),
            random_formula(rng, variables, depth - 1),
        ))
    if kind == 3:
        return fol.Implies(
            random_formula(rng, variables, depth - 1),
            random_formula(rng, variables, depth - 1),
        )
    fresh = fol.fresh_var(set(variables))
    node = fol.Forall if kind == 4 else fol.Exists
    return node((fresh,), random_formula(rng, variables + [fresh], depth - 1))


def make_rng(seed):
    return random.Random(seed)


def fixed_query(premises, conclusion, fixed_vars):
    """(premises, conclusion) with the fixed variables held fixed: each is
    replaced, in the premises and the conclusion, by the constant
    `.x_<name>`, so the query's closure does not quantify it."""
    mapping = {v: fol.App(f".x_{v}") for v in fixed_vars}
    return ([fol.apply_substitution(mapping, p) for p in premises],
            fol.apply_substitution(mapping, conclusion))


def random_article(rng):
    """Small ground refutation article: implication chains with some
    redundant restatements, always passing the obviousness invariant."""
    from tptp2miz import fol
    from tptp2miz.article import ArticleModel, DiffuseBlock, EnvironmentManifest, Item

    length = rng.randint(2, 6)
    atoms = [fol.Atom(f"p{i}", (fol.App("c"),)) for i in range(length + 1)]

    axiom_items = [Item("Ax1", atoms[0], ("AXIOMS:1",))]
    for i in range(length):
        k = len(axiom_items) + 1
        axiom_items.append(
            Item(f"Ax{k}", fol.Implies(atoms[i], atoms[i + 1]), (f"AXIOMS:{k}",))
        )

    lemmas = []
    label = 0
    prev_ref = "Ax1"
    for i in range(1, length + 1):
        label += 1
        lemmas.append(Item(f"S{label}", atoms[i], (prev_ref, f"Ax{i + 1}")))
        prev_ref = f"S{label}"
        if rng.random() < 0.4:  # redundant restatement
            label += 1
            lemmas.append(Item(f"S{label}", atoms[i], (prev_ref,)))
            prev_ref = f"S{label}"

    assumption_label = f"S{label + 1}"
    diffuse = DiffuseBlock(
        assumption_label, fol.Not(atoms[length]), [], (prev_ref, assumption_label)
    )
    model = ArticleModel((), axiom_items, lemmas, atoms[length], diffuse)
    manifest = EnvironmentManifest(
        functions=[("c", 0)],
        predicates=[(f"p{i}", 1) for i in range(length + 1)],
        axioms=[i.formula for i in axiom_items],
        skolem_defs=[],
    )
    return model, manifest


# A refutation whose step s1 cites the conjecture p(c) itself.  The article
# cites the assumption `not p c` in its place, from which q(c) does not
# follow, so no sound article justifies s1 as written.
CONJECTURE_CITED = (
    "fof(ax, axiom, ![X]: (p(X) => q(X)), file('x.p', ax)).\n"
    "fof(goal, conjecture, p(c), file('x.p', goal)).\n"
    "fof(neg, negated_conjecture, ~ p(c), "
    "inference(assume_negation, [status(cth)], [goal])).\n"
    "fof(s1, plain, q(c), inference(resolution, [status(thm)], [ax, goal])).\n"
    "fof(f, plain, $false, inference(resolution, [status(thm)], [s1, neg])).\n"
)


def finished_article(graph, **options):
    """build_article's draft, finished at once: every step justified in
    model order, as a run without compression does."""
    model, manifest = article.build_article(graph, **options)
    article.finish_article(model, manifest)
    return model, manifest


def compressed(model, manifest, **options):
    """compress.compress under a premise memo of its own."""
    with obvious.PremiseMemo() as memo:
        return compress.compress(model, manifest, memo, **options)


def mizcheck_problems(model, manifest):
    """What mizcheck finds wrong with the rendered article and manifest: a
    citation that does not resolve, or a plain `by` step with a countermodel
    of size 1 or 2."""
    return mizcheck.check_article(article.render_article(model),
                                  article.render_manifest(manifest)).problems


def recheck(model, manifest):
    """What is wrong with an article, empty when nothing is: mizcheck's
    problems, and each plain step that the translator's own checker does not
    find obvious from its citations."""
    problems = mizcheck_problems(model, manifest)
    index = compress._formula_index(model, manifest)
    steps = [(item.label, item.refs, item.formula)
             for item in model.all_steps() if item.subproof is None]
    if model.diffuse.contradiction_refs:
        steps.append(("thus", model.diffuse.contradiction_refs, fol.FALSE))
    for label, refs, conclusion in steps:
        premises = [index[r] for r in refs if r in index]
        if not obvious.is_obvious(premises, conclusion).is_obvious:
            problems.append(f"{label} is not obvious from its citations")
    return problems
