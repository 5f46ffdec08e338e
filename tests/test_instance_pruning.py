"""The check at each node of the instance search (`obvious._falsifiable` on
a branch's view): a non-literal unit is skipped only where none of its
instances can be false, so the search yields the same commitments in the
same order, and it spends less budget on compression's queries."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tptp2miz import article, compress, derivation, fol, obvious, tptp

import helpers
from test_corpus_digests import _bench_run
from test_verdict_golden import sample_queries

X, Y = fol.Var("X"), fol.Var("Y")
GROUND = [fol.App("a"), fol.App("b"), fol.App("f", (fol.App("a"),)),
          fol.App("f", (fol.App("b"),))]


def random_term(rng, variables):
    roll = rng.random()
    if variables and roll < 0.45:
        return rng.choice(variables)
    if roll < 0.65:
        return fol.App("f", (rng.choice(variables + GROUND[:2]),))
    return rng.choice(GROUND[:2])


def random_leaf(rng, variables):
    """A literal over p/1, r/2, q/0 and =, or a quantified atom."""
    roll = rng.random()
    if roll < 0.15:
        atom = fol.Eq(random_term(rng, variables), random_term(rng, variables))
    elif roll < 0.25:
        z = fol.Var("Z")
        body = fol.Atom("r", (random_term(rng, variables), z))
        atom = (fol.Forall if rng.random() < 0.5 else fol.Exists)(("Z",), body)
    elif roll < 0.3:
        atom = fol.Atom("q")
    elif roll < 0.65:
        atom = fol.Atom("p", (random_term(rng, variables),))
    else:
        atom = fol.Atom("r", (random_term(rng, variables), random_term(rng, variables)))
    return fol.Not(atom) if rng.random() < 0.5 else atom


def random_matrix(rng, variables, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return random_leaf(rng, variables)
    if roll < 0.3:
        return fol.TRUE if rng.random() < 0.5 else fol.FALSE
    parts = [random_matrix(rng, variables, depth - 1) for _ in range(2)]
    if roll < 0.55:
        return fol.join(fol.Or, parts)
    if roll < 0.75:
        return fol.join(fol.And, parts)
    if roll < 0.85:
        return fol.Implies(*parts)
    if roll < 0.95:
        return fol.Iff(*parts)
    return fol.Not(parts[0])


def random_case(rng):
    """A non-literal unit over X and Y, a registry, and the view of a
    random branch, or None when congruence makes the branch contradictory.
    The branch's atoms are ground instances of the matrix's own atoms and
    quantified subformulas, and random ground atoms."""
    matrix = random_matrix(rng, [X, Y])
    unit = obvious.universal_unit(fol.Forall(("X", "Y"), matrix))
    if unit is None or unit.nnf() is None:
        return None
    leaves = [g for g, bound in fol.subformulas(matrix) if not bound and isinstance(
        g, (fol.Atom, fol.Eq, fol.Forall, fol.Exists))]
    registry = obvious._Registry()
    branch = {}
    for _ in range(rng.randint(1, 8)):
        if leaves and rng.random() < 0.7:
            at = {"X": rng.choice(GROUND), "Y": rng.choice(GROUND)}
            atom = fol.apply_substitution(at, rng.choice(leaves))
        else:
            atom = random_leaf(rng, [])
            if isinstance(atom, fol.Not):
                atom = atom.body
        branch[registry.atom_key(atom)] = rng.random() < 0.5
    view = obvious._make_branch_view(branch, registry)
    if view is None:
        return None
    return unit, registry, branch, view


def instances(unit, registry, branch):
    """The substitutions the search would try at the branch, then every
    substitution over the ground terms and the fill constant."""
    atoms = [registry.atoms[k] for k in branch
             if isinstance(registry.atoms[k], (fol.Atom, fol.Eq))]
    universe = GROUND + [obvious._FILL]
    yield from obvious.candidate_substitutions(unit, atoms, universe,
                                               obvious.Budget(10**6))
    for terms in itertools.product(universe, repeat=2):
        yield dict(zip(unit.variables, terms))


def some_instance_false(unit, registry, branch, view):
    for subst in instances(unit, registry, branch):
        compiled = obvious._compile(obvious.instance_formula(unit, subst), registry)
        if obvious._falsified(compiled, view, registry, {}):
            return True
    return False


def never_false(unit, view):
    return not obvious._falsifiable(unit.nnf(), view.present(), {})


@given(st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_a_skipped_unit_has_no_false_instance(seed):
    case = random_case(helpers.make_rng(seed))
    if case is not None and never_false(case[0], case[3]):
        assert not some_instance_false(*case)


def test_the_property_is_not_vacuous():
    # over these seeds the check skips many units, and keeps many that
    # have a false instance
    skipped = kept_false = 0
    for seed in range(300):
        case = random_case(helpers.make_rng(seed))
        if case is None:
            continue
        if never_false(case[0], case[3]):
            skipped += 1
        elif some_instance_false(*case):
            kept_false += 1
    assert skipped >= 100 and kept_false >= 20


# ---------------------------------------------------------------------------
# The search yields the same commitments with the check on and off


def commitment_sequences(monkeypatch, run, check):
    """Every commitment set that _extensions yields while `run` runs, in
    order, with the per-node check on or answering "may be false".  The
    per-node check is the call that reads a view's congruence; the
    pre-search check passes none, and is left as it is."""
    original_walk = obvious._falsifiable
    original_extensions = obvious._Problem._extensions
    seen = []

    def walk(g, present, memo):
        if not check and present[1] is not None:
            return obvious._ANY
        return original_walk(g, present, memo)

    def extensions(self, index, commitments, available):
        for trial in original_extensions(self, index, commitments, available):
            seen.append((index, tuple(
                (key, tuple(sorted((v, t.key) for v, t in c.subst.items())))
                for key, c in trial.items())))
            yield trial

    with monkeypatch.context() as patch:
        patch.setattr(obvious, "_falsifiable", walk)
        patch.setattr(obvious._Problem, "_extensions", extensions)
        result = run()
    return seen, result


def assert_same_search(monkeypatch, run):
    checked, result = commitment_sequences(monkeypatch, run, True)
    unchecked, unchecked_result = commitment_sequences(monkeypatch, run, False)
    assert checked == unchecked and checked
    assert result == unchecked_result


def test_same_commitments_on_the_verdict_sample(monkeypatch):
    queries = [q for _, q in sample_queries()]

    def run():
        return [obvious.is_obvious(q, budget=obvious.Budget(10**6)) for q in queries]

    assert_same_search(monkeypatch, run)


@pytest.fixture(scope="module")
def refute_compress_corpus(tmp_path_factory):
    """Articles of two seed-1 refute-compress files, built as the benchmark builds them."""
    run = _bench_run()
    corpus_dir = str(tmp_path_factory.mktemp("corpus"))
    facts = run.corpus.generate("refute-compress", 1, corpus_dir)
    built = {}
    for job in run.jobs_for("refute-compress", corpus_dir, facts):
        if job["name"] in ("mix021.out", "mid050.out"):
            units = tptp.parse_derivation_file(job["input"])
            built[job["name"]] = helpers.finished_article(derivation.build_graph(units))
    return built


@pytest.mark.parametrize("name", ["mix021.out", "mid050.out"])
def test_same_commitments_on_compression(monkeypatch, refute_compress_corpus, name):
    model, manifest = refute_compress_corpus[name]

    def run():
        out, report = helpers.compressed(model, manifest)
        return article.render_article(out), report

    assert_same_search(monkeypatch, run)


def test_compression_budget_on_mix021(monkeypatch, refute_compress_corpus):
    """Counts, not timings: compression's queries on mix021 spend 1,268
    budget units and call candidate_substitutions 42 times.  Without the
    per-node check they spent 16,792 over 240 calls."""
    model, manifest = refute_compress_corpus["mix021.out"]
    spent, calls = [0], [0]
    original_is_obvious = obvious.is_obvious
    original_candidates = obvious.candidate_substitutions

    def is_obvious(q, memo=None, budget=None):
        verdict = original_is_obvious(q, memo, budget)
        spent[0] += budget.used
        return verdict

    def candidates(*args):
        calls[0] += 1
        return original_candidates(*args)

    monkeypatch.setattr(obvious, "is_obvious", is_obvious)
    monkeypatch.setattr(obvious, "candidate_substitutions", candidates)
    with obvious.PremiseMemo() as memo:
        _, report = compress.compress(model, manifest, memo, budget=obvious.DEFAULT_BUDGET)
    assert report.steps_after == 0
    assert (spent[0], calls[0]) == (1268, 42)
