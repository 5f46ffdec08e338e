from copy import deepcopy

import pytest
from hypothesis import given, settings, strategies as st

from tptp2miz import fol, obvious, tptp
from tptp2miz.errors import ArityConflict, KindConflict

import helpers


def V(n):
    return fol.Var(n)


def C(n):
    return fol.App(n)


p_x = fol.Atom("p", (V("X"),))
p_c = fol.Atom("p", (C("c"),))


class TestFreeVars:
    def test_first_occurrence_order(self):
        f = fol.join(fol.Or, (fol.Atom("q", (V("B"), V("A"))), fol.Atom("p", (V("A"),))))
        assert f.free == ("B", "A")

    def test_bound_not_free(self):
        f = fol.Forall(("X",), fol.Atom("q", (V("X"), V("Y"))))
        assert f.free == ("Y",)

    def test_shadowing(self):
        f = fol.join(fol.And, (p_x, fol.Exists(("X",), p_x)))
        assert f.free == ("X",)


class TestClosure:
    def test_closure_then_strip_is_identity_on_matrix(self):
        f = fol.Atom("r", (V("X"), V("Y")))
        closed = fol.universal_closure(f)
        assert closed.vars == ("X", "Y")
        assert closed.body == f

    def test_closed_formula_unchanged(self):
        assert fol.universal_closure(p_c) == p_c


class TestSubstitution:
    def test_simple(self):
        out = fol.apply_substitution({"X": C("c")}, p_x)
        assert out == p_c

    def test_bound_variable_untouched(self):
        f = fol.Forall(("X",), p_x)
        assert fol.apply_substitution({"X": C("c")}, f) == f

    def test_capture_avoided(self):
        # substituting Y:=X below a binder for X must rename the binder
        f = fol.Forall(("X",), fol.Atom("q", (V("X"), V("Y"))))
        out = fol.apply_substitution({"Y": V("X")}, f)
        assert isinstance(out, fol.Forall)
        assert out.vars != ("X",)
        assert out.free == ("X",)

    def test_untouched_nodes_are_shared(self):
        # a node with no key of the substitution free is returned itself,
        # so an instance keeps the very ground subterms of its matrix
        ground = fol.App("f", (C("a"), C("b")))
        q = fol.Atom("q", (ground,))
        f = fol.Forall(("X",), fol.join(fol.And, (fol.Atom("p", (ground, V("X"))), q)))
        for s in ({}, {"Y": C("c")}, {"X": C("c")}):
            assert fol.apply_substitution(s, f) is f
        t = fol.App("g", (V("X"), ground))
        assert fol.subst_term({"Y": C("c")}, t) is t
        assert fol.subst_term({"X": C("c")}, t).args[1] is ground
        out = fol.apply_substitution({"X": C("c")}, f.body)
        assert out == fol.join(fol.And, (fol.Atom("p", (ground, C("c"))), q))
        assert out.parts[0].args[0] is ground and out.parts[1] is q

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_naive_subst_when_no_capture_possible(self, seed):
        # ground replacement terms can never be captured; a naive
        # structural replacement is then a valid oracle
        rng = helpers.make_rng(seed)
        f = helpers.random_formula(rng, ["X", "Y"])
        sub = {"X": C("a"), "Y": C("b")}

        def naive(g):
            if isinstance(g, (fol.Atom,)):
                return fol.Atom(g.pred, tuple(fol.subst_term(sub, t) for t in g.args))
            if isinstance(g, fol.Eq):
                return fol.Eq(fol.subst_term(sub, g.left), fol.subst_term(sub, g.right))
            if isinstance(g, fol.Not):
                return fol.Not(naive(g.body))
            if isinstance(g, (fol.And, fol.Or)):
                return fol.join(type(g), [naive(p) for p in g.parts])
            if isinstance(g, (fol.Implies, fol.Iff)):
                return type(g)(naive(g.left), naive(g.right))
            if isinstance(g, (fol.Forall, fol.Exists)):
                inner = {k: v for k, v in sub.items() if k not in g.vars}
                if inner == sub:
                    return type(g)(g.vars, naive(g.body))
                saved = dict(sub)
                sub.clear()
                sub.update(inner)
                out = type(g)(g.vars, naive(g.body))
                sub.clear()
                sub.update(saved)
                return out
            return g

        assert fol.apply_substitution(sub, f) == naive(f)


class TestAlphaEquivalence:
    def test_renamed_binders(self):
        f = fol.Forall(("X",), fol.Exists(("Y",), fol.Atom("r", (V("X"), V("Y")))))
        g = fol.Forall(("A",), fol.Exists(("B",), fol.Atom("r", (V("A"), V("B")))))
        assert fol.alpha_equivalent(f, g)

    def test_different_structure(self):
        f = fol.Forall(("X",), p_x)
        g = fol.Exists(("X",), p_x)
        assert not fol.alpha_equivalent(f, g)

    def test_equality_orientation_ignored(self):
        f = fol.Eq(C("a"), C("b"))
        g = fol.Eq(C("b"), C("a"))
        assert fol.debruijn(f) == fol.debruijn(g)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_closure_alpha_invariant_under_renaming(self, seed):
        rng = helpers.make_rng(seed)
        f = helpers.random_formula(rng, ["X"])
        renamed = fol.apply_substitution({"X": V("Q")}, f)
        assert fol.alpha_equivalent(
            fol.universal_closure(f), fol.universal_closure(renamed)
        )


def collect_signature(formulas):
    signature = fol.Signature()
    signature.add(formulas)
    return signature.symbols()


class TestSignature:
    def test_collect_sorted(self):
        f = fol.join(fol.And, (fol.Atom("p", (fol.App("f", (C("a"),)),)), p_c))
        sig = collect_signature([f])
        assert [(s.name, s.kind, s.arity) for s in sig] == [
            ("a", "function", 0),
            ("c", "function", 0),
            ("f", "function", 1),
            ("p", "predicate", 1),
        ]

    def test_formula_symbols_each_once_in_first_occurrence_order(self):
        f = tptp.parse_problem(
            "fof(x, axiom, ![X]: (p(f(a), X) & (f(b) = g(X) | ~ p(a, f(a))) "
            "& (q => ?[Y]: (f(Y) = a))))."
        )[0].formula
        assert fol.formula_symbols(f) == [
            ("p", "predicate", 2), ("f", "function", 1), ("a", "function", 0),
            ("b", "function", 0), ("g", "function", 1), ("q", "predicate", 0),
        ]

    def test_arity_conflict(self):
        f = fol.join(fol.And, (p_c, fol.Atom("p", (C("c"), C("c")))))
        with pytest.raises(ArityConflict):
            collect_signature([f])

    def test_kind_conflict(self):
        f = fol.Atom("p", (fol.App("p"),))
        with pytest.raises(KindConflict):
            collect_signature([f])

    def test_free_variables_are_not_symbols(self):
        sig = collect_signature([p_x])
        assert [(s.name, s.kind) for s in sig] == [("p", "predicate")]

    def test_added_in_parts_the_first_conflict_is_raised(self):
        # p/1, then p/2, then p as a function: one pass would stop at p/2
        parts = [[p_c], [fol.Atom("p", (C("c"), C("c")))], [fol.Atom("q", (fol.App("p"),))]]
        signature = fol.Signature()
        for part in parts:
            signature.add(part)
        with pytest.raises(ArityConflict):
            signature.symbols()
        with pytest.raises(ArityConflict):
            collect_signature([f for part in parts for f in part])


class TestRenameSymbols:
    def test_functions_renamed_variables_kept(self):
        f = fol.Forall(("X",), fol.Atom("p", (fol.App("esk1", (V("X"),)),)))
        out = fol.rename_symbols(f, {"esk1": "skolem1"})
        assert out == fol.Forall(
            ("X",), fol.Atom("p", (fol.App("skolem1", (V("X"),)),))
        )

    def test_unchanged_nodes_are_kept(self):
        kept = fol.Exists(("Y",), fol.Eq(fol.App("g", (V("Y"),)), C("a")))
        f = fol.Forall(("X",), fol.Implies(fol.Atom("p", (fol.App("esk1", (V("X"),)),)), kept))
        assert fol.rename_symbols(f, {"esk1": "skolem1"}).body.right is kept
        assert fol.rename_symbols(f, {"q": "r", "b": "c"}) is f
        assert fol.rename_symbols(f, {}) is f


class TestGroundSubterms:
    def test_deterministic_and_complete(self):
        f = fol.Atom("p", (fol.App("f", (C("a"), C("b"))),))
        found = fol.keyed_ground_subterms(f)
        assert list(found.items()) == list(fol.keyed_ground_subterms(f).items())
        assert {t.key: t for t in found.values()} == found
        assert found[C("a").key] == C("a")
        assert fol.App("f", (C("a"), C("b"))).key in found

    def test_open_terms_excluded(self):
        f = fol.Atom("p", (fol.App("f", (V("X"),)),))
        assert fol.keyed_ground_subterms(f) == {}


# A chain as wide, or a term as deep, as this is past the default recursion limit.
WIDE = 5000


def recursive_key(t):
    """The key a term carries, computed by walking it."""
    if isinstance(t, fol.Var):
        return ("f", t.name)
    return ("a", t.name, tuple(recursive_key(a) for a in t.args))


def recursive_depth(t):
    if isinstance(t, fol.Var) or not t.args:
        return 0
    return 1 + max(recursive_depth(a) for a in t.args)


def random_nested_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return helpers.random_term(rng, ["X", "Y"])
    args = tuple(random_nested_term(rng, depth - 1) for _ in range(rng.randint(1, 2)))
    return fol.App(rng.choice(["f", "g"]), args)


def rebuilt_norm_term(t, env):
    """fol._norm_term as it was: a term is rebuilt whenever env binds any
    name, whether or not the term holds one.  The reference for the
    carried-key shortcut."""
    if not env:
        return t.key
    if isinstance(t, fol.Var):
        if t.name in env:
            return ("b", env[t.name])
        return ("f", t.name)
    return ("a", t.name, tuple(rebuilt_norm_term(a, env) for a in t.args))


class TestKeyedTerms:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_carried_key_is_the_recursive_key(self, seed):
        rng = helpers.make_rng(seed)
        t = random_nested_term(rng, 5)
        assert t.key == recursive_key(t)
        # under a binder the key is computed again, here to the same value
        assert fol._norm_term(t, {"Unbound": 0}) == t.key
        assert t.depth == recursive_depth(t)
        u = random_nested_term(rng, 5)
        assert (t.key == u.key) == (t == u)

    @given(st.integers(0, 10_000), st.dictionaries(st.sampled_from(["X", "Y", "Z"]),
                                                   st.integers(0, 3), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_norm_term_is_the_rebuild(self, seed, env):
        t = random_nested_term(helpers.make_rng(seed), 5)
        assert fol._norm_term(t, env) == rebuilt_norm_term(t, env)

    def test_deep_term_keyed_without_recursion(self):
        t = C("c")
        for _ in range(WIDE):
            t = fol.App("f", (t,))
        assert t.depth == WIDE
        key = t.key
        for _ in range(WIDE):
            assert key[:2] == ("a", "f")
            key = key[2][0]
        assert key == ("a", "c", ())


class TestSubformulas:
    def test_pre_order_with_bound_sets(self):
        q_xy = fol.Atom("q", (V("X"), V("Y")))
        inner = fol.Exists(("Y",), fol.Not(q_xy))
        f = fol.join(fol.Or, (fol.Forall(("X",), fol.join(fol.And, (p_x, inner))), p_c))
        none, x, xy = frozenset(), frozenset({"X"}), frozenset({"X", "Y"})
        assert fol.subformulas(f) == [
            (f, none),
            (f.parts[0], none),
            (f.parts[0].body, x),
            (p_x, x),
            (inner, x),
            (inner.body, xy),
            (q_xy, xy),
            (p_c, none),
        ]


class TestWideFormulas:
    """Chains wider than the recursion limit."""

    def test_free_vars_first_occurrence(self):
        names = [f"X{(i * 7) % WIDE}" for i in range(WIDE)]
        chain = fol.join(fol.Or, (fol.Atom("p", (V(n), V("X0"))) for n in names))
        assert chain.free == tuple(names)

    def test_formula_symbols_in_order(self):
        chain = fol.join(fol.Or, (fol.Atom(f"p{i}", (C(f"c{i}"),)) for i in range(WIDE)))
        expected = []
        for i in range(WIDE):
            expected += [(f"p{i}", "predicate", 1), (f"c{i}", "function", 0)]
        assert list(fol.formula_symbols(chain)) == expected


def assert_flat(f):
    for g, _ in fol.subformulas(f):
        if isinstance(g, (fol.And, fol.Or)):
            assert len(g.parts) >= 2
            assert not any(type(p) is type(g) for p in g.parts)


class TestFlatChains:
    """No construction path yields an And or Or with an operand of its kind."""

    def test_join(self):
        p, q, r = (fol.Atom(n) for n in "pqr")
        assert fol.join(fol.Or, []) is fol.FALSE
        assert fol.join(fol.And, []) is fol.TRUE
        assert fol.join(fol.And, [p]) is p
        inner = fol.join(fol.Or, [q, r])
        assert fol.join(fol.Or, [p, inner]) == fol.Or((p, q, r))
        assert fol.join(fol.And, [p, inner]) == fol.And((p, inner))

    def test_parser_splices_parenthesized_chains(self):
        f = tptp.parse_problem("fof(a, axiom, (p | (q | r)) | (s & (t & u))).")[0].formula
        p, q, r, s, t, u = (fol.Atom(n) for n in "pqrstu")
        assert f == fol.Or((p, q, r, fol.And((s, t, u))))
        g = tptp.parse_problem("fof(a, axiom, (p | q) ~| r).")[0].formula
        assert g == fol.Not(fol.Or((p, q, r)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_random_formulas(self, seed):
        rng = helpers.make_rng(seed)
        f = helpers.random_formula(rng, ["X"], depth=4)
        assert_flat(f)
        assert_flat(obvious._nnf(f))
        assert_flat(obvious._nnf(fol.Not(f)))
        text = tptp.serialize([tptp.AnnotatedFormula("u", "fof", "axiom", f)])
        assert_flat(tptp.parse_problem(text)[0].formula)
        assert_flat(helpers.random_clause_formula(rng, ["X"], width=6))


# Formulas over few names, so that quantifiers shadow and repeat names.
NAMES = ("X", "Y", "Z")
terms = st.recursive(
    st.one_of(st.sampled_from(NAMES).map(fol.Var), st.sampled_from(("a", "b")).map(fol.App)),
    lambda sub: st.builds(fol.App, st.sampled_from(("f", "g")),
                          st.lists(sub, min_size=1, max_size=3).map(tuple)),
    max_leaves=6,
)
atoms = st.one_of(
    st.builds(fol.Atom, st.sampled_from(("p", "q")), st.lists(terms, max_size=3).map(tuple)),
    st.builds(fol.Eq, terms, terms),
    st.sampled_from((fol.TRUE, fol.FALSE)),
)
formulas = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(fol.Not, sub),
        st.builds(fol.join, st.sampled_from((fol.And, fol.Or)),
                  st.lists(sub, min_size=2, max_size=3)),
        st.builds(lambda node, a, b: node(a, b), st.sampled_from((fol.Implies, fol.Iff)), sub, sub),
        st.builds(lambda node, v, b: node(v, b), st.sampled_from((fol.Forall, fol.Exists)),
                  st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(tuple), sub),
    ),
    max_leaves=10,
)


def walked_facts(f):
    """(free, binders) of a formula by a walk over it: its free variable
    names in first-occurrence order, and each quantifier's names in pre-order."""
    free, binders = {}, []

    def term(t, bound):
        if isinstance(t, fol.Var):
            if t.name not in bound:
                free.setdefault(t.name)
        else:
            for a in t.args:
                term(a, bound)

    def walk(g, bound):
        if isinstance(g, (fol.Atom, fol.Eq)):
            for t in fol.atom_terms(g):
                term(t, bound)
        elif isinstance(g, fol.Not):
            walk(g.body, bound)
        elif isinstance(g, (fol.And, fol.Or)):
            for p in g.parts:
                walk(p, bound)
        elif isinstance(g, (fol.Implies, fol.Iff)):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, (fol.Forall, fol.Exists)):
            binders.extend(g.vars)
            walk(g.body, bound.union(g.vars))

    walk(f, frozenset())
    return tuple(free), tuple(binders)


def assert_facts_walked(f):
    """Every subformula's and term's carried facts are the walked ones, read
    top-down here and bottom-up in a rebuilt copy."""
    copy = deepcopy(f)  # every node rebuilt through its constructor
    assert copy is not f
    for g in [g for g, _ in fol.subformulas(f)] + [g for g, _ in fol.subformulas(copy)][::-1]:
        assert (g.free, g.binders) == walked_facts(g)
        for t in fol.atom_terms(g):
            assert t.free == walked_facts(fol.Atom("p", (t,)))[0]


class TestCarriedFacts:
    @given(formulas)
    @settings(max_examples=300, deadline=None)
    def test_facts_are_the_walked_ones(self, f):
        assert_facts_walked(f)

    @given(formulas)
    @settings(max_examples=200, deadline=None)
    def test_closure_of_a_closed_formula_is_itself(self, f):
        closed = fol.universal_closure(f)
        assert closed.free == ()
        assert fol.universal_closure(closed) is closed
        if not f.free:
            assert closed is f
        # one block binds f's free variables, then the names of f's own Forall
        if f.free:
            own = f.vars if isinstance(f, fol.Forall) else ()
            assert closed.vars == f.free + own
            assert closed.body == (f.body if own else f)

    @given(formulas)
    @settings(max_examples=200, deadline=None)
    def test_equality_hashing_and_repr_ignore_the_facts(self, f):
        copy = deepcopy(f)  # equal, but built anew
        assert copy is not f
        facts = (f.free, f.binders)
        assert copy == f and hash(copy) == hash(f) and repr(copy) == repr(f)
        assert (copy.free, copy.binders) == facts
        assert copy == f and hash(copy) == hash(f) and repr(copy) == repr(f)
        for text in (repr(f), repr(fol.App("f", (fol.Var("X"),)))):
            assert "free" not in text and "binders" not in text
            assert "facts" not in text and "key" not in text

    @given(formulas, st.sampled_from((fol.Forall, fol.Exists)))
    @settings(max_examples=200, deadline=None)
    def test_facts_after_a_capture_avoiding_rename(self, body, node):
        f = node(("X",), body)
        # Y := f(X) below a binder of X: the binder must be renamed
        out = fol.apply_substitution({"Y": fol.App("f", (V("X"),))}, f)
        if "Y" in f.free:
            assert out.vars[0] != "X"
            assert "X" in out.free and "Y" not in out.free
        else:
            assert out is f
        assert_facts_walked(out)

    @given(formulas)
    @settings(max_examples=100, deadline=None)
    def test_facts_after_rename_symbols(self, f):
        out = fol.rename_symbols(f, {"p": "q", "f": "h", "a": "c"})
        assert (out.free, out.binders) == (f.free, f.binders)
        assert_facts_walked(out)

    def test_ground_and_quantifier_free_nodes_share_the_empty_tuple(self):
        f = fol.join(fol.And, (p_c, fol.Not(fol.Eq(C("a"), C("b")))))
        empty = ()
        assert f.free is empty and f.binders is empty
        assert C("c").free is empty and p_c.binders is empty

    def test_closing_a_wide_formula_builds_one_node(self):
        names = [f"X{i}" for i in range(WIDE)]
        chain = fol.join(fol.Or, (fol.Atom("p", (V(n),)) for n in names))
        closed = fol.universal_closure(chain)
        assert closed.vars == tuple(names) and closed.body is chain
        assert closed.free == () and closed.binders == tuple(names)
        assert fol.universal_closure(closed) is closed
