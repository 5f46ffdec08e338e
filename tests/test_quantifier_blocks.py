"""Quantifier blocks agree with the chains of one-name quantifiers they
replaced.

A Forall or Exists binds a tuple of names, and its body is never a
quantifier of its own kind.  The chain form it replaced is kept below as
the specification: a `Link` binds one name over a body of any kind and
builds its facts as a chain link did, and the `chain_*` functions are the
de Bruijn, substitution and rendering code that read chains.  Formulas are
drawn in chain form over three names, so that names shadow and repeat, and
each is compared with its block form.
"""

from hypothesis import example, given, settings, strategies as st

from tptp2miz import article, fol, tptp


class Link:
    """A quantifier of one name; kind is fol.Forall or fol.Exists."""

    def __init__(self, kind, var, body):
        self.kind, self.var, self.body = kind, var, body
        self.free = tuple(v for v in body.free if v != var)
        self.binders = (var,) + body.binders


def blocks(f):
    """The block form of a chain-form formula."""
    if isinstance(f, Link):
        return f.kind((f.var,), blocks(f.body))
    if isinstance(f, fol.Not):
        return fol.Not(blocks(f.body))
    if isinstance(f, (fol.And, fol.Or)):
        return type(f)(tuple(blocks(p) for p in f.parts))
    if isinstance(f, (fol.Implies, fol.Iff)):
        return type(f)(blocks(f.left), blocks(f.right))
    return f


def chain_subformulas(f):
    yield f
    if isinstance(f, (Link, fol.Not)):
        yield from chain_subformulas(f.body)
    elif isinstance(f, (fol.And, fol.Or)):
        for p in f.parts:
            yield from chain_subformulas(p)
    elif isinstance(f, (fol.Implies, fol.Iff)):
        yield from chain_subformulas(f.left)
        yield from chain_subformulas(f.right)


def chain_prefix(f):
    """The names of f's leading links of f's kind, and the body below them."""
    names, kind = [], f.kind
    while isinstance(f, Link) and f.kind is kind:
        names.append(f.var)
        f = f.body
    return names, f


def closed_chain(f):
    """The chain closure: a link per free variable, the first outermost."""
    for v in reversed(f.free):
        f = Link(fol.Forall, v, f)
    return f


def chain_debruijn(f, env=None, depth=0):
    """A run of links of one kind is one level, as the block it makes."""
    env = env or {}
    if isinstance(f, Link):
        tag = "forall" if f.kind is fol.Forall else "exists"
        names, body = chain_prefix(f)
        inner = dict(env)
        for v in names:
            inner[v] = depth
            depth += 1
        return (tag, len(names), chain_debruijn(body, inner, depth))
    if isinstance(f, fol.Not):
        return ("not", chain_debruijn(f.body, env, depth))
    if isinstance(f, (fol.And, fol.Or)):
        tag = type(f).__name__.lower()
        return (tag, *[chain_debruijn(p, env, depth) for p in f.parts])
    if isinstance(f, (fol.Implies, fol.Iff)):
        tag = type(f).__name__.lower()
        return (tag, chain_debruijn(f.left, env, depth), chain_debruijn(f.right, env, depth))
    return fol.debruijn(f, env, depth)  # an atom, equation or constant


def chain_substitution(s, f):
    if not s:
        return f
    if isinstance(f, Link):
        relevant = {k: v for k, v in s.items() if k in f.free}
        if not relevant:
            return f
        range_vars = set()
        for t in relevant.values():
            range_vars.update(t.free)
        var, body = f.var, f.body
        if var in range_vars:
            avoid = range_vars | set(body.free) | set(relevant)
            new = fol.fresh_var(avoid, base=var)
            body = chain_substitution({var: fol.Var(new)}, body)
            var = new
        return Link(f.kind, var, chain_substitution(relevant, body))
    if isinstance(f, fol.Not):
        return fol.Not(chain_substitution(s, f.body))
    if isinstance(f, (fol.And, fol.Or)):
        return type(f)(tuple(chain_substitution(s, p) for p in f.parts))
    if isinstance(f, (fol.Implies, fol.Iff)):
        return type(f)(chain_substitution(s, f.left), chain_substitution(s, f.right))
    return fol.apply_substitution(s, f)


def peel_substitution(s, f):
    """fol.apply_substitution as it was before capture renaming took one
    pass: a block that would capture is peeled one name per recursive call,
    so a wide block recursed once per name.  Kept as the reference that the
    one-pass renaming must agree with up to the names of bound variables:
    where renamings cascade, the two choose different fresh names."""
    if not s:
        return f
    if isinstance(f, fol.Atom):
        return fol.Atom(f.pred, tuple(fol.subst_term(s, t) for t in f.args))
    if isinstance(f, fol.Eq):
        return fol.Eq(fol.subst_term(s, f.left), fol.subst_term(s, f.right))
    if isinstance(f, fol.Not):
        return fol.Not(peel_substitution(s, f.body))
    if isinstance(f, (fol.And, fol.Or)):
        return type(f)(tuple([peel_substitution(s, p) for p in f.parts]))
    if isinstance(f, (fol.Implies, fol.Iff)):
        return type(f)(peel_substitution(s, f.left), peel_substitution(s, f.right))
    if isinstance(f, (fol.Forall, fol.Exists)):
        relevant = {k: v for k, v in s.items() if k in f.free}
        if not relevant:
            return f
        range_vars = set()
        for t in relevant.values():
            range_vars.update(t.free)
        kind = type(f)
        if range_vars.isdisjoint(f.vars):
            return kind(f.vars, peel_substitution(relevant, f.body))
        var, rest = f.vars[0], f.vars[1:]
        body = kind(rest, f.body) if rest else f.body
        if var in range_vars:
            avoid = range_vars | set(body.free) | set(relevant)
            new = fol.fresh_var(avoid, base=var)
            body = peel_substitution({var: fol.Var(new)}, body)
            var = new
        return kind((var,), peel_substitution(relevant, body))
    return f


def chain_render(f, names):
    """article._render of the chain form."""
    def operand(g):
        text = chain_render(g, names)
        return text if isinstance(g, (fol.Atom, fol.Eq)) else "(" + text + ")"

    if isinstance(f, Link):
        variables, body = chain_prefix(f)
        inner = operand(body)
        joint = ",".join(names.get(v, v) for v in variables)
        if f.kind is fol.Forall:
            return "for " + joint + " holds " + inner
        return "ex " + joint + " st " + inner
    if isinstance(f, fol.Not) and not isinstance(f.body, (fol.Atom, fol.Eq)):
        return "not (" + chain_render(f.body, names) + ")"
    if isinstance(f, (fol.And, fol.Or)):
        word = " & " if isinstance(f, fol.And) else " or "
        return word.join(operand(p) for p in f.parts)
    if isinstance(f, (fol.Implies, fol.Iff)):
        word = " implies " if isinstance(f, fol.Implies) else " iff "
        return operand(f.left) + word + operand(f.right)
    return article._render(f, names)


def chain_format(f, bracket_per_link=False):
    """tptp.format_formula of the chain form; a bracket per link on request."""
    def sub(g):
        return chain_format(g, bracket_per_link)

    if isinstance(f, Link):
        mark = "!" if f.kind is fol.Forall else "?"
        variables, body = ([f.var], f.body) if bracket_per_link else chain_prefix(f)
        return f"{mark} [{','.join(variables)}] : {sub(body)}"
    if isinstance(f, fol.Not) and not isinstance(f.body, fol.Eq):
        return "~ " + sub(f.body)
    if isinstance(f, (fol.And, fol.Or)):
        op = " & " if isinstance(f, fol.And) else " | "
        return "(" + op.join(sub(p) for p in f.parts) + ")"
    if isinstance(f, (fol.Implies, fol.Iff)):
        op = " => " if isinstance(f, fol.Implies) else " <=> "
        return "(" + sub(f.left) + op + sub(f.right) + ")"
    return tptp.format_formula(f)


def strategies(names):
    """Terms, chain-form formulas and substitutions over the names."""
    terms = st.recursive(
        st.one_of(st.sampled_from(names).map(fol.Var), st.sampled_from(("a", "b")).map(fol.App)),
        lambda sub: st.builds(fol.App, st.sampled_from(("f", "g")),
                              st.lists(sub, min_size=1, max_size=2).map(tuple)),
        max_leaves=4,
    )
    chains = st.recursive(
        st.one_of(
            st.builds(fol.Atom, st.sampled_from(("p", "q")), st.lists(terms, max_size=3).map(tuple)),
            st.builds(fol.Eq, terms, terms),
            st.sampled_from((fol.TRUE, fol.FALSE)),
        ),
        lambda sub: st.one_of(
            st.builds(fol.Not, sub),
            st.builds(fol.join, st.sampled_from((fol.And, fol.Or)),
                      st.lists(sub, min_size=2, max_size=3)),
            st.builds(lambda node, a, b: node(a, b),
                      st.sampled_from((fol.Implies, fol.Iff)), sub, sub),
            st.builds(Link, st.sampled_from((fol.Forall, fol.Exists)), st.sampled_from(names), sub),
        ),
        max_leaves=12,
    )
    return terms, chains, st.dictionaries(st.sampled_from(names), terms, max_size=2)


# X1 is the first fresh name for X, so a rename must also avoid the body's names.
NAMES = ("X", "Y", "X1")
terms, chains, substitutions = strategies(NAMES)
# X11 is the first fresh name for X1, so a rename can meet a later name of
# its block that the renaming before it would capture, twice over.  A drawn
# block's body has an atom of drawn names beside a drawn formula, so most
# names it does not bind are free, and a substitution's range often holds a
# name that it binds.
CASCADE = ("X", "X1", "X11", "Y", "Z")
_, cascade_chains, cascade_substitutions = strategies(CASCADE)
capturing_blocks = st.builds(
    lambda kind, names, free, f: kind(tuple(names), fol.join(
        fol.And, (blocks(f), fol.Atom("p", tuple(map(fol.Var, free)))))),
    st.sampled_from((fol.Forall, fol.Exists)),
    st.lists(st.sampled_from(CASCADE), min_size=1, max_size=5),
    st.lists(st.sampled_from(CASCADE), min_size=2, max_size=5),
    cascade_chains,
)


def assert_blocks_flat(f):
    for g, _ in fol.subformulas(f):
        if isinstance(g, (fol.Forall, fol.Exists)):
            assert g.vars and type(g.body) is not type(g)


def parse(text):
    return tptp.parse_problem(f"fof(u, axiom, {text}).")[0].formula


class TestBlocksAgainstChains:
    def test_parsed_chain_is_one_block(self):
        p = fol.Atom("p", (fol.Var("X"), fol.Var("Y")))
        block = fol.Forall(("X", "Y"), p)
        assert parse("![X]: ![Y]: p(X,Y)") == block == parse("![X,Y]: p(X,Y)")
        assert parse("![X]: ?[Y]: p(X,Y)") == fol.Forall(("X",), fol.Exists(("Y",), p))
        assert fol.Forall(("X",), fol.Forall(("X", "Y"), p)).vars == ("X", "X", "Y")

    @given(chains)
    @settings(max_examples=300, deadline=None)
    def test_facts_and_keys(self, f):
        for g in chain_subformulas(f):
            block = blocks(g)
            assert_blocks_flat(block)
            assert (block.free, block.binders) == (g.free, g.binders)
            assert fol.debruijn(block) == chain_debruijn(g)

    @given(chains)
    @settings(max_examples=200, deadline=None)
    def test_texts_and_parsing(self, f):
        block = blocks(f)
        names = {v: f"X{i + 1}" for i, v in enumerate(f.free + f.binders)}
        assert article._render(block, names) == chain_render(f, names)
        assert tptp.format_formula(block) == chain_format(f)
        assert parse(chain_format(f, bracket_per_link=True)) == block
        assert parse(chain_format(f)) == block

    @given(chains, substitutions)
    @example(Link(fol.Forall, "X", fol.Atom("p", tuple(map(fol.Var, NAMES)))), {"Y": fol.Var("X")})
    @settings(max_examples=300, deadline=None)
    def test_substitution(self, f, s):
        out = fol.apply_substitution(s, blocks(f))
        assert_blocks_flat(out)
        assert fol.alpha_equivalent(out, blocks(chain_substitution(s, f)))
        closed = fol.universal_closure(out)
        assert_blocks_flat(closed)
        assert fol.debruijn(closed) == chain_debruijn(closed_chain(chain_substitution(s, f)))


    @given(capturing_blocks, cascade_substitutions)
    @example(fol.Forall(("X", "X1"), fol.Atom("p", tuple(map(fol.Var, ("X", "X1", "Y"))))),
             {"Y": fol.Var("X")})
    @example(fol.Exists(("X", "X1", "X11"), fol.Atom("p", tuple(map(fol.Var, CASCADE)))),
             {"Y": fol.Var("X")})
    @example(fol.Forall(("X", "X1"), fol.Atom("p", tuple(map(fol.Var, ("X", "X1", "Y"))))),
             {"Y": fol.App("f", (fol.Var("X"), fol.Var("X11")))})
    @settings(max_examples=500, deadline=None)
    def test_one_pass_renaming_is_the_peel(self, block, s):
        out = fol.apply_substitution(s, block)
        assert fol.alpha_equivalent(out, peel_substitution(s, block))
        relevant = {k: t for k, t in s.items() if k in block.free}
        range_names = {v for t in relevant.values() for v in t.free}
        # no name of a term is captured, and the block's names avoid them all
        assert set(out.free) == {v for u in block.free
                                 for v in (relevant[u].free if u in relevant else (u,))}
        assert range_names.isdisjoint(out.vars)

    def test_wide_block_renamed_in_one_pass(self):
        def block(width):
            names = tuple(f"A{i}" for i in range(width)) + ("Z",)
            return fol.Exists(names, fol.Atom("q", (fol.Var("Y"), fol.Var("Z"), fol.Var("A0"))))

        s = {"Y": fol.Var("Z")}
        assert fol.apply_substitution(s, block(300)) == peel_substitution(s, block(300))
        out = fol.apply_substitution(s, block(5000))  # at the default recursion limit
        assert out.vars[-1] == "Z1" and out.body.args == tuple(map(fol.Var, ("Z", "Z1", "A0")))
