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
    env = env or {}
    if isinstance(f, Link):
        tag = "forall" if f.kind is fol.Forall else "exists"
        return (tag, chain_debruijn(f.body, {**env, f.var: depth}, depth + 1))
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


# X1 is the first fresh name for X, so a rename must also avoid the body's names.
NAMES = ("X", "Y", "X1")
terms = st.recursive(
    st.one_of(st.sampled_from(NAMES).map(fol.Var), st.sampled_from(("a", "b")).map(fol.App)),
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
        st.builds(lambda node, a, b: node(a, b), st.sampled_from((fol.Implies, fol.Iff)), sub, sub),
        st.builds(Link, st.sampled_from((fol.Forall, fol.Exists)), st.sampled_from(NAMES), sub),
    ),
    max_leaves=12,
)
substitutions = st.dictionaries(st.sampled_from(NAMES), terms, max_size=2)


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
        assert out == blocks(chain_substitution(s, f))  # fresh names included
        closed = fol.universal_closure(out)
        assert_blocks_flat(closed)
        assert fol.debruijn(closed) == chain_debruijn(closed_chain(chain_substitution(s, f)))

