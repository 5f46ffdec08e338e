"""First-order syntax: terms, formulas, substitutions, signatures.

Values are immutable; every operation returns new structures.  Variables are
kept by name so they survive into rendered output, while alpha-equivalence
and generalized-atom identity go through a de Bruijn normal form.

Conjunctions and disjunctions are flat: an And or Or holds a tuple of two
or more operands, none of the same kind, as built by join().  Quantifier
blocks are flat too: a Forall or Exists binds a tuple of names, as TPTP's
![X,Y]: does, and its body is never a quantifier of the same kind, which
the constructor merges.  A chain or block of any width is therefore one
level deep, and every recursive walk below recurses only as deep as real
nesting: negations, alternating quantifiers, the sides of => and <=>,
alternating connectives and terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, Union

from .errors import ArityConflict, KindConflict

# ---------------------------------------------------------------------------
# Terms
#
# A term carries its key, its depth (the number of nested argument lists)
# and its variable names, all built from its arguments' when it is made.
# So no term is ever walked to key it, however deep it is.

_set = object.__setattr__  # how a frozen dataclass sets its own fields


def _free_of(parts):
    """The free names of the parts, each once, in first-occurrence order:
    (), or the one part's own tuple when only one part has any."""
    free = ()
    for p in parts:
        if p.free:
            if free:
                return tuple(dict.fromkeys(chain.from_iterable(q.free for q in parts)))
            free = p.free
    return free


@dataclass(frozen=True, slots=True, init=False)
class Var:
    name: str
    key: tuple = field(repr=False, compare=False)
    free: tuple = field(repr=False, compare=False)
    depth = 0

    def __init__(self, name):
        _set(self, "name", name)
        _set(self, "key", ("f", name))
        _set(self, "free", (name,))

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True, init=False)
class App:
    name: str
    args: tuple
    key: tuple = field(repr=False, compare=False)
    depth: int = field(repr=False, compare=False)
    free: tuple = field(repr=False, compare=False)

    def __init__(self, name, args=()):
        _set(self, "name", name)
        _set(self, "args", args)
        keys, depth = [], -1
        for a in args:
            keys.append(a.key)
            if a.depth > depth:
                depth = a.depth
        _set(self, "key", ("a", name, tuple(keys)))
        _set(self, "depth", depth + 1)
        _set(self, "free", _free_of(args))

    def __repr__(self):
        if not self.args:
            return self.name
        return f"{self.name}({','.join(map(repr, self.args))})"


Term = Union[Var, App]


# ---------------------------------------------------------------------------
# Formulas
#
# A formula carries two facts: free, its free variable names in
# first-occurrence order, and binders, the names its quantifiers bind in
# pre-order, one per bound name.  Neither takes part in equality, hashing or
# repr, and nodes without any share ().  Every node builds its facts from
# its parts' when it is made.


def _gather(node, parts):
    """Set a connective's facts from its operands'."""
    _set(node, "free", _free_of(parts))
    binders = ()
    for p in parts:
        if p.binders:
            if binders:
                binders = tuple(chain.from_iterable(q.binders for q in parts))
                break
            binders = p.binders
    _set(node, "binders", binders)


def _block(node, variables, body):
    """Set a quantifier's fields and facts, merging a body of its own kind."""
    free, bound = body.free, set(variables)
    if not bound.isdisjoint(free):
        free = tuple(v for v in free if v not in bound)
    _set(node, "free", free)
    _set(node, "binders", variables + body.binders)
    if type(body) is type(node):
        variables += body.vars
        body = body.body
    _set(node, "vars", variables)
    _set(node, "body", body)


@dataclass(frozen=True, slots=True, init=False)
class Atom:
    pred: str
    args: tuple
    free: tuple = field(repr=False, compare=False)
    binders = ()

    def __init__(self, pred, args=()):
        _set(self, "pred", pred)
        _set(self, "args", args)
        _set(self, "free", _free_of(args))


@dataclass(frozen=True, slots=True, init=False)
class Eq:
    left: Term
    right: Term
    free: tuple = field(repr=False, compare=False)
    binders = ()

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "free", _free_of((left, right)))


@dataclass(frozen=True, slots=True, init=False)
class Not:
    body: "Formula"
    free: tuple = field(repr=False, compare=False)
    binders: tuple = field(repr=False, compare=False)

    def __init__(self, body):
        _set(self, "body", body)
        _set(self, "free", body.free)
        _set(self, "binders", body.binders)


@dataclass(frozen=True, slots=True, init=False)
class And:
    parts: tuple  # two or more operands, none an And; build with join()
    free: tuple = field(repr=False, compare=False)
    binders: tuple = field(repr=False, compare=False)

    def __init__(self, parts):
        _set(self, "parts", parts)
        _gather(self, parts)


@dataclass(frozen=True, slots=True, init=False)
class Or:
    parts: tuple  # two or more operands, none an Or; build with join()
    free: tuple = field(repr=False, compare=False)
    binders: tuple = field(repr=False, compare=False)

    def __init__(self, parts):
        _set(self, "parts", parts)
        _gather(self, parts)


@dataclass(frozen=True, slots=True, init=False)
class Implies:
    left: "Formula"
    right: "Formula"
    free: tuple = field(repr=False, compare=False)
    binders: tuple = field(repr=False, compare=False)

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _gather(self, (left, right))


@dataclass(frozen=True, slots=True, init=False)
class Iff:
    left: "Formula"
    right: "Formula"
    free: tuple = field(repr=False, compare=False)
    binders: tuple = field(repr=False, compare=False)

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _gather(self, (left, right))


@dataclass(frozen=True, slots=True, init=False)
class Forall:
    vars: tuple  # the bound names in order, repeats kept
    body: "Formula"  # never a Forall; the constructor merges one
    free: tuple = field(repr=False, compare=False)
    binders: tuple = field(repr=False, compare=False)

    def __init__(self, variables, body):
        _block(self, variables, body)


@dataclass(frozen=True, slots=True, init=False)
class Exists:
    vars: tuple  # the bound names in order, repeats kept
    body: "Formula"  # never an Exists; the constructor merges one
    free: tuple = field(repr=False, compare=False)
    binders: tuple = field(repr=False, compare=False)

    def __init__(self, variables, body):
        _block(self, variables, body)


@dataclass(frozen=True, slots=True)
class Verum:
    free = binders = ()


@dataclass(frozen=True, slots=True)
class Falsum:
    free = binders = ()


Formula = Union[Atom, Eq, Not, And, Or, Implies, Iff, Forall, Exists, Verum, Falsum]

TRUE = Verum()
FALSE = Falsum()

_CHAIN = (And, Or)
_BINARY = (Implies, Iff)
_QUANT = (Forall, Exists)


def join(node, parts) -> Formula:
    """The And or Or (as node says) of the parts, spliced flat: operands of
    the same kind are inlined, one operand stands for itself, and none
    gives TRUE for And, FALSE for Or."""
    flat = []
    for p in parts:
        if type(p) is node:
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) > 1:
        return node(tuple(flat))
    if flat:
        return flat[0]
    return TRUE if node is And else FALSE


# ---------------------------------------------------------------------------
# Traversal


def subformulas(f: Formula) -> list:
    """Every subformula with the set of variables bound above it, as
    (subformula, frozenset) pairs in pre-order, left to right."""
    out = []
    stack = [(f, frozenset())]
    while stack:
        item = stack.pop()
        out.append(item)
        g, bound = item
        kind = type(g)
        if kind is Atom or kind is Eq:
            continue
        if kind is Not:
            stack.append((g.body, bound))
        elif kind in _CHAIN:
            for p in reversed(g.parts):
                stack.append((p, bound))
        elif kind in _BINARY:
            stack.append((g.right, bound))
            stack.append((g.left, bound))
        elif kind in _QUANT:
            stack.append((g.body, bound.union(g.vars)))
    return out


def atom_terms(f: Formula) -> tuple:
    """The argument terms of an atom or equation; () for other formulas."""
    if isinstance(f, Atom):
        return f.args
    if isinstance(f, Eq):
        return (f.left, f.right)
    return ()


def term_functions(t: Term) -> Iterator[tuple]:
    if isinstance(t, App):
        yield (t.name, len(t.args))
        for a in t.args:
            yield from term_functions(a)


def formula_symbols(f: Formula) -> list:
    """(name, kind, arity) for every symbol occurrence, in order."""
    out = []
    for g, _ in subformulas(f):
        if isinstance(g, Atom):
            out.append((g.pred, "predicate", len(g.args)))
        for t in atom_terms(g):
            for name, arity in term_functions(t):
                out.append((name, "function", arity))
    return out


# ---------------------------------------------------------------------------
# Closure


def universal_closure(f: Formula) -> Formula:
    """f under a Forall binding its free variables; a closed f itself."""
    return Forall(f.free, f) if f.free else f


# ---------------------------------------------------------------------------
# Substitution


def fresh_var(avoid, base="Z") -> str:
    n = 0
    while True:
        cand = f"{base}{n}" if n else base
        if cand not in avoid:
            return cand
        n += 1


def subst_term(s: Mapping[str, Term], t: Term) -> Term:
    if isinstance(t, Var):
        return s.get(t.name, t)
    return App(t.name, tuple(subst_term(s, a) for a in t.args))


def apply_substitution(s: Mapping[str, Term], f: Formula) -> Formula:
    """Simultaneous, capture-avoiding substitution of free variables."""
    if not s:
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(subst_term(s, t) for t in f.args))
    if isinstance(f, Eq):
        return Eq(subst_term(s, f.left), subst_term(s, f.right))
    if isinstance(f, Not):
        return Not(apply_substitution(s, f.body))
    if isinstance(f, _CHAIN):
        return type(f)(tuple([apply_substitution(s, p) for p in f.parts]))
    if isinstance(f, _BINARY):
        return type(f)(apply_substitution(s, f.left), apply_substitution(s, f.right))
    if isinstance(f, _QUANT):
        relevant = {k: v for k, v in s.items() if k in f.free}
        if not relevant:
            return f
        range_vars = set()
        for t in relevant.values():
            range_vars.update(t.free)
        kind = type(f)
        if range_vars.isdisjoint(f.vars):
            return kind(f.vars, apply_substitution(relevant, f.body))
        # a bound name would capture: peel off the first and rename it as a
        # quantifier of that one name would be, so fresh names stay as they were
        var, rest = f.vars[0], f.vars[1:]
        body = kind(rest, f.body) if rest else f.body
        if var in range_vars:
            avoid = range_vars | set(body.free) | set(relevant)
            new = fresh_var(avoid, base=var)
            body = apply_substitution({var: Var(new)}, body)
            var = new
        return kind((var,), apply_substitution(relevant, body))
    return f


# ---------------------------------------------------------------------------
# De Bruijn normal form and alpha-equivalence


def _norm_term(t: Term, env) -> tuple:
    if not env:
        return t.key
    if isinstance(t, Var):
        if t.name in env:
            return ("b", env[t.name])
        return ("f", t.name)
    return ("a", t.name, tuple(_norm_term(a, env) for a in t.args))


def debruijn(f: Formula, env=None, depth=0) -> tuple:
    """Hashable normal form: bound variables as indices, equality oriented."""
    if env is None:
        env = {}
    if isinstance(f, Atom):
        return ("atom", f.pred, tuple(_norm_term(t, env) for t in f.args))
    if isinstance(f, Eq):
        sides = sorted((_norm_term(f.left, env), _norm_term(f.right, env)))
        return ("eq", tuple(sides))
    if isinstance(f, Not):
        return ("not", debruijn(f.body, env, depth))
    if isinstance(f, _CHAIN):
        tag = type(f).__name__.lower()
        return (tag, *[debruijn(p, env, depth) for p in f.parts])
    if isinstance(f, _BINARY):
        tag = type(f).__name__.lower()
        return (tag, debruijn(f.left, env, depth), debruijn(f.right, env, depth))
    if isinstance(f, _QUANT):
        # One level per bound name, as a quantifier per name had: the
        # checker sorts keys by repr, and verdicts-500.txt pins that repr.
        tag = "forall" if isinstance(f, Forall) else "exists"
        inner = dict(env)
        for v in f.vars:
            inner[v] = depth
            depth += 1
        key = debruijn(f.body, inner, depth)
        for _ in f.vars:
            key = (tag, key)
        return key
    return (type(f).__name__.lower(),)


def alpha_equivalent(f: Formula, g: Formula) -> bool:
    return debruijn(f) == debruijn(g)


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: str  # "function" | "predicate"
    arity: int


def collect_signature(formulas: Iterable[Formula]) -> list:
    """Deterministic symbol inventory; rejects arity and kind conflicts."""
    arities = {}  # (name, kind) -> arity
    kinds = {}  # name -> kind
    for f in formulas:
        for name, kind, arity in formula_symbols(f):
            prev_kind = kinds.get(name)
            if prev_kind is not None and prev_kind != kind:
                raise KindConflict(name)
            kinds[name] = kind
            prev = arities.get((name, kind))
            if prev is not None and prev != arity:
                raise ArityConflict(name, kind, (prev, arity))
            arities[(name, kind)] = arity
    symbols = [Symbol(name, kind, arity) for (name, kind), arity in arities.items()]
    symbols.sort(key=lambda s: (s.kind, s.name))
    return symbols


def rename_symbols(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename function/predicate symbols throughout a formula."""
    if isinstance(f, Atom):
        return Atom(mapping.get(f.pred, f.pred), tuple(_rename_term(t, mapping) for t in f.args))
    if isinstance(f, Eq):
        return Eq(_rename_term(f.left, mapping), _rename_term(f.right, mapping))
    if isinstance(f, Not):
        return Not(rename_symbols(f.body, mapping))
    if isinstance(f, _CHAIN):
        return type(f)(tuple([rename_symbols(p, mapping) for p in f.parts]))
    if isinstance(f, _BINARY):
        return type(f)(
            rename_symbols(f.left, mapping), rename_symbols(f.right, mapping)
        )
    if isinstance(f, _QUANT):
        return type(f)(f.vars, rename_symbols(f.body, mapping))
    return f


def _rename_term(t, mapping):
    if isinstance(t, Var):
        return t
    return App(mapping.get(t.name, t.name), tuple(_rename_term(a, mapping) for a in t.args))


def keyed_ground_subterms(f: Formula) -> dict:
    """Key -> term for every ground term occurring in a formula."""
    found = {}
    for g, _ in subformulas(f):
        for t in atom_terms(g):
            _add_ground_subterms(t, found)
    return found


def _add_ground_subterms(t, found) -> bool:
    """Add t's ground subterms to found by key; whether t is ground."""
    if isinstance(t, Var):
        return False
    ground = True
    for a in t.args:
        if not _add_ground_subterms(a, found):
            ground = False
    if ground:
        found.setdefault(t.key, t)
    return ground
