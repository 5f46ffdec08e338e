"""First-order syntax: terms, formulas, substitutions, signatures.

Values are immutable; every operation returns new structures.  Variables are
kept by name so they survive into rendered output, while alpha-equivalence
and generalized-atom identity go through a de Bruijn normal form.

Conjunctions and disjunctions are flat: an And or Or holds a tuple of two
or more operands, none of the same kind, as built by join().  Quantifier
blocks are flat too: a Forall or Exists binds a tuple of names, as TPTP's
![X,Y]: does, and its body is never a quantifier of the same kind, which
the constructor merges.  A chain or block of any width is therefore one
level deep, in its de Bruijn key too, and every recursive walk below,
capture-avoiding renaming included, recurses only as deep as real
nesting: negations, alternating quantifiers, the sides of => and <=>,
alternating connectives and terms.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping

from .errors import ArityConflict, KindConflict

_set = object.__setattr__  # how a constructor sets a frozen record's slots


class Record:
    """A value compared, hashed and shown by its fields: the slots that its
    class names in `_fields`, in constructor order.  Other slots hold facts
    built from the fields, which take no part.  A record is frozen: its
    constructor sets its slots with _set, and assignment raises."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class MutableRecord(Record):
    """A record whose fields may be assigned, and so has no hash."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


# ---------------------------------------------------------------------------
# Terms
#
# A term carries its key, its depth (the number of nested argument lists)
# and its variable names, all built from its arguments' when it is made.
# So no term is ever walked to key it, however deep it is.


def _free_of(parts):
    """The free names of the parts, each once, in first-occurrence order:
    (), or the one part's own tuple when only one part has any."""
    free = seen = ()
    for p in parts:
        if p.free and not free:
            free = p.free
        elif p.free:
            if not seen:
                seen, free = set(free), list(free)
            for v in p.free:
                if v not in seen:
                    seen.add(v)
                    free.append(v)
    return tuple(free) if seen else free


class Var(Record):
    __slots__ = ("name", "key", "free")
    _fields = ("name",)
    depth = 0

    def __init__(self, name):
        _set(self, "name", name)
        _set(self, "key", ("f", name))
        _set(self, "free", (name,))

    def __repr__(self):
        return self.name


class App(Record):
    __slots__ = ("name", "args", "key", "depth", "free")
    _fields = ("name", "args")

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


Term = (Var, App)


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
                binders = tuple([b for q in parts for b in q.binders])
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


class Atom(Record):
    __slots__ = ("pred", "args", "free")
    _fields = ("pred", "args")
    binders = ()

    def __init__(self, pred, args=()):
        _set(self, "pred", pred)
        _set(self, "args", args)
        _set(self, "free", _free_of(args))


class Eq(Record):
    __slots__ = ("left", "right", "free")
    _fields = ("left", "right")  # terms
    binders = ()

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "free", _free_of((left, right)))


class Not(Record):
    __slots__ = ("body", "free", "binders")
    _fields = ("body",)

    def __init__(self, body):
        _set(self, "body", body)
        _set(self, "free", body.free)
        _set(self, "binders", body.binders)


class And(Record):
    __slots__ = ("parts", "free", "binders")
    _fields = ("parts",)  # two or more operands, none an And; build with join()

    def __init__(self, parts):
        _set(self, "parts", parts)
        _gather(self, parts)


class Or(Record):
    __slots__ = ("parts", "free", "binders")
    _fields = ("parts",)  # two or more operands, none an Or; build with join()

    def __init__(self, parts):
        _set(self, "parts", parts)
        _gather(self, parts)


class Implies(Record):
    __slots__ = ("left", "right", "free", "binders")
    _fields = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _gather(self, (left, right))


class Iff(Record):
    __slots__ = ("left", "right", "free", "binders")
    _fields = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _gather(self, (left, right))


class Forall(Record):
    __slots__ = ("vars", "body", "free", "binders")
    _fields = ("vars", "body")  # names in order, repeats kept; a body never a Forall

    def __init__(self, variables, body):
        _block(self, variables, body)


class Exists(Record):
    __slots__ = ("vars", "body", "free", "binders")
    _fields = ("vars", "body")  # as a Forall's; a body never an Exists

    def __init__(self, variables, body):
        _block(self, variables, body)


class Verum(Record):
    __slots__ = ()
    free = binders = ()


class Falsum(Record):
    __slots__ = ()
    free = binders = ()


Formula = (Atom, Eq, Not, And, Or, Implies, Iff, Forall, Exists, Verum, Falsum)

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


def formula_symbols(f: Formula) -> list:
    """(name, kind, arity) for every symbol, each once, in order of first
    occurrence: subformulas in pre-order, an atom's predicate before its
    terms' functions, and a term's function before its arguments'."""
    found = {}
    stack = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is Var:
            continue
        if kind is App:
            found.setdefault((g.name, "function", len(g.args)))
            stack.extend(reversed(g.args))
        elif kind is Atom:
            found.setdefault((g.pred, "predicate", len(g.args)))
            stack.extend(reversed(g.args))
        elif kind is Eq or kind in _BINARY:
            stack.append(g.right)
            stack.append(g.left)
        elif kind in _CHAIN:
            stack.extend(reversed(g.parts))
        elif kind is Not or kind in _QUANT:
            stack.append(g.body)
    return list(found)


class SymbolMemo:
    """formula_symbols, walked once per formula object until cleared: one
    memo serves a run, and holds each formula it has walked, so no id is
    reused.  Each symbol is kept once, shared by the formulas that have it."""

    __slots__ = ("_found", "_kept", "_symbols")

    def __init__(self):
        self.clear()

    def clear(self):
        self._found = {}  # id(formula) -> its formula_symbols, as a tuple
        self._kept = []  # the formulas walked
        self._symbols = {}  # each (name, kind, arity) met, to itself

    def __call__(self, f):
        hit = self._found.get(id(f))
        if hit is None:
            same = self._symbols.setdefault
            hit = self._found[id(f)] = tuple([same(s, s) for s in formula_symbols(f)])
            self._kept.append(f)
        return hit


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
    """t under s; a term none of whose names is a key of s is t itself."""
    if s.keys().isdisjoint(t.free):
        return t
    if type(t) is Var:
        return s[t.name]
    return App(t.name, tuple([subst_term(s, a) for a in t.args]))


def apply_substitution(s: Mapping[str, Term], f: Formula) -> Formula:
    """Simultaneous, capture-avoiding substitution of free variables.  A
    node none of whose free names is a key of s is returned itself, so an
    instance shares the untouched parts of its formula."""
    if s.keys().isdisjoint(f.free):
        return f
    kind = type(f)
    if kind is Atom:
        return Atom(f.pred, tuple([subst_term(s, t) for t in f.args]))
    if kind is Eq:
        return Eq(subst_term(s, f.left), subst_term(s, f.right))
    if kind is Not:
        return Not(apply_substitution(s, f.body))
    if kind in _CHAIN:
        return kind(tuple([apply_substitution(s, p) for p in f.parts]))
    if kind in _BINARY:
        return kind(apply_substitution(s, f.left), apply_substitution(s, f.right))
    return _rename_apart({k: v for k, v in s.items() if k in f.free}, f)


def _rename_apart(s, f):
    """The block f under s, whose keys are all free in f.  Each name of the
    block that a name of s's terms would capture is renamed, all its
    occurrences to one fresh name that avoids the names of s's terms, the
    body's free names, the block's names and the names chosen before it;
    the body takes s and these renamings in one substitution."""
    range_names = set()
    for t in s.values():
        range_names.update(t.free)
    names = f.vars
    if not range_names.isdisjoint(names):
        s, avoid = dict(s), range_names.union(f.body.free, names)
        for name in names:
            if name in range_names and name not in s:
                s[name] = Var(fresh_var(avoid, base=name))
                avoid.add(s[name].name)
        names = tuple([s[v].name if v in range_names else v for v in names])
    return type(f)(names, apply_substitution(s, f.body))


# ---------------------------------------------------------------------------
# De Bruijn normal form and alpha-equivalence


def _norm_term(t: Term, env) -> tuple:
    if not env or env.keys().isdisjoint(t.free):
        return t.key
    if isinstance(t, Var):
        return ("b", env[t.name])
    return ("a", t.name, tuple([_norm_term(a, env) for a in t.args]))


def debruijn(f: Formula, env=None, depth=0) -> tuple:
    """Hashable normal form, equal for formulas that differ only in the
    names of bound variables.  A bound variable's key is ("b", i), where i
    counts the names bound above it from the outermost.  An atom's key is
    ("p", pred, args) and an equation's ("e", sides), its sides in key
    order: the keys the checker's registry gives them.  A quantifier block
    is one level, (tag, number of names, body)."""
    if env is None:
        env = {}
    if isinstance(f, Atom):
        return ("p", f.pred, tuple([_norm_term(t, env) for t in f.args]))
    if isinstance(f, Eq):
        left, right = _norm_term(f.left, env), _norm_term(f.right, env)
        return ("e", (left, right) if left <= right else (right, left))
    if isinstance(f, Not):
        return ("not", debruijn(f.body, env, depth))
    if isinstance(f, _CHAIN):
        tag = type(f).__name__.lower()
        return (tag, *[debruijn(p, env, depth) for p in f.parts])
    if isinstance(f, _BINARY):
        tag = type(f).__name__.lower()
        return (tag, debruijn(f.left, env, depth), debruijn(f.right, env, depth))
    if isinstance(f, _QUANT):
        tag = "forall" if isinstance(f, Forall) else "exists"
        inner = dict(env)
        for v in f.vars:
            inner[v] = depth
            depth += 1
        return (tag, len(f.vars), debruijn(f.body, inner, depth))
    return (type(f).__name__.lower(),)


def alpha_equivalent(f: Formula, g: Formula) -> bool:
    return debruijn(f) == debruijn(g)


# ---------------------------------------------------------------------------
# Signatures


class Symbol(Record):
    __slots__ = _fields = ("name", "kind", "arity")  # kind: "function" | "predicate"

    def __init__(self, name, kind, arity):
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "arity", arity)


class Signature:
    """The symbol inventory of formulas added in order.  A kind or arity
    conflict is kept, and `symbols()` raises the first one met, so adding
    formulas in parts reports what one pass over them all would."""

    __slots__ = ("_arities", "_kinds", "_conflict")

    def __init__(self):
        self._arities = {}  # (name, kind) -> arity
        self._kinds = {}  # name -> kind
        self._conflict = None

    def add(self, formulas, walk=None):
        """Add the formulas' symbols; `walk` is formula_symbols, the
        default, or a SymbolMemo."""
        for f in formulas:
            for name, kind, arity in (walk or formula_symbols)(f):
                prev_kind = self._kinds.setdefault(name, kind)
                prev = self._arities.setdefault((name, kind), arity)
                if self._conflict is None and prev_kind != kind:
                    self._conflict = KindConflict(name)
                elif self._conflict is None and prev != arity:
                    self._conflict = ArityConflict(name, kind, (prev, arity))

    def symbols(self) -> list:
        """Deterministic symbol inventory; raises the first conflict."""
        if self._conflict is not None:
            raise self._conflict
        symbols = [Symbol(name, kind, arity) for (name, kind), arity in self._arities.items()]
        symbols.sort(key=lambda s: (s.kind, s.name))
        return symbols


def rename_symbols(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename function/predicate symbols throughout a formula.  A node in
    which nothing is renamed is returned itself, not a copy."""
    kind = type(f)
    if kind is Atom:
        pred, args = mapping.get(f.pred, f.pred), _renamed(f.args, _rename_term, mapping)
        return f if pred == f.pred and args is f.args else Atom(pred, args)
    if kind is Eq:
        left, right = _renamed((f.left, f.right), _rename_term, mapping)
        return f if left is f.left and right is f.right else Eq(left, right)
    if kind is Not or kind in _QUANT:
        body = rename_symbols(f.body, mapping)
        if body is f.body:
            return f
        return Not(body) if kind is Not else kind(f.vars, body)
    if kind in _CHAIN:
        parts = _renamed(f.parts, rename_symbols, mapping)
        return f if parts is f.parts else kind(parts)
    if kind in _BINARY:
        left, right = _renamed((f.left, f.right), rename_symbols, mapping)
        return f if left is f.left and right is f.right else kind(left, right)
    return f


def _rename_term(t, mapping):
    if type(t) is Var:
        return t
    name, args = mapping.get(t.name, t.name), _renamed(t.args, _rename_term, mapping)
    return t if name == t.name and args is t.args else App(name, args)


def _renamed(items, rename, mapping):
    """The tuple of the items renamed, or the very tuple when none changed."""
    out = tuple([rename(x, mapping) for x in items])
    return items if all(map(operator.is_, out, items)) else out


def keyed_ground_subterms(f: Formula) -> dict:
    """Key -> term for every ground term occurring in a formula."""
    found = {}
    for g, _ in subformulas(f):
        for t in atom_terms(g):
            _add_ground_subterms(t, found)
    return found


def _add_ground_subterms(t, found):
    """Add t's ground subterms to found by key.  A ground term already
    there has its arguments there too."""
    if not t.free:
        if t.key not in found:
            for a in t.args:
                _add_ground_subterms(a, found)
            found[t.key] = t
    elif type(t) is App:
        for a in t.args:
            _add_ground_subterms(a, found)
