"""Mizar-style 'obvious inference' checking.

A conclusion is accepted when the negated conclusion (universal variables
replaced by fresh constants) together with the premises is refutable using
at most one substitution instance of each universally quantified premise.

Quantified subformulas are treated as opaque generalized atoms, so the
ground reasoning core is a DPLL search extended with congruence closure
over ground equalities.  Universal premises do not take part in the
propositional case analysis directly: a chosen instance either is a single
literal (which then acts as a known fact) or must be outright falsified by
a branch.  This keeps the rule aligned with the multi-premise checker it
models: formula-level resolution steps that need propositional chaining
through a disjunctive instance are rejected as non-obvious.

Before the instance search, a check on predicate symbols alone
(`_no_closing_instance`) settles the queries in which some open branch
cannot be closed by any instances, such as a resolution step between two
non-unit clauses.  It is exact: it answers NotObvious only where the
search would find nothing.  During the search, the same walk over a
unit's matrix, on the argument classes of a branch's view
(`_falsifiable`), skips a non-literal unit at a node where none of its
instances can be false, before any candidate is made: the search makes
the same commitments in the same order, at less budget.  Every verdict
carries the reason it was reached (`ObviousnessVerdict.reason`).

A query refuted by unit propagation at the case split's root stays so
when one premise is replaced by premises whose clauses cover its own
(`covered`); compression settles such deletions without a query.

When a step's query is not obvious, the instances that its sub-proof
states are chosen on the very problem the query was asked on, which its
verdict holds (`ObviousnessVerdict.problem`, `_Problem.choose_instances`):
the step is set up once, and each choice is checked over its prepared
premises, registry and budget.
"""

from __future__ import annotations

import itertools
from enum import Enum

from . import fol
from .fol import _set
from .tptp import MAX_NESTING

DEFAULT_BUDGET = 10000

_MAX_CLAUSES = 512
_MAX_BRANCHES = 256
_MAX_CANDIDATES = 64
_MAX_FILL_UNIVERSE = 16  # residual variables range over universes this small
_FILL = fol.App(".z")  # designated constant for residual variables

# The deepest term in a sub-proof's instance: the parser's deepest term in a
# pattern as deep.  Instances of instances could nest without bound.
MAX_INSTANCE_DEPTH = 2 * MAX_NESTING


class Verdict(Enum):
    OBVIOUS = "Obvious"
    NOT_OBVIOUS = "NotObvious"
    UNKNOWN = "Unknown"


class ObviousnessVerdict(fol.Record):
    __slots__ = ("kind", "selection", "commitments", "reason", "problem")
    _fields = ("kind", "selection", "commitments", "reason")

    def __init__(self, kind, selection=(), commitments=(), reason="", problem=None):
        _set(self, "kind", kind)
        _set(self, "selection", selection)  # per-premise {var: Term}, aligned with premises
        _set(self, "commitments", commitments)  # ((unit key, subst items), ...) closing branches
        # Why the verdict was reached.  For Obvious, what closed the query: "propagation"
        # (unit propagation at the case split's root), "case-split" (the case split and
        # congruence closed every branch) or "instances" (the instance search closed them);
        # for NotObvious "no-closing-instance" (settled before the instance search) or
        # "search-exhausted"; for Unknown "budget", or the explosion guard that fired,
        # "clauses" or "branches".
        _set(self, "reason", reason)
        # The _Problem the query was asked on, which a failed step's sub-proof
        # search reuses; None when setting it up was too hard.
        _set(self, "problem", problem)

    @property
    def is_obvious(self):
        return self.kind is Verdict.OBVIOUS


class BudgetExceeded(Exception):
    pass


class _TooHard(Exception):
    """Structure outside the supported fragment: `guard` names the explosion
    guard that fired, "clauses" or "branches"."""

    def __init__(self, guard):
        super().__init__(guard)
        self.guard = guard


class Budget:
    """Work units shared by one search; spending past the limit raises."""

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded()


# ---------------------------------------------------------------------------
# Generalized atoms


class _Registry(fol.MutableRecord):
    __slots__ = _fields = ("atoms",)

    def __init__(self, atoms=None):
        # fol.debruijn key -> the atom: an Atom, an Eq with its sides in key
        # order, or a quantified formula, the first of its alpha-variants registered
        self.atoms = {} if atoms is None else atoms

    def atom_key(self, f):
        if not isinstance(f, (fol.Atom, fol.Eq, fol.Forall, fol.Exists)):
            raise ValueError(f"not an atom: {f!r}")
        key = fol.debruijn(f)
        if key not in self.atoms:
            if isinstance(f, fol.Eq) and key[1][0] != f.left.key:
                f = fol.Eq(f.right, f.left)
            self.atoms[key] = f
        return key


_CONNECTIVES = (fol.And, fol.Or, fol.Implies, fol.Iff)


def _nnf(f):
    """Negation normal form over generalized atoms (quantifiers opaque).
    Each connective is rewritten once per polarity in a call, so the two
    copies of each side of an <=> share one result, and nested <=> costs
    linear time."""
    return _nnf_node(f, True, {})


def _nnf_node(g, positive, memo):
    """`g` or its negation in NNF; memo maps (id(node), polarity) to
    (node, result), and the node keeps its id."""
    kind = type(g)
    if kind is fol.Not:
        return _nnf_node(g.body, not positive, memo)
    if kind is fol.Verum or kind is fol.Falsum:
        return fol.TRUE if positive == (kind is fol.Verum) else fol.FALSE
    if kind not in _CONNECTIVES:  # atoms and quantified subformulas
        return g if positive else fol.Not(g)
    hit = memo.get((id(g), positive))
    if hit is not None:
        return hit[1]
    if kind is fol.And or kind is fol.Or:
        node = kind if positive else (fol.Or if kind is fol.And else fol.And)
        out = fol.join(node, [_nnf_node(p, positive, memo) for p in g.parts])
    else:  # A => B is ~A | B, and A <=> B is (A => B) & (B => A)
        sides = [(g.left, g.right)]
        if kind is fol.Iff:
            sides.append((g.right, g.left))
        node = fol.Or if positive else fol.And
        out = fol.join(fol.And if positive else fol.Or, [
            fol.join(node, (_nnf_node(a, not positive, memo), _nnf_node(b, positive, memo)))
            for a, b in sides
        ])
    memo[(id(g), positive)] = (g, out)
    return out


def _clausify(f, registry):
    """CNF clauses (tuples of (atom_key, polarity)) of an NNF input."""
    out = []
    for clause in _cnf(_nnf(f), registry):
        lits = tuple(sorted(set(clause)))
        if any((k, not v) in lits for k, v in lits):
            continue  # tautology
        out.append(lits)
    if len(out) > _MAX_CLAUSES:
        raise _TooHard("clauses")
    return out


def _cnf(g, registry):
    """_clausify's clauses of the NNF `g`, tautologies and duplicates kept."""
    if isinstance(g, fol.Verum):
        return []
    if isinstance(g, fol.Falsum):
        return [()]
    if isinstance(g, fol.And):
        return [c for p in g.parts for c in _cnf(p, registry)]
    if isinstance(g, fol.Or):
        product = _cnf(g.parts[0], registry)
        for p in g.parts[1:]:
            clauses = _cnf(p, registry)
            if len(product) * len(clauses) > _MAX_CLAUSES:
                raise _TooHard("clauses")
            product = [a + b for a in product for b in clauses]
        return product
    if isinstance(g, fol.Not):
        return [((registry.atom_key(g.body), False),)]
    return [((registry.atom_key(g), True),)]


# ---------------------------------------------------------------------------
# Congruence closure


class _Congruence:
    def __init__(self, terms, equations):
        self.terms = {}
        self.parent = {}
        for t in terms:
            self._add(t)
        pending = []
        for l, r in equations:
            pending.append((self._add(l), self._add(r)))
        for a, b in pending:
            self._merge(a, b)
        self._congruence_fixpoint()

    def _add(self, t):
        key = t.key
        if key not in self.terms:
            self.terms[key] = t
            self.parent[key] = key
            if isinstance(t, fol.App):
                for a in t.args:
                    self._add(a)
        return key

    def find(self, key):
        while self.parent[key] != key:
            self.parent[key] = self.parent[self.parent[key]]
            key = self.parent[key]
        return key

    def _merge(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def _congruence_fixpoint(self):
        changed = True
        while changed:
            changed = False
            sigs = {}
            for key, t in self.terms.items():
                if not isinstance(t, fol.App) or not t.args:
                    continue
                sig = (t.name, tuple([self.find(a.key) for a in t.args]))
                other = sigs.get(sig)
                if other is None:
                    sigs[sig] = key
                elif self.find(other) != self.find(key):
                    self._merge(other, key)
                    changed = True
        # the last round merged nothing: terms with equal signatures share a root
        self.signatures = sigs

    def term_class(self, t):
        key = t.key
        if key not in self.parent:
            # unseen term: classes of compound terms follow argument classes
            if isinstance(t, fol.App) and t.args:
                sig = (t.name, tuple(self.term_class(a) for a in t.args))
                other = self.signatures.get(sig)
                if other is not None:
                    return self.find(other)
            return key
        return self.find(key)


class _BranchView(fol.MutableRecord):
    """Branch assignment canonicalized through congruence closure."""

    __slots__ = _fields = ("values", "cc", "canonical", "falsified")

    def __init__(self, values, cc, canonical, falsified=None):
        self.values, self.cc = values, cc  # canonical atom key -> bool; a _Congruence
        self.canonical = canonical  # atom key -> its canonical key, filled as atoms are read
        self.falsified = {} if falsified is None else falsified  # _Commitment -> bool

    def present(self):
        """The view as _falsifiable reads it: (heads, cc), where heads maps
        (head, value) to the argument classes of the view's atoms of that
        head and value, none for an equation or quantified head."""
        heads = {}
        for canon, value in self.values.items():
            entries = heads.setdefault((_head(canon), value), [])
            if canon[0] == "p":
                entries.append(canon[2])
        return heads, self.cc

    def value(self, key, registry):
        """The atom's truth value on the view, None when it has none."""
        canon = self.canonical.get(key)
        if canon is None:
            canon = self.canonical[key] = _canonical(key, registry, self.cc)
        return True if canon == _REFL else self.values.get(canon)


_REFL = ("e", "refl")


def _head(key):
    """The head of an atom's registry or canonical key: ("p", predicate),
    "e" for an equation or "q" for any quantified atom."""
    return key[:2] if key[0] == "p" else "e" if key[0] == "e" else "q"


def _canonical(key, registry, cc):
    atom = registry.atoms[key]
    if isinstance(atom, fol.Atom):
        return ("p", atom.pred, tuple([cc.term_class(a) for a in atom.args]))
    if isinstance(atom, fol.Eq):
        a, b = cc.term_class(atom.left), cc.term_class(atom.right)
        if a == b:
            return _REFL
        return ("e", tuple(sorted((a, b))))
    return key


def _make_branch_view(assignment, registry):
    """The assignment's view, or None when congruence makes it contradictory.
    The view depends on the assignment as a set: union-find roots are the
    least keys of their classes, so insertion order changes nothing."""
    equations = []
    terms = []
    for key, value in assignment.items():
        atom = registry.atoms[key]
        if isinstance(atom, fol.Eq):
            terms.extend((atom.left, atom.right))
            if value:
                equations.append((atom.left, atom.right))
        elif isinstance(atom, fol.Atom):
            terms.extend(atom.args)
    cc = _Congruence(terms, equations)
    values = {}
    canonical = {}
    for key, value in assignment.items():
        canon = canonical[key] = _canonical(key, registry, cc)
        if canon == _REFL:
            if not value:
                return None
            continue
        if values.setdefault(canon, value) != value:
            return None
    return _BranchView(values, cc, canonical)


def _compile(f, registry):
    """A ground generalized-atom formula's NNF with registry keys at the
    leaves: ("lit", atom key, polarity), ("and", parts), ("or", parts),
    ("true",) or ("false",).  Shared NNF nodes stay shared."""
    return _compile_node(_nnf(f), registry, {})


def _compile_node(g, registry, memo):
    """memo maps id(NNF And or Or) to its compiled node; the NNF holds the nodes."""
    kind = type(g)
    if kind is fol.And or kind is fol.Or:
        out = memo.get(id(g))
        if out is None:
            out = memo[id(g)] = ("and" if kind is fol.And else "or",
                                 [_compile_node(p, registry, memo) for p in g.parts])
        return out
    if kind is fol.Verum or kind is fol.Falsum:
        return ("true",) if kind is fol.Verum else ("false",)
    if kind is fol.Not:
        return ("lit", registry.atom_key(g.body), False)
    return ("lit", registry.atom_key(g), True)


def _falsified(node, view, registry, memo):
    """Whether a compiled formula is false on the view, where an atom with
    no value is not: three-valued evaluation, asked only for False.  memo
    maps id(compiled and or or) to its answer, so each is read once."""
    tag = node[0]
    if tag == "lit":
        return view.value(node[1], registry) is (not node[2])
    if tag == "and" or tag == "or":
        out = memo.get(id(node))
        if out is None:
            test = any if tag == "and" else all
            out = memo[id(node)] = test(_falsified(p, view, registry, memo) for p in node[1])
        return out
    return tag == "false"


# ---------------------------------------------------------------------------
# DPLL branch enumeration


def _propagate(assignment, clauses):
    """Unit propagation: extends the assignment in place to its fixpoint and
    returns the clauses it leaves open, or None when one becomes false."""
    value = assignment.get
    while True:
        changed = False
        remaining = []
        for clause in clauses:
            free = 0  # unassigned literals; the last one is (free_key, free_pol)
            for key, pol in clause:
                val = value(key)
                if val is None:
                    free += 1
                    free_key, free_pol = key, pol
                elif val == pol:
                    break  # satisfied
            else:
                if not free:
                    return None
                if free == 1:
                    assignment[free_key] = free_pol
                    changed = True
                else:
                    remaining.append(clause)
        clauses = remaining
        if not changed:
            return clauses


def _root(clauses):
    """The root assignment, holding the unit clauses, and the clauses left
    for the first propagation scan.  Unit clauses hold on every branch, so
    they are assigned before that scan, which then skips them; root
    propagation reaches one fixpoint in any order.  A unit that contradicts
    another stays, for that scan to find false."""
    root = {}
    return root, [c for c in clauses if len(c) != 1 or root.setdefault(*c[0]) != c[0][1]]


def _dpll_branches(clauses, budget):
    """All satisfying leaf assignments of the clause set (before congruence),
    or None when propagation at the root finds a clause false."""
    branches = []
    root, rest = _root(clauses)
    # depth first, True before False, on an explicit stack: a decision
    # path is as long as the clause set has atoms
    stack = [(root, rest)]
    while stack:
        assignment, clauses_left = stack.pop()
        budget.spend()
        clauses_left = _propagate(assignment, clauses_left)
        if clauses_left is None:
            if assignment is root:
                return None
            continue
        if not clauses_left:
            branches.append(assignment)
            if len(branches) > _MAX_BRANCHES:
                raise _TooHard("branches")
            continue
        key = next(
            k for k, _ in clauses_left[0] if assignment.get(k) is None
        )
        for value in (False, True):
            stack.append(({**assignment, key: value}, clauses_left))
    return branches


def covered(memo, victim, refs):
    """Whether a query that unit propagation at the root refutes stays
    refuted that way when the premise `victim` is replaced by the premises
    `refs`, judged from the prepared clauses of the victim and of the refs
    alone, whatever the query's other premises and conclusion.

    It holds when every ref prepares without _TooHard and either unit
    propagation over the refs' clauses alone finds a clause false, or each
    of the victim's clauses is a unit whose literal that propagation
    derives, or contains a clause of a ref (is subsumed by it).

    Exactness.  Unit propagation is monotone: what it derives from the
    refs' clauses, or a conflict among them, it derives from any superset,
    such as the new query's clauses.  A derived literal stands in for the
    victim's unit clause.  A ref clause d inside a victim clause c stands
    in for c: wherever c is false or unit, d is false or unit on the same
    literal.  So root propagation on the new query derives all that it
    derived on the old query, or meets a conflict first, and on the old
    query it met one.  The full query would thus be Obvious by
    "propagation", at one budget unit, as the old one was: skipping it
    changes no verdict.

    Reverse unit propagation, asking that propagation over the refs and
    the negation of c find a conflict, is weaker, and wrong here: it shows
    that the refs imply c, not that propagation derives c.  With refs l|a
    and l|~a, the victim l passes it; if the query's other premises are
    ~l|m and ~l|~m, the old query is refuted by propagation from l, but
    the new one has no unit at its root.  It needs a case split, which
    spends more budget and can meet the branch guard, so its verdict may
    differ; and where it is Obvious, by "case-split", a caller that took
    the new premises for closed by propagation would apply this rule to
    them next on a false premise."""
    try:
        clauses = [c for r in refs for c in memo.prepare(r).clauses]
        victim_clauses = memo.prepare(victim).clauses
    except _TooHard:
        return False
    derived, rest = _root(clauses)
    if _propagate(derived, rest) is None:
        return True
    for c in victim_clauses:
        if len(c) == 1 and derived.get(c[0][0]) == c[0][1]:
            continue
        literals = set(c)
        if not any(literals.issuperset(d) for d in clauses):
            return False
    return True


# ---------------------------------------------------------------------------
# Universal units and instance candidates


class UniversalUnit(fol.Record):
    __slots__ = ("key", "variables", "matrix", "_nnf")
    _fields = ("key", "variables", "matrix")

    def __init__(self, key, variables, matrix):
        _set(self, "key", key)  # normalized closed form, identifies the unit
        _set(self, "variables", variables)
        _set(self, "matrix", matrix)
        _set(self, "_nnf", _UNSEEN)

    def nnf(self):
        """The matrix in NNF, made once, when first asked; None when the
        matrix is a literal, as then every instance is committed as one."""
        if self._nnf is _UNSEEN:
            _set(self, "_nnf", None if _as_literal(self.matrix) else _nnf(self.matrix))
        return self._nnf


def universal_unit(closed):
    """The closed formula's universal prefix and matrix, or None; the
    unit's key is the closed formula's de Bruijn key, one level deep for
    the whole prefix, as the registry keys the formula as an atom."""
    if not isinstance(closed, fol.Forall):
        return None
    return UniversalUnit(fol.debruijn(closed), closed.vars, closed.body)


def _derived_units(branch, registry, known):
    """Universal facts implied by a branch's opaque quantified atoms, by
    unit key in assignment order, leaving out the keys in `known`.  A true
    Forall atom's registry key is its unit's key; a false Exists atom's
    unit is keyed ("neg",) + its registry key."""
    units = {}
    for key, value in branch.items():
        if value and key[0] == "forall":
            unit_key = key
        elif not value and key[0] == "exists":
            unit_key = ("neg",) + key
        else:
            continue
        if unit_key not in known:
            formula = registry.atoms[key]
            matrix = formula.body if value else fol.Not(formula.body)
            units[unit_key] = UniversalUnit(unit_key, formula.vars, matrix)
    return units


def matrix_atoms(matrix):
    """Atoms and equations outside quantified subformulas, in order;
    quantified subformulas are opaque for candidate generation."""
    return [
        g for g, bound in fol.subformulas(matrix)
        if not bound and isinstance(g, (fol.Atom, fol.Eq))
    ]


def _match_term(pattern, ground, variables, subst):
    if isinstance(pattern, fol.Var):
        if pattern.name in variables:
            bound = subst.get(pattern.name)
            if bound is None:
                subst[pattern.name] = ground
                return True
            return bound.key == ground.key
        return isinstance(ground, fol.Var) and ground.name == pattern.name
    if isinstance(ground, fol.Var) or pattern.name != ground.name:
        return False
    if len(pattern.args) != len(ground.args):
        return False
    return all(
        _match_term(p, g, variables, subst)
        for p, g in zip(pattern.args, ground.args)
    )


def _match_atom(pattern, ground, variables, subst):
    """The substitution extended so that the pattern matches the ground
    atom, or None; an equation may match either way round."""
    if isinstance(pattern, fol.Atom):
        if (not isinstance(ground, fol.Atom) or ground.pred != pattern.pred
                or len(ground.args) != len(pattern.args)):
            return None
        trial = dict(subst)
        for p, g in zip(pattern.args, ground.args):
            if not _match_term(p, g, variables, trial):
                return None
        return trial
    if isinstance(pattern, fol.Eq) and isinstance(ground, fol.Eq):
        for left, right in ((ground.left, ground.right), (ground.right, ground.left)):
            trial = dict(subst)
            if _match_term(pattern.left, left, variables, trial) and _match_term(
                pattern.right, right, variables, trial
            ):
                return trial
    return None


def candidate_substitutions(unit, atoms, universe, budget):
    """Instance candidates for one universal unit, deterministically ordered."""
    variables = set(unit.variables)
    patterns = matrix_atoms(unit.matrix)
    partials = [{}]
    for pattern in patterns:
        extended = []
        for partial in partials:
            extended.append(partial)
            for atom in atoms:
                budget.spend()
                trial = _match_atom(pattern, atom, variables, partial)
                if trial is not None:
                    extended.append(trial)
        # dedup, keep deterministic order, cap growth
        seen = set()
        kept = []
        for p in extended:
            sig = tuple(sorted((k, v.key) for k, v in p.items()))
            if sig not in seen:
                seen.add(sig)
                kept.append(p)
        partials = kept[:_MAX_CANDIDATES]
    # complete residual variables
    complete = []
    seen = set()
    for partial in sorted(partials, key=lambda p: -len(p)):
        residual = [v for v in unit.variables if v not in partial]
        if residual and len(residual) <= 2 and len(universe) <= _MAX_FILL_UNIVERSE:
            fillers = itertools.product(universe, repeat=len(residual))
        elif residual:
            fillers = [tuple(_FILL for _ in residual)]
        else:
            fillers = [()]
        for fill in fillers:
            budget.spend()
            subst = dict(partial)
            subst.update(dict(zip(residual, fill)))
            sig = tuple(sorted((k, v.key) for k, v in subst.items()))
            if sig not in seen:
                seen.add(sig)
                complete.append(subst)
            if len(complete) >= _MAX_CANDIDATES:
                return complete
    return complete


# ---------------------------------------------------------------------------
# The checker


def _goal_constants(n):
    return [fol.App(f".g{i + 1}") for i in range(n)]


def instance_formula(unit, subst):
    mapping = {v: subst.get(v, _FILL) for v in unit.variables}
    return fol.apply_substitution(mapping, unit.matrix)


class _Prepared(fol.MutableRecord):
    """One premise closed and split on its own, its atoms registered.
    Shared by the queries of a memo, so never modified but to keep its
    ground terms once an instance search has asked for them."""

    __slots__ = ("unit", "clauses", "closed", "_ground_terms")
    _fields = ("unit", "clauses", "closed")

    def __init__(self, unit, clauses, closed):
        self.unit = unit  # UniversalUnit, or None when the premise is ground
        self.clauses, self.closed = clauses, closed
        self._ground_terms = None

    def ground_terms(self):
        """Term key -> term for every ground term of the closed premise."""
        if self._ground_terms is None:
            self._ground_terms = fol.keyed_ground_subterms(self.closed)
        return self._ground_terms


def _prepare(premise, registry):
    """Close a premise and split it: a universal premise into its unit and
    one opaque atom, a ground one into its clauses, registering their
    atoms.  Spends no budget; raises _TooHard on a clause blow-up."""
    closed = fol.universal_closure(premise)
    unit = universal_unit(closed)
    if unit is None:
        clauses = _clausify(closed, registry)
    else:
        # The whole closed premise also participates as an opaque fact,
        # keyed by its unit's key, as _Registry.atom_key would key it.
        registry.atoms.setdefault(unit.key, closed)
        clauses = [((unit.key, True),)]
    return _Prepared(unit, clauses, closed)


class PremiseMemo:
    """Prepared premises shared by the queries of a derivation run, or of
    one step without compression, and by the sub-proof searches on them,
    and the one atom registry that their atoms and the queries' own go to.
    It can serve every query because an atom's key fixes all that is read
    of it: predicate atoms and equations are ground, and alpha-variant
    quantified atoms differ only in bound-variable names, which candidate
    generation reads by position (a premise's unit shadows the derived
    unit of its key).  The search reads units and atoms in an order that
    the query alone fixes: premise, assignment and commitment order, never
    the order in which the registry met them.

    Entries are keyed by the premise object's identity and hold that
    object, so no key can be reused while the memo lives.  Use it as a
    context manager: it is emptied on exit, on return or on raise alike.
    """

    def __init__(self):
        self.registry = _Registry()
        self._entries = {}  # id(premise) -> (premise, _Prepared or guard)

    def __len__(self):
        return len(self._entries)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._entries.clear()
        self.registry = _Registry()

    def prepare(self, premise):
        entry = self._entries.get(id(premise))
        if entry is None:
            try:
                prepared = _prepare(premise, self.registry)
            except _TooHard as exc:
                prepared = exc.guard  # every query citing it is too hard
            entry = self._entries[id(premise)] = (premise, prepared)
        if isinstance(entry[1], str):
            raise _TooHard(entry[1])
        return entry[1]


_UNSEEN = object()  # memo miss marker


class _Commitment(fol.MutableRecord):
    """One chosen instance; hashed by identity, as a key of view memos."""

    __slots__ = _fields = ("unit", "subst", "literal", "compiled")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, unit, subst, literal, compiled):
        self.unit, self.subst = unit, subst
        self.literal = literal  # (atom key, polarity) when the instance is a literal, else None
        self.compiled = compiled  # the instance compiled for _falsified when it is not a literal


class _Problem:
    """One query: prepared premises, a goal matrix and its negation's clauses."""

    def __init__(self, prepared, goal_matrix, goal_clauses, budget, registry):
        self.budget, self.registry = budget, registry
        self.premise_units = [p.unit for p in prepared]  # None for ground premises
        self.unit_count = len(prepared) - self.premise_units.count(None)
        self.goal_matrix, self.goal_clauses = goal_matrix, goal_clauses
        # The case split reads universal premises' clauses first, then
        # ground premises', then the goal's.
        self.clauses = [c for p in prepared if p.unit is not None for c in p.clauses]
        self.clauses += [c for p in prepared if p.unit is None for c in p.clauses]
        self.clauses += goal_clauses
        self._prepared = prepared
        self._universe = None  # gathered when the instance search first asks
        self._commitments = {}  # (id(unit), substitution keys) -> _Commitment

    @classmethod
    def of(cls, premises, conclusion, budget, memo):
        """The query's problem; goal constants fix its closure's variables in
        order.  Spends no budget; raises _TooHard on a clause blow-up."""
        prepared = [memo.prepare(p) for p in premises]
        goal_matrix = goal = fol.universal_closure(conclusion)
        if isinstance(goal, fol.Forall):
            consts = _goal_constants(len(goal.vars))
            goal_matrix = fol.apply_substitution(dict(zip(goal.vars, consts)), goal.body)
        problem = cls(prepared, goal_matrix, _clausify(fol.Not(goal_matrix), memo.registry),
                      budget, memo.registry)
        problem.conclusion = conclusion  # as written, for the instance search
        return problem

    def _fill_universe(self):
        """The ground terms residual variables are filled from, gathered
        from the closed premises when the instance search first asks: most
        queries never do.  Only a universe small enough to fill from is
        read, in order, so only such a one is gathered whole and sorted:
        past the bound only its size is read."""
        if self._universe is None:
            found = {}
            for p in self._prepared:
                found.update(p.ground_terms())
                if len(found) > _MAX_FILL_UNIVERSE:
                    break
            else:
                found.update(fol.keyed_ground_subterms(self.goal_matrix))
            found.setdefault(_FILL.key, _FILL)
            self._universe = ([found[k] for k in sorted(found)]
                              if len(found) <= _MAX_FILL_UNIVERSE
                              else list(found.values()))
        return self._universe

    # -- closure search ------------------------------------------------------
    #
    # A query's branch views are memoized by (open branch index, literal set
    # of the committed instances): the view depends on nothing else.  The
    # memo is made by solve and dies with the problem, so nothing outlives
    # one query.

    def _commit(self, unit, subst):
        """The commitment to one instance of a unit, made once per unit
        object and substitution: its (atom key, polarity) when the instance
        is a literal, else the instance compiled.  It holds the unit."""
        key = (id(unit), tuple(sorted([(v, t.key) for v, t in subst.items()])))
        commitment = self._commitments.get(key)
        if commitment is None:
            inst = instance_formula(unit, subst)
            lit = _as_literal(inst)
            if lit is None:
                commitment = _Commitment(unit, subst, None, _compile(inst, self.registry))
            else:
                literal = (self.registry.atom_key(lit[1]), lit[0])
                commitment = _Commitment(unit, subst, literal, None)
            self._commitments[key] = commitment
        return commitment

    def solve(self):
        """The verdict's reason, with the commitments that close every open
        branch when the query is obvious (none unless the reason is
        "instances"), else with None."""
        branches = _dpll_branches(self.clauses, self.budget)
        if branches is None:
            return "propagation", {}
        # keep the branches that congruence does not close, seeding the view
        # memo with their views
        self.branches = []
        self._views = {}  # (branch index, literal set) -> _BranchView or None
        for branch in branches:
            view = _make_branch_view(branch, self.registry)
            if view is not None:
                self._views[(len(self.branches), frozenset())] = view
                self.branches.append(branch)
        if not self.branches:
            return "case-split", {}
        units_by_key = {}
        for unit in self.premise_units:
            if unit is not None:
                units_by_key.setdefault(unit.key, unit)
        derived = [_derived_units(branch, self.registry, units_by_key)
                   for branch in self.branches]
        every_unit = dict(units_by_key)
        for units in derived:
            every_unit.update(units)
        if _no_closing_instance(self.branches, every_unit.values()):
            return "no-closing-instance", None
        # per branch, its units by key in search order: the premises' in
        # premise order, then the branch's derived units in assignment order
        per_branch_units = [{**units_by_key, **units} for units in derived]
        found = self._close_all(per_branch_units)
        return ("search-exhausted", None) if found is None else ("instances", found)

    def _view(self, index, commitments):
        """The view of the branch with the committed literals added, or
        None when a literal contradicts the branch or another literal."""
        literals = frozenset(
            c.literal for c in commitments.values() if c.literal is not None
        )
        view = self._views.get((index, literals), _UNSEEN)
        if view is _UNSEEN:
            assignment = dict(self.branches[index])
            view = None
            for key, value in literals:
                if assignment.setdefault(key, value) != value:
                    break
            else:
                view = _make_branch_view(assignment, self.registry)
            self._views[(index, literals)] = view
        return view

    def _branch_closed(self, index, commitments):
        view = self._view(index, commitments)
        if view is None:
            return True
        # A literal instance is part of the view, so it cannot be false there.
        for c in commitments.values():
            if c.literal is None:
                false = view.falsified.get(c)
                if false is None:
                    false = view.falsified[c] = _falsified(c.compiled, view, self.registry, {})
                if false:
                    return True
        return False

    def _close_all(self, per_branch_units):
        """Commitments that close every branch, or None: depth first over
        commitment sets, on an explicit stack of their extensions, so a
        search as deep as its commitments costs no recursion."""
        stack = []
        index, commitments = 0, {}
        while True:
            while index < len(self.branches):
                self.budget.spend()
                if not self._branch_closed(index, commitments):
                    break
                index += 1
            else:
                return commitments
            available = per_branch_units[index]
            if len(commitments) < len(available) + self.unit_count:
                stack.append((index, self._extensions(index, commitments, available)))
            while stack:
                index, extensions = stack[-1]
                commitments = next(extensions, None)
                if commitments is not None:
                    break
                stack.pop()
            else:
                return None

    def _atoms(self, index, commitments):
        """The atoms and equations of the branch, in assignment order, then
        those of the committed literals not on it, in commitment order."""
        keys = dict.fromkeys(self.branches[index])
        for c in commitments.values():
            if c.literal is not None:
                keys.setdefault(c.literal[0])
        atoms = self.registry.atoms
        return [atoms[key] for key in keys if isinstance(atoms[key], (fol.Atom, fol.Eq))]

    def _extensions(self, index, commitments, available):
        """The commitment sets that extend the given one by one instance,
        in search order, each keeping the branch open only by literals.

        A non-literal unit is skipped, with no candidates made and no
        budget spent, when _falsifiable finds that none of its instances
        can be false on the branch's view.  Exactness.  The branch is open
        under the given commitments, and a non-literal instance adds no
        literal, so the extension's view is that same view, on which the
        other commitments leave the branch open: the extension is yielded
        only when its own instance is false there.  _falsifiable
        over-approximates where an instance can be false, so a skipped
        unit would have yielded nothing, and the same extensions come in
        the same order.  The search visits the same nodes and finds the
        same first certificate, and only the budget that the skipped
        units' candidates cost is saved: a verdict changes only where the
        search ran out of budget, and then to its verdict at a budget
        that does not run out.  Literal units are never skipped: they
        are yielded whether they close the branch or not."""
        atoms = present = None
        for key, unit in available.items():
            if key in commitments:
                continue
            matrix = unit.nnf()
            if matrix is not None:
                if present is None:
                    present = self._view(index, commitments).present()
                if not _falsifiable(matrix, present, {}):
                    continue
            if atoms is None:
                atoms = self._atoms(index, commitments)
            universe = self._fill_universe()
            for subst in candidate_substitutions(unit, atoms, universe, self.budget):
                trial = dict(commitments)
                trial[key] = commitment = self._commit(unit, subst)
                if commitment.literal is None and not self._branch_closed(index, trial):
                    continue
                yield trial

    def choose_instances(self, hint):
        """The instances a sub-proof states: one of each universal premise,
        else two, that make the conclusion obvious from the ground premises,
        as (premise index, instance over the conclusion's variables) pairs,
        or None, also when the budget runs out.  The search reads only the
        set-up of the query, which solve leaves as it found it, so it runs
        on the problem that the query was asked on, after its verdict.
        Candidates match the atoms of the conclusion as written and of the
        ground premises, then of the instances chosen before; residual
        variables fill from the ground terms sorted by key, then the
        conclusion's variables by name.  Candidates that agree with the
        hint, a prover's bindings, go first, the last of them first."""
        conclusion = self.conclusion
        fixed = conclusion.free
        to_goal = dict(zip(fixed, _goal_constants(len(fixed))))
        found = fol.keyed_ground_subterms(conclusion)
        for p in self._prepared:
            found.update(p.ground_terms())
        universe = [found[k] for k in sorted(found)] + [to_goal[v] for v in sorted(fixed)]
        stated = [] if isinstance(conclusion, fol.Forall) else [self.goal_matrix]
        pool = self._matrix_atoms(stated + [p.closed for p in self._prepared if p.unit is None])
        preferred = {v: fol.subst_term(to_goal, t).key for v, t in hint.items()}
        units = [(i, p.unit) for i, p in enumerate(self._prepared) if p.unit is not None]
        try:
            chosen = self._choose(units, pool, universe, preferred)
            if chosen is None and units:
                chosen = self._choose([u for u in units for _ in (0, 1)], pool, universe,
                                      preferred)
        except BudgetExceeded:  # _leaf_closes answers a _TooHard leaf itself
            return None
        back = {c.key: fol.Var(v) for v, c in to_goal.items()}
        return None if chosen is None else [
            (i, instance_formula(unit, {v: _unfix_term(t, back) for v, t in subst.items()}))
            for i, unit, subst, _ in chosen]

    def _matrix_atoms(self, formulas):
        """The distinct matrix atoms of the formulas, in order, as registered."""
        keys = dict.fromkeys(self.registry.atom_key(a) for f in formulas for a in matrix_atoms(f))
        return [self.registry.atoms[k] for k in keys]

    def _choose(self, units, pool, universe, preferred):
        """(premise index, unit, substitution, instance) per unit, closing
        the leaf, or None: depth first, on an explicit stack of generators."""
        def choices(index, unit, pool):  # each instance with the pool the next unit reads
            candidates = candidate_substitutions(unit, pool, universe, self.budget)
            hinted = {v: preferred[v] for v in unit.variables if v in preferred}
            if hinted:
                agree = [all(c[v].key == k for v, k in hinted.items()) for c in candidates]
                candidates = ([c for c, a in zip(candidates, agree) if a][::-1]
                              + [c for c, a in zip(candidates, agree) if not a])
            for subst in candidates:
                inst = instance_formula(unit, subst)
                if max((t.depth for g, _ in fol.subformulas(inst) for t in fol.atom_terms(g)),
                       default=0) <= MAX_INSTANCE_DEPTH:
                    yield (index, unit, subst, inst), pool + self._matrix_atoms([inst])

        stack, chosen = [], []
        while True:
            if len(chosen) == len(units):
                if self._leaf_closes([inst for *_, inst in chosen]):
                    return chosen
            else:
                stack.append(choices(*units[len(chosen)], pool))
            while stack:
                step = next(stack[-1], None)
                if step is not None:
                    break
                stack.pop()
            else:
                return None
            choice, pool = step
            chosen = chosen[:len(stack) - 1] + [choice]

    def _leaf_closes(self, instances):
        """Whether the goal is obvious from the ground premises and the instances."""
        prepared = [p for p in self._prepared if p.unit is None]
        try:
            prepared += [_prepare(inst, self.registry) for inst in instances]
            leaf = _Problem(prepared, self.goal_matrix, self.goal_clauses, self.budget,
                            self.registry)
            return leaf.solve()[1] is not None
        except _TooHard:
            return False


def _unfix_term(t, back):
    """The term with each goal constant keyed in `back` replaced by its variable."""
    if t.key in back or not t.args:
        return back.get(t.key, t)
    args = tuple([_unfix_term(a, back) for a in t.args])
    return t if args == t.args else fol.App(t.name, args)


def _no_closing_instance(branches, units):
    """Whether some open branch stays open whatever instances of the units
    are committed: a check on predicate symbols alone, made before the
    instance search and exact for it.

    A branch closes when a committed literal clashes with its view, or
    when a committed non-literal instance is false on the view.  The view
    holds the branch's atoms and the committed literals' atoms, and
    canonicalization keeps predicate symbols.  So, with the literal units'
    (head, polarity) pairs added to the branch's, a literal instance can
    clash only with a pair of its head and the other polarity, and a
    non-literal instance can be false only where _falsifiable finds its
    unit's matrix falsifiable with those pairs standing for atoms of any
    arguments.  An equation literal unit could merge any terms, so it
    turns the check off."""
    added = {}  # (head, polarity) of every literal unit
    matrices = []  # the NNF matrices of the other units
    for unit in units:
        matrix = unit.nnf()
        if matrix is not None:
            matrices.append(matrix)
            continue
        literal = _as_literal(unit.matrix)
        if isinstance(literal[1], fol.Eq):
            return False
        added[(("p", literal[1].pred), literal[0])] = None
    for branch in branches:
        heads = {(_head(key), value): None for key, value in branch.items()}
        heads.update(added)
        if any((head, not pol) in heads for head, pol in added):
            continue
        memo = {}  # shared NNF nodes are read once, so nested <=> stays linear
        if not any(_falsifiable(m, (heads, None), memo) for m in matrices):
            return True
    return False


_MAX_BINDINGS = 16  # bindings a node of _falsifiable keeps before it gives up on them
_ANY = ({},)  # _falsifiable: may be false, whatever the unit's variables stand for


def _falsifiable(g, present, memo):
    """The bindings under which an instance of a unit's NNF matrix `g` may
    be false on a view, as a sequence of maps from the unit's variables to
    term classes; empty when no instance can be false there.  An
    over-approximation, read off the view's atoms alone.

    `present` is (heads, cc), as _BranchView.present gives it; the argument
    classes of a predicate head may be None, for atoms of any arguments,
    and then cc may be None.  memo maps id(NNF And or Or) to its answer,
    so each shared node is read once.

    An Or is false where every part is, under a joined binding; an And
    where some part is; $true never and $false always.  A predicate
    literal of polarity s needs an atom of its predicate with the value
    not s, each argument matching that atom's class: a unit variable binds
    itself to the class, consistently across the literals joined; a ground
    argument must have it; a compound argument over unit variables may
    have any class.  An equation needs a false equation, its negation
    nothing, as its sides may be congruent; a quantified atom needs one of
    the other value.  A join of more than _MAX_BINDINGS bindings may be
    false under any."""
    kind = type(g)
    if kind is fol.And or kind is fol.Or:
        out = memo.get(id(g))
        if out is not None:
            return out
        if kind is fol.And:  # some part false
            out = []
            for p in g.parts:
                part = _falsifiable(p, present, memo)
                if part is _ANY:
                    out = _ANY
                    break
                out.extend(part)
        else:  # every part false
            out = _ANY
            for p in g.parts:
                part = _falsifiable(p, present, memo)
                if not part or out is _ANY:
                    out = part
                elif part is not _ANY:
                    out = [{**a, **b} for a in out for b in part
                           if all(a.get(v, c) == c for v, c in b.items())]
                if not out:
                    break
        if len(out) > _MAX_BINDINGS:
            out = _ANY
        memo[id(g)] = out
        return out
    if kind is fol.Verum or kind is fol.Falsum:
        return _ANY if kind is fol.Falsum else ()
    positive = kind is not fol.Not
    atom = g if positive else g.body
    heads, cc = present
    if type(atom) is fol.Eq:
        return _ANY if not positive or ("e", False) in heads else ()
    if type(atom) is not fol.Atom:
        return _ANY if ("q", not positive) in heads else ()
    entries = heads.get((("p", atom.pred), not positive), ())
    if entries is None:
        return _ANY
    out = []
    if entries:
        args = atom.args
        ground = [None if a.free else cc.term_class(a) for a in args]
        for classes in entries:
            if len(classes) != len(args):
                continue
            binding = {}
            for arg, want, cls in zip(args, ground, classes):
                if want is not None:
                    if want != cls:
                        break
                elif type(arg) is fol.Var and binding.setdefault(arg.name, cls) != cls:
                    break
            else:
                if not binding or len(out) == _MAX_BINDINGS:
                    return _ANY
                out.append(binding)
    return out


def _as_literal(f):
    """(polarity, atom) when the formula is a single literal, else None."""
    if isinstance(f, fol.Not) and isinstance(f.body, (fol.Atom, fol.Eq)):
        return (False, f.body)
    if isinstance(f, (fol.Atom, fol.Eq)):
        return (True, f)
    return None


def is_obvious(premises, conclusion, memo=None, budget=None) -> ObviousnessVerdict:
    """The verdict on the conclusion from the premises, holding the problem
    it was asked on; a PremiseMemo shares premise preparation between
    queries and changes no verdict.  The search spends from the given Budget,
    or else from a fresh one of DEFAULT_BUDGET units."""
    if budget is None:
        budget = Budget(DEFAULT_BUDGET)
    problem = None
    try:
        problem = _Problem.of(premises, conclusion, budget,
                              PremiseMemo() if memo is None else memo)
        reason, commitments = problem.solve()
    except BudgetExceeded:
        return ObviousnessVerdict(Verdict.UNKNOWN, reason="budget", problem=problem)
    except _TooHard as exc:
        return ObviousnessVerdict(Verdict.UNKNOWN, reason=exc.guard, problem=problem)
    if commitments is None:
        return ObviousnessVerdict(Verdict.NOT_OBVIOUS, reason=reason, problem=problem)
    selection = []
    for unit in problem.premise_units:
        if unit is None or unit.key not in commitments:
            selection.append({})
        else:
            subst = commitments[unit.key].subst
            selection.append({v: subst.get(v, _FILL) for v in unit.variables})
    packed = tuple(
        (key, tuple(sorted(c.subst.items()))) for key, c in commitments.items()
    )
    return ObviousnessVerdict(Verdict.OBVIOUS, tuple(selection), packed, reason, problem)
