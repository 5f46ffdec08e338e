"""Brute-force oracles for the soundness tests.

brute_force_entails decides whether premises entail a conclusion in every
interpretation over a domain of a given size, by enumerating them, and
brute_force_conservative whether a Henkin axiom is conservative over its
parent there.  They share nothing with the checker but the syntax and the
signature.
"""

import itertools

from tptp2miz import fol

_DEFAULT_MODEL_CAP = 4_000_000


class SignatureTooLarge(Exception):
    def __init__(self, count, cap):
        self.count = count
        self.cap = cap
        super().__init__(
            f"model enumeration would need {count} interpretations (cap {cap})"
        )


def _compile_term(t):
    if isinstance(t, fol.Var):
        name = t.name
        return lambda interp, env: env[name]
    symbol = (t.name, len(t.args))
    args = [_compile_term(a) for a in t.args]
    return lambda interp, env: interp[symbol][tuple([a(interp, env) for a in args])]


def _compile(f, domain):
    """A closure that evaluates the formula in (interpretation, environment)."""
    if isinstance(f, fol.Atom):
        symbol = (f.pred, len(f.args))
        args = [_compile_term(a) for a in f.args]
        return lambda interp, env: interp[symbol][tuple([a(interp, env) for a in args])]
    if isinstance(f, fol.Eq):
        left, right = _compile_term(f.left), _compile_term(f.right)
        return lambda interp, env: left(interp, env) == right(interp, env)
    if isinstance(f, fol.Not):
        body = _compile(f.body, domain)
        return lambda interp, env: not body(interp, env)
    if isinstance(f, (fol.And, fol.Or)):
        parts = [_compile(p, domain) for p in f.parts]
        test = all if isinstance(f, fol.And) else any
        return lambda interp, env: test(p(interp, env) for p in parts)
    if isinstance(f, fol.Implies):
        left, right = _compile(f.left, domain), _compile(f.right, domain)
        return lambda interp, env: not left(interp, env) or right(interp, env)
    if isinstance(f, fol.Iff):
        left, right = _compile(f.left, domain), _compile(f.right, domain)
        return lambda interp, env: left(interp, env) == right(interp, env)
    if isinstance(f, (fol.Forall, fol.Exists)):
        variables, body = f.vars, _compile(f.body, domain)
        test = all if isinstance(f, fol.Forall) else any
        # a later repeat of a name shadows an earlier one, as dict() keeps the last
        return lambda interp, env: test(
            body(interp, {**env, **dict(zip(variables, values))})
            for values in itertools.product(domain, repeat=len(variables))
        )
    value = isinstance(f, fol.Verum)
    return lambda interp, env: value


def _tables(s, domain):
    """Every table of the symbol over the domain."""
    points = list(itertools.product(domain, repeat=s.arity))
    values = list(domain) if s.kind == "function" else [False, True]
    return [dict(zip(points, combo))
            for combo in itertools.product(values, repeat=len(points))]


def _interpretations(symbols, domain):
    keys = [(s.name, s.arity) for s in symbols]
    for combo in itertools.product(*[_tables(s, domain) for s in symbols]):
        yield dict(zip(keys, combo))


def brute_force_conservative(parent, axiom, fresh, domain_size):
    """True iff, over a domain of the given size, every interpretation of
    the axiom's other symbols that satisfies the parent extends, by some
    reading of the fresh function symbols, to a model of the axiom: then
    the axiom says nothing new about the other symbols (exhaustive)."""
    parent, axiom = fol.universal_closure(parent), fol.universal_closure(axiom)
    signature = fol.Signature()
    signature.add([parent, axiom])
    fresh = {(s.name, s.arity) for s in fresh}
    base = [s for s in signature.symbols() if (s.name, s.arity) not in fresh]
    chosen = [s for s in signature.symbols() if (s.name, s.arity) in fresh]
    domain = range(domain_size)
    holds_parent, holds_axiom = _compile(parent, domain), _compile(axiom, domain)
    return all(
        any(holds_axiom({**interp, **choice}, {}) for choice in _interpretations(chosen, domain))
        for interp in _interpretations(base, domain) if holds_parent(interp, {})
    )


def brute_force_entails(premises, conclusion, domain_size, cap=_DEFAULT_MODEL_CAP):
    """True iff every interpretation of the given finite domain size that
    satisfies all premises also satisfies the conclusion (exhaustive).

    Symbols get their tables one at a time, those of the first premise
    first.  A premise is evaluated as soon as its symbols all have tables,
    and once one is false no extension of those tables is enumerated."""
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")
    premises = [fol.universal_closure(p) for p in premises]
    conclusion = fol.universal_closure(conclusion)
    signature = fol.Signature()
    signature.add(premises + [conclusion])
    symbols = signature.symbols()
    n = domain_size

    total = 1
    for s in symbols:
        cells = n ** s.arity
        total *= (n ** cells) if s.kind == "function" else (2 ** cells)
        if total > cap:
            raise SignatureTooLarge(total, cap)

    domain = range(n)
    position = {}  # (name, arity) -> place in the enumeration order
    for f in premises + [conclusion]:
        for name, _, arity in fol.formula_symbols(f):
            position.setdefault((name, arity), len(position))
    order = sorted(symbols, key=lambda s: position[(s.name, s.arity)])

    # checks[k]: the premises decided once the first k symbols have tables
    checks = [[] for _ in range(len(order) + 1)]
    for p in premises:
        last = max((position[(name, arity)] for name, _, arity in fol.formula_symbols(p)),
                   default=-1)
        checks[last + 1].append(_compile(p, domain))
    goal = _compile(conclusion, domain)
    choices = [_tables(s, domain) for s in order]
    interp = {}

    def no_countermodel(k):
        if not all(check(interp, {}) for check in checks[k]):
            return True
        if k == len(order):
            return goal(interp, {})
        symbol = (order[k].name, order[k].arity)
        for table in choices[k]:
            interp[symbol] = table
            if not no_countermodel(k + 1):
                return False
        return True

    return no_countermodel(0)
