"""Expanding non-obvious inference steps into explicit sub-proofs.

Each universally quantified parent gets a ground substitution instance
(ground relative to the conclusion's variables, which the sub-proof
fixes).  Once every needed instance is stated explicitly, the conclusion
follows by an obvious inference from the instances alone.
"""

from __future__ import annotations

import itertools

from . import fol, obvious
from .errors import ExpansionFailed
from .fol import _set
from .obvious import ObviousnessQuery, Verdict
from .tptp import MAX_NESTING, InferenceRecord

# The deepest term an instance may hold: a term as deep as the parser allows
# in a pattern that deep.  Instances of instances could nest without bound.
MAX_INSTANCE_DEPTH = 2 * MAX_NESTING


class InstanceStep(fol.Record):
    __slots__ = _fields = ("label", "parent_index", "formula")

    def __init__(self, label, parent_index, formula):
        _set(self, "label", label)
        _set(self, "parent_index", parent_index)  # into the step's parent list
        _set(self, "formula", formula)  # instantiated matrix, fixed variables free


class SubProof(fol.Record):
    __slots__ = _fields = ("fixed_variables", "instances", "conclusion")

    def __init__(self, fixed_variables, instances, conclusion):
        _set(self, "fixed_variables", fixed_variables)
        _set(self, "instances", instances)  # InstanceStep, in citation order
        _set(self, "conclusion", conclusion)


def _labels():
    for size in itertools.count(1):
        for combo in itertools.product("ABCDEFGHIJKLMNOPQRSTUVWXYZ", repeat=size):
            yield "".join(combo)


def _term_depth(f):
    """The depth of the deepest term in the formula."""
    return max((t.depth for g, _ in fol.subformulas(f) for t in fol.atom_terms(g)),
               default=0)


def substitution_from_inference_record(record) -> dict:
    """Variable bindings recorded by the prover, when present."""
    if isinstance(record, InferenceRecord):
        return dict(record.bindings)
    return {}


def build_subproof(step_name, step_formula, parent_formulas,
                   budget=None, hint=None) -> SubProof:
    """Instance selection turning one derivation step into a sub-proof.

    Raises ExpansionFailed when no selection within the search space
    works.  Parents may be used twice: the search retries with duplicated
    parents before giving up.  The candidate search and every check it
    makes spend from one obvious.Budget, by default a fresh one of
    DEFAULT_BUDGET units.
    """
    if budget is None:
        budget = obvious.Budget(obvious.DEFAULT_BUDGET)
    fixed = step_formula.free

    parents = []
    for i, p in enumerate(parent_formulas):
        closed = fol.universal_closure(p)
        unit = obvious.universal_unit(closed)
        parents.append((i, unit, closed))

    # pool of atoms instances can be matched against
    pool = obvious.distinct_atoms(
        [step_formula]
        + [closed for _, unit, closed in parents if unit is None]
    )
    universe = {}
    for f in [step_formula] + [c for _, _, c in parents]:
        universe.update(fol.keyed_ground_subterms(f))
    for v in fixed:
        universe.setdefault(fol.Var(v).key, fol.Var(v))
    universe = [universe[k] for k in sorted(universe)]

    def try_parents(active):
        universal = [(i, unit) for i, unit, _ in active if unit is not None]
        ground = [closed for _, unit, closed in active if unit is None]

        def leaf_check(chosen):
            premises = ground + [inst for _, inst in chosen]
            query = ObviousnessQuery.make(premises, step_formula, fixed_vars=fixed)
            verdict = obvious.is_obvious(query, budget=budget)
            budget.spend(0)  # an Unknown for want of budget ends the search
            return verdict.kind is Verdict.OBVIOUS

        def choices(pos, pool_now):
            """Instances of the pos-th universal parent in search order, each
            with the pool its successors match against."""
            index, unit = universal[pos]
            candidates = obvious.candidate_substitutions(
                unit, pool_now, universe, budget
            )
            preferred = {v: hint[v].key for v in unit.variables
                         if hint and v in hint}
            if preferred:
                # candidates that agree with the hint go first, the last of them first
                agree = [all(c[v].key == k for v, k in preferred.items())
                         for c in candidates]
                candidates = ([c for c, a in zip(candidates, agree) if a][::-1]
                              + [c for c, a in zip(candidates, agree) if not a])
            for subst in candidates:
                inst = obvious.instance_formula(unit, subst)
                if _term_depth(inst) > MAX_INSTANCE_DEPTH:
                    continue
                yield (index, inst), pool_now + obvious.distinct_atoms([inst])

        # depth first, one instance generator per universal parent chosen
        # for, on an explicit stack: a path is as long as the parent list
        stack = []
        chosen, pool_now = [], list(pool)
        while True:
            if len(chosen) == len(universal):
                if leaf_check(chosen):
                    return chosen
            else:
                stack.append(choices(len(chosen), pool_now))
            while stack:
                step = next(stack[-1], None)
                if step is not None:
                    break
                stack.pop()
            else:
                return None
            choice, pool_now = step
            chosen = chosen[:len(stack) - 1] + [choice]

    try:
        chosen = try_parents(parents)
        if chosen is None:
            doubled = []
            for i, unit, closed in parents:
                doubled.append((i, unit, closed))
                if unit is not None:
                    doubled.append((i, unit, closed))
            if len(doubled) > len(parents):
                chosen = try_parents(doubled)
    except obvious.BudgetExceeded:
        chosen = None
    if chosen is None:
        raise ExpansionFailed(step_name)
    labels = _labels()
    instances = tuple(
        InstanceStep(next(labels), index, inst) for index, inst in chosen
    )
    return SubProof(fixed, instances, step_formula)
