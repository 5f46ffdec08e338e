"""Expanding non-obvious inference steps into explicit sub-proofs.

A sub-proof fixes the conclusion's variables and states an instance of
each universal parent it needs, from which, with the ground parents, the
conclusion is obvious.  obvious.choose_instances chooses the instances.
"""

from __future__ import annotations

import itertools

from . import fol, obvious
from .errors import ExpansionFailed
from .fol import _set
from .tptp import InferenceRecord


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


def substitution_from_inference_record(record) -> dict:
    """Variable bindings recorded by the prover, when present."""
    return dict(record.bindings) if isinstance(record, InferenceRecord) else {}


def build_subproof(step_name, step_formula, parent_formulas,
                   budget=None, hint=None, memo=None) -> SubProof:
    """The step as a sub-proof; raises ExpansionFailed when no instances
    within the search space and the obvious.Budget (by default a fresh one)
    make it obvious.  Given the PremiseMemo of the step's justify query, the
    search finds the parents prepared."""
    if budget is None:
        budget = obvious.Budget(obvious.DEFAULT_BUDGET)
    chosen = obvious.choose_instances(parent_formulas, step_formula, budget, memo, hint)
    if chosen is None:
        raise ExpansionFailed(step_name)
    instances = tuple(InstanceStep(label, index, inst)
                      for label, (index, inst) in zip(_labels(), chosen))
    return SubProof(step_formula.free, instances, step_formula)
