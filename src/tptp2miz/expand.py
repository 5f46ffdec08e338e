"""Expanding non-obvious inference steps into explicit sub-proofs.

A sub-proof fixes the conclusion's variables and states an instance of
each universal parent it needs, from which, with the ground parents, the
conclusion is obvious.  The instances are chosen on the problem of the
step's failed justify query, as its verdict holds it, so the step is set
up once.
"""

from __future__ import annotations

import itertools

from . import fol
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
    """The instances a step states; the step's own formula is its
    conclusion, and its free variables are the ones the proof fixes."""

    __slots__ = _fields = ("instances",)

    def __init__(self, instances):
        _set(self, "instances", instances)  # InstanceStep, in citation order


def _labels():
    for size in itertools.count(1):
        for combo in itertools.product("ABCDEFGHIJKLMNOPQRSTUVWXYZ", repeat=size):
            yield "".join(combo)


def substitution_from_inference_record(record) -> dict:
    """Variable bindings recorded by the prover, when present."""
    return dict(record.bindings) if isinstance(record, InferenceRecord) else {}


def build_subproof(step_name, problem, hint) -> SubProof:
    """The step as a sub-proof, searched on its justify query's problem
    (obvious.ObviousnessVerdict.problem, None when the query was too hard
    to set up), spending what is left of that query's budget; raises
    ExpansionFailed when no instances within the search space and the
    budget make it obvious.  The hint is the prover's recorded bindings."""
    chosen = None if problem is None else problem.choose_instances(hint)
    if chosen is None:
        raise ExpansionFailed(step_name)
    return SubProof(tuple(InstanceStep(label, index, inst)
                          for label, (index, inst) in zip(_labels(), chosen)))
