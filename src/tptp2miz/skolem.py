"""Justifying skolemization steps with choice-style implication axioms.

A skolemization step replaces the existential quantifiers of its parent
by fresh function symbols, one or several at once, as E skolemizes a
whole quantifier prefix in one step.  The step is not a consequence of
its parent, so it is backed by one extra axiom of the shape

    (parent formula)  implies  (skolemized conclusion)

which is satisfiable whenever the original problem is: each fresh symbol
can be interpreted as a choice function (Skolem's theorem covers the
whole prefix at once).  These axioms are collected in the environment
manifest and cited as SKOLEM:def <n>.
"""

from __future__ import annotations

from . import derivation, fol
from .errors import MalformedSkolemStep


def validate_single_skolem(name, graph) -> list:
    """The fresh function symbols of a skolemization step with a single
    parent, in order of first occurrence.

    bench/spans.py traces this function by name, so the name stays;
    "single" is the one parent that the Henkin axiom states."""
    if len(graph.parents[name]) != 1:
        raise MalformedSkolemStep(name, f"has {len(graph.parents[name])} parents, expected 1")
    fresh = derivation.new_function_symbols(name, graph)
    if not fresh:
        raise MalformedSkolemStep(name, "introduces no fresh function symbol")
    return fresh


def make_henkin_axiom(name, graph) -> "fol.Formula":
    (parent,) = graph.parents[name]
    return fol.Implies(
        fol.universal_closure(graph.nodes[parent].formula),
        fol.universal_closure(graph.nodes[name].formula),
    )
