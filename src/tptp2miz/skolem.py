"""Justifying skolemization steps with choice-style implication axioms.

A skolemization step replaces an existential quantifier by a fresh
function symbol.  The step is not a consequence of its parent, so it is
backed by an extra axiom of the shape

    (parent formula)  implies  (skolemized conclusion)

which is satisfiable whenever the original problem is (the fresh symbol
can be interpreted as a choice function).  These axioms are collected in
the environment manifest and cited as SKOLEM:def <n>.
"""

from __future__ import annotations

from . import derivation, fol
from .errors import MalformedSkolemStep, MultipleSkolemsUnsupported


def validate_single_skolem(name, graph, base_sig=None) -> fol.Symbol:
    """The fresh function symbol of a skolemization step.

    Steps introducing several fresh symbols at once would need a
    simultaneous choice axiom, which the output format does not express.
    """
    if len(graph.parents[name]) != 1:
        raise MalformedSkolemStep(name, len(graph.parents[name]))
    fresh = derivation.new_function_symbols(name, graph, base_sig)
    if not fresh:
        raise MalformedSkolemStep(name, 1)
    if len(fresh) > 1:
        raise MultipleSkolemsUnsupported(name, fresh)
    return fresh[0]


def make_henkin_axiom(name, graph) -> "fol.Formula":
    (parent,) = graph.parents[name]
    return fol.Implies(
        fol.universal_closure(graph.nodes[parent].formula),
        fol.universal_closure(graph.nodes[name].formula),
    )
