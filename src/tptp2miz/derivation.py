"""Derivation DAG: construction, ordering, step classification, partitions."""

from __future__ import annotations

from enum import Enum

from . import fol
from .errors import CycleDetected, DuplicateName, MissingParent
from .tptp import AnnotatedFormula, FileSource, InferenceRecord


class StepClass(Enum):
    AXIOM = "Axiom"
    CONJECTURE = "Conjecture"
    NEGATED_CONJECTURE = "NegatedConjecture"
    SKOLEMIZATION = "Skolemization"
    INFERENCE = "Inference"


class DerivationGraph(fol.MutableRecord):
    __slots__ = ("nodes", "parents", "children", "order_index", "sink", "order", "symbols",
                 "base_signature")
    _fields = __slots__[:-2]

    def __init__(self, nodes, parents, children, order_index, sink, order):
        self.nodes = nodes  # name -> AnnotatedFormula, in input order
        self.parents = parents  # name -> tuple of parent names
        self.children = children  # name -> list of child names
        self.order_index = order_index  # name -> position in the input file
        self.sink = sink  # first falsum node in topological order, if any
        self.order = order  # every name, parents first, as topological_order gives them
        # fol.formula_symbols for the run: each formula object is walked once
        self.symbols = fol.SymbolMemo()
        self.base_signature = None  # original_signature, which build_graph fills in


def _parent_names(unit: AnnotatedFormula):
    if isinstance(unit.source, InferenceRecord):
        return unit.source.parents
    return ()


def build_graph(units) -> DerivationGraph:
    nodes = {}
    for u in units:
        if u.name in nodes:
            raise DuplicateName(u.name)
        nodes[u.name] = u
    parents = {}
    children = {n: [] for n in nodes}
    for u in units:
        ps = []
        for p in _parent_names(u):
            if p not in nodes:
                raise MissingParent(p, u.name)
            ps.append(p)
        parents[u.name] = tuple(ps)
        for p in ps:
            children[p].append(u.name)
    order_index = {u.name: i for i, u in enumerate(units)}
    graph = DerivationGraph(nodes, parents, children, order_index, None, [])
    graph.order = topological_order(graph)  # raises CycleDetected on cycles
    for name in graph.order:
        if isinstance(nodes[name].formula, fol.Falsum):
            graph.sink = name
            break
    graph.base_signature = original_signature(graph)
    return graph


def topological_order(g: DerivationGraph) -> list:
    """Parents before children; ties broken by input order, then name."""
    import heapq

    indegree = {n: len(g.parents[n]) for n in g.nodes}
    ready = [
        (g.order_index[n], n) for n, d in indegree.items() if d == 0
    ]
    heapq.heapify(ready)
    out = []
    while ready:
        _, name = heapq.heappop(ready)
        out.append(name)
        for child in g.children[name]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, (g.order_index[child], child))
    if len(out) != len(g.nodes):
        stuck = [n for n, d in indegree.items() if d > 0]
        cycle = _find_cycle(g, stuck)
        raise CycleDetected(cycle)
    return out


def _find_cycle(g, stuck):
    start = min(stuck, key=lambda n: g.order_index[n])
    path = [start]
    seen = {start}
    node = start
    while True:
        nxt = next(p for p in g.parents[node] if p in stuck)
        if nxt in seen:
            return path[path.index(nxt):] + [nxt]
        path.append(nxt)
        seen.add(nxt)
        node = nxt


def original_signature(g: DerivationGraph) -> set:
    """Function symbols of all file-sourced units, as (name, arity) pairs."""
    sig = set()
    for u in g.nodes.values():
        if isinstance(u.source, FileSource):
            for name, kind, arity in g.symbols(u.formula):
                if kind == "function":
                    sig.add((name, arity))
    return sig


def new_function_symbols(name: str, g: DerivationGraph) -> list:
    """Function symbols in a step's conclusion absent from its parents and
    from the original problem signature, ordered by first occurrence."""
    known = set(g.base_signature)
    for p in g.parents[name]:
        for sym, kind, arity in g.symbols(g.nodes[p].formula):
            if kind == "function":
                known.add((sym, arity))
    return [fol.Symbol(sym, "function", arity)
            for sym, kind, arity in g.symbols(g.nodes[name].formula)
            if kind == "function" and (sym, arity) not in known]


def classify_step(name: str, g: DerivationGraph) -> StepClass:
    unit = g.nodes[name]
    if isinstance(unit.formula, fol.Falsum):
        return StepClass.INFERENCE  # derived, whatever its source: never an axiom
    rule = unit.source.rule if isinstance(unit.source, InferenceRecord) else None
    # The structural test overrides the rule name and the role: any derived
    # step whose conclusion introduces a function symbol unseen in its
    # parents is a skolemization, as E's role-negated_conjecture ones are.
    if rule is not None and new_function_symbols(name, g):
        return StepClass.SKOLEMIZATION
    if unit.role == "conjecture":
        return StepClass.CONJECTURE
    if unit.role == "negated_conjecture" or rule == "assume_negation":
        return StepClass.NEGATED_CONJECTURE
    if rule is None:
        return StepClass.AXIOM
    return StepClass.INFERENCE


def classify_all(g: DerivationGraph) -> dict:
    return {name: classify_step(name, g) for name in g.nodes}


def mark_conjecture_dependence(g: DerivationGraph, classes) -> dict:
    """True for the conjecture/negated-conjecture nodes and their descendants,
    given classify_all's classes."""
    depends = {}
    for name in g.order:
        own = classes[name] in (StepClass.CONJECTURE, StepClass.NEGATED_CONJECTURE)
        depends[name] = own or any(depends[p] for p in g.parents[name])
    return depends


def mark_used(g: DerivationGraph) -> dict:
    """True for the falsum sink and its ancestors; all-true when no sink."""
    if g.sink is None:
        return {name: True for name in g.nodes}
    used = {name: False for name in g.nodes}
    stack = [g.sink]
    while stack:
        name = stack.pop()
        if used[name]:
            continue
        used[name] = True
        stack.extend(g.parents[name])
    return used
