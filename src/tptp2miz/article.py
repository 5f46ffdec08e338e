"""Article model, concrete-syntax rendering, and the environment manifest.

An article is a flat sequence of axiom items (cited from the external
manifest), conjecture-independent lemmas, and a single theorem whose
proof is a diffuse reasoning block refuting the negated conjecture.

Each derived step is justified by a checker query, and expanded into a
sub-proof when that fails.  Every query, compression's too, cites the
formulas the article states, as formula_index labels them.
build_article leaves the steps `Deferred`: compress justifies the steps
its decisions read and the steps it keeps, and finish_article justifies
any step still deferred and completes the article written.
"""

from __future__ import annotations

import contextlib
import itertools
import re

from . import derivation, expand, fol, obvious, skolem, tptp
from .derivation import StepClass
from .errors import (DuplicateName, ExpansionFailed, MultipleConjectures, NoConjecture,
                     NoRefutation, UnsupportedDefinition, UnsupportedSymbol)

# Symbol names are rendered verbatim, so they must be TPTP lower words or
# numerals, and none of the words the rendering itself writes.
_SYMBOL_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*|[0-9]+")
_RENDERED_WORDS = frozenset((
    "reserve theorem proof now assume thus hence thesis end by contradiction "
    "not or implies iff for holds ex st").split())


class Item(fol.MutableRecord):
    __slots__ = _fields = ("label", "formula", "refs", "subproof", "source_name")

    def __init__(self, label, formula, refs=(), subproof=None, source_name=""):
        self.label, self.formula = label, formula
        self.refs = refs  # labels and external refs, citation order
        self.subproof = subproof  # expand.SubProof when the step needed one
        self.source_name = source_name  # derivation step this item came from


class DiffuseBlock(fol.MutableRecord):
    __slots__ = _fields = ("assumption_label", "assumption", "inner_steps",
                           "contradiction_refs")

    def __init__(self, assumption_label, assumption, inner_steps, contradiction_refs):
        self.assumption_label, self.assumption = assumption_label, assumption
        self.inner_steps, self.contradiction_refs = inner_steps, contradiction_refs


class EnvironmentManifest(fol.MutableRecord):
    __slots__ = ("functions", "predicates", "axioms", "skolem_defs", "signature")
    _fields = __slots__[:-1]

    def __init__(self, functions, predicates, axioms, skolem_defs):
        self.functions, self.predicates = functions, predicates  # (name, arity)
        self.axioms = axioms  # closed formulas, AXIOMS:<i> numbering from 1
        self.skolem_defs = skolem_defs  # closed formulas, SKOLEM:def <n> numbering from 1
        # the fol.Signature of a draft, until finish_article fills in the
        # functions and predicates
        self.signature = None


class ArticleModel(fol.MutableRecord):
    __slots__ = _fields = ("reservations", "axiom_items", "lemma_items", "theorem",
                           "diffuse", "pending")

    def __init__(self, reservations, axiom_items, lemma_items, theorem, diffuse,
                 pending=False):
        self.reservations, self.axiom_items = reservations, axiom_items
        self.lemma_items, self.theorem, self.diffuse = lemma_items, theorem, diffuse
        self.pending = pending  # problem mode: theorem stated without proof

    def all_steps(self):
        return list(self.lemma_items) + list(self.diffuse.inner_steps)


# ---------------------------------------------------------------------------
# Building an article from a derivation graph


def build_article(graph, keep_unused=False, budget=obvious.DEFAULT_BUDGET,
                  conjecture=None, memo=None):
    """The draft article and manifest of a derivation.  Each derived step's
    sub-proof is left as the draft's one `Deferred`, which compress or
    finish_article justifies when the step is reached; the reserve line and
    the manifest's signature are left to finish_article.  Only the closing
    step is checked at once, and raises ExpansionFailed when it fails.

    The justify queries, the sub-proof searches on them and the closing
    step's query share the given obvious.PremiseMemo, if any, which the
    caller empties.  Without one, each step's query and search share a
    memo of their own.  Fresh prover symbols are renamed skolem1, ...
    before any query, and the prover's bind hints with them."""
    classes = derivation.classify_all(graph)
    used = derivation.mark_used(graph)

    conj_nodes = [n for n in graph.order if classes[n] is StepClass.CONJECTURE]
    neg_nodes = [n for n in graph.order if classes[n] is StepClass.NEGATED_CONJECTURE]

    if conjecture is not None:
        # user-designated refuted assumption: the theorem is its negation
        if conjecture not in graph.nodes:
            raise NoConjecture()
        designated = graph.nodes[conjecture].formula
        theorem = designated.body if isinstance(designated, fol.Not) else fol.Not(designated)
        neg_nodes = [conjecture] + [n for n in neg_nodes if n != conjecture]
        conj_nodes = [n for n in conj_nodes if n != conjecture]
        # the unit and its descendants depend on the assumption; its own
        # class stays, so a designated axiom is still stated as one
        depends = derivation.mark_conjecture_dependence(
            graph, {**classes, conjecture: StepClass.NEGATED_CONJECTURE})
    elif conj_nodes:
        theorem = graph.nodes[conj_nodes[0]].formula
        depends = derivation.mark_conjecture_dependence(graph, classes)
    else:
        raise NoConjecture()

    if graph.sink is None or not graph.parents[graph.sink]:
        raise NoRefutation()

    if neg_nodes:
        assumption_node = neg_nodes[0]
        assumption = graph.nodes[assumption_node].formula
    else:
        assumption_node = None
        assumption = fol.Not(theorem)

    # axiom items: file-sourced non-conjecture units, topological order.  A
    # unit the prover introduced is no axiom of the problem, so stating it
    # as one could prove anything.
    axiom_items = []
    axiom_label_of = {}
    for name in graph.order:
        if classes[name] is StepClass.AXIOM:
            if isinstance(graph.nodes[name].source, tptp.IntroducedSource):
                raise UnsupportedDefinition(name)
            i = len(axiom_items) + 1
            label = f"Ax{i}"
            axiom_label_of[name] = label
            axiom_items.append(
                Item(label, graph.nodes[name].formula, (f"AXIOMS:{i}",), None, name)
            )

    skip_classes = (StepClass.AXIOM, StepClass.CONJECTURE)
    derived = []
    for name in graph.order:
        if classes[name] in skip_classes:
            continue
        if name == assumption_node or name == graph.sink:
            continue  # other negated-conjecture units are ordinary steps
        if not used[name] and not keep_unused:
            continue
        derived.append(name)

    lemma_names = [n for n in derived if not depends[n]]
    inner_names = [n for n in derived if depends[n]]

    label_of = dict(axiom_label_of)
    lemma_count = len(lemma_names)
    for j, name in enumerate(lemma_names, start=1):
        label_of[name] = f"S{j}"
    assumption_label = f"S{lemma_count + 1}"
    if assumption_node is not None:
        label_of[assumption_node] = assumption_label
    for j, name in enumerate(inner_names, start=lemma_count + 2):
        label_of[name] = f"S{j}"
    for name in conj_nodes:
        # citations of the conjecture resolve to the assumption of its negation
        label_of.setdefault(name, assumption_label)

    # choice axioms for skolemization steps, numbered among kept steps only
    henkins = {}
    skolem_symbols = []
    for name in derived:
        if classes[name] is StepClass.SKOLEMIZATION:
            symbol = skolem.validate_single_skolem(name, graph)
            henkins[name] = (len(henkins) + 1, skolem.make_henkin_axiom(name, graph))
            skolem_symbols.append(symbol)
    mapping = _skolem_renaming(skolem_symbols, graph)

    def rename(f):
        return fol.rename_symbols(f, mapping) if mapping else f

    def citations(name):
        """The labels a step cites: a cited conjecture's label is the
        assumption's, which states the conjecture's negation, and a
        skolemization step also cites its choice axiom."""
        refs = [label_of[p] for p in graph.parents[name]]
        henkin = henkins.get(name)
        if henkin is not None:
            refs.append(f"SKOLEM:def {henkin[0]}")
        return tuple(refs)

    def justify(item):
        """The step's sub-proof, or None when its justify query is
        obvious; raises ExpansionFailed."""
        # the justify query and any expansion share one budget and one memo
        step_budget = obvious.Budget(budget)
        with obvious.PremiseMemo() if memo is None else contextlib.nullcontext(memo) as shared:
            verdict = obvious.is_obvious([index[r] for r in item.refs], item.formula, shared,
                                         step_budget)
            if verdict.is_obvious:
                return None
            source = graph.nodes[item.source_name].source
            hint = {v: fol._rename_term(t, mapping)
                    for v, t in expand.substitution_from_inference_record(source).items()}
            return expand.build_subproof(item.source_name, verdict.problem, hint)

    deferred = Deferred(justify)

    def step(name):
        return Item(label_of[name], rename(graph.nodes[name].formula), citations(name),
                    deferred, name)

    for i in axiom_items:
        i.formula = rename(i.formula)
    diffuse = DiffuseBlock(assumption_label, rename(assumption),
                           [step(name) for name in inner_names], citations(graph.sink))
    model = ArticleModel(None, axiom_items, [step(name) for name in lemma_names],
                         rename(theorem), diffuse)
    manifest = _draft_manifest(model, [rename(axiom) for _, axiom in sorted(henkins.values())],
                               graph.symbols)
    # Formulas met later are the sub-proofs' and the skolem definitions',
    # each walked once.
    graph.symbols.clear()
    index = formula_index(model, manifest)

    # the closing step has no sub-proof form, so it must be obvious as cited
    premises = [index[r] for r in diffuse.contradiction_refs]
    if not obvious.is_obvious(premises, fol.FALSE, memo, obvious.Budget(budget)).is_obvious:
        raise ExpansionFailed(graph.sink)
    return model, manifest


class Deferred:
    """The sub-proof of a derived step of a draft article until its
    justify query is asked, by compress or finish_article: one object for
    the draft, whose justify maps a step to its SubProof, or to None when
    the step is obvious from the formulas its refs label in the draft
    (formula_index), and raises ExpansionFailed when neither holds.  The
    step is justified before any of its refs change."""

    def __init__(self, justify):
        self.justify = justify


def formula_index(model, manifest):
    """Label -> the formula the article or its manifest states under it:
    every query's premises are looked up here."""
    index = {}
    for item in model.axiom_items + model.all_steps():
        index[item.label] = item.formula
    index[model.diffuse.assumption_label] = model.diffuse.assumption
    for i, f in enumerate(manifest.axioms, start=1):
        index[f"AXIOMS:{i}"] = f
    for n, f in enumerate(manifest.skolem_defs, start=1):
        index[f"SKOLEM:def {n}"] = f
    return index


def finish_article(model, manifest):
    """Complete the article to be written: justify, in model order, every
    step still `Deferred` (each step of a draft, none after compression),
    then give the reserve line and the manifest's functions and predicates
    over the steps and their sub-proofs.  A kind or arity conflict, or a
    symbol the rendering cannot write (UnsupportedSymbol), is raised here,
    after any ExpansionFailed."""
    for item in model.all_steps():
        if isinstance(item.subproof, Deferred):
            item.subproof = item.subproof.justify(item)
    model.reservations = _reservations(model)
    manifest.signature.add(_instance_formulas(model) + manifest.skolem_defs)
    signature, manifest.signature = manifest.signature.symbols(), None
    for s in signature:
        if s.name in _RENDERED_WORDS or not _SYMBOL_NAME.fullmatch(s.name):
            raise UnsupportedSymbol(s.name)
    manifest.functions = [(s.name, s.arity) for s in signature if s.kind == "function"]
    manifest.predicates = [(s.name, s.arity) for s in signature if s.kind == "predicate"]


def _draft_manifest(model, skolem_defs, walk=None):
    """The manifest of a draft: its axioms and skolem definitions, and its
    signature begun over the formulas the article states, before any
    sub-proof.  `walk` is formula_symbols or the run's SymbolMemo."""
    manifest = EnvironmentManifest(
        None, None, [fol.universal_closure(i.formula) for i in model.axiom_items], skolem_defs)
    manifest.signature = fol.Signature()
    manifest.signature.add(_stated_formulas(model), walk)
    return manifest


def _skolem_renaming(skolem_symbols, graph):
    """The symbol mapping that makes fresh prover symbols skolem1,
    skolem2, ... in topological order, skipping the names that the
    derivation's other symbols have; empty without one."""
    if not skolem_symbols:
        return {}
    fresh = {s.name for s in skolem_symbols}
    taken = {name for unit in graph.nodes.values()
             for name, _, _ in graph.symbols(unit.formula)} - fresh
    free = (f"skolem{i}" for i in itertools.count(1) if f"skolem{i}" not in taken)
    return {s.name: next(free) for s in skolem_symbols}


def _stated_formulas(model):
    """Every formula the article states outside its sub-proofs; problem
    mode may lack a theorem."""
    formulas = [item.formula for item in model.axiom_items + model.all_steps()]
    if model.theorem is not None:
        formulas.append(model.theorem)
    formulas.append(model.diffuse.assumption)
    return formulas


def _instance_formulas(model):
    return [s.formula for item in model.all_steps() if item.subproof is not None
            for s in item.subproof.instances]


def _reservations(model):
    """X1, X2, ... up to the largest name map the article is rendered with."""
    maps = [_display_names(f)[0] for f in _stated_formulas(model)]
    maps += [names for item in model.all_steps() if item.subproof is not None
             for _, names in _instance_names(item)]
    return tuple(f"X{i}" for i in range(1, max(map(len, maps), default=0) + 1))


# ---------------------------------------------------------------------------
# Problem mode: flat article without a proof


def translate_problem(units):
    seen = set()
    for u in units:
        if u.name in seen:
            raise DuplicateName(u.name)
        seen.add(u.name)
    axiom_items = []
    theorem = None
    for u in units:
        if u.role == "conjecture":
            if theorem is not None:
                raise MultipleConjectures(u.name)
            theorem = u.formula
        else:
            i = len(axiom_items) + 1
            axiom_items.append(
                Item(f"Ax{i}", u.formula, (f"AXIOMS:{i}",), None, u.name)
            )
    diffuse = DiffuseBlock("", fol.FALSE, [], ())
    model = ArticleModel((), axiom_items, [], theorem, diffuse, pending=True)
    manifest = _draft_manifest(model, [])
    finish_article(model, manifest)
    return model, manifest


# ---------------------------------------------------------------------------
# Rendering


def _render_term(t, names):
    if isinstance(t, fol.Var):
        return names.get(t.name, t.name)
    if not t.args:
        return t.name
    return "(" + t.name + " " + " ".join(_render_term(a, names) for a in t.args) + ")"


def _render(f, names):
    def operand(g):
        text = _render(g, names)
        if isinstance(g, (fol.Atom, fol.Eq)):
            return text
        return "(" + text + ")"

    if isinstance(f, fol.Atom):
        if not f.args:
            return f.pred
        return f.pred + " " + ",".join(_render_term(a, names) for a in f.args)
    if isinstance(f, fol.Eq):
        return _render_term(f.left, names) + " = " + _render_term(f.right, names)
    if isinstance(f, fol.Not):
        body = f.body
        if isinstance(body, (fol.Atom, fol.Eq)):
            return "not " + _render(body, names)
        return "not (" + _render(body, names) + ")"
    if isinstance(f, (fol.And, fol.Or)):
        word = " & " if isinstance(f, fol.And) else " or "
        return word.join(operand(p) for p in f.parts)
    if isinstance(f, fol.Implies):
        return operand(f.left) + " implies " + operand(f.right)
    if isinstance(f, fol.Iff):
        return operand(f.left) + " iff " + operand(f.right)
    if isinstance(f, (fol.Forall, fol.Exists)):
        joint = ",".join(names.get(v, v) for v in f.vars)
        inner = _render(f.body, names)
        if not isinstance(f.body, (fol.Atom, fol.Eq)):
            inner = "(" + inner + ")"
        if isinstance(f, fol.Forall):
            return "for " + joint + " holds " + inner
        return "ex " + joint + " st " + inner
    if isinstance(f, fol.Verum):
        return "not contradiction"
    return "contradiction"


def _closure_prefix(f):
    """The variables of the universal closure's leading Foralls, and the
    matrix under them, read off f without closing it."""
    if isinstance(f, fol.Forall):
        return f.free + f.vars, f.body
    return f.free, f


def _variable_names(variables, names=()):
    """The names extended by X<n+1>, X<n+2>, ... for each of the variables
    they lack, in order."""
    names = dict(names)
    for v in variables:
        if v not in names:
            names[v] = f"X{len(names) + 1}"
    return names


def _display_names(f):
    """The names a display form renders f's matrix with: its closure's
    prefix first, then each bound name once, however many quantifiers bind
    it; and the matrix."""
    prefix, matrix = _closure_prefix(f)
    return _variable_names(prefix + matrix.binders), matrix


def _display_form(f):
    """Strip the universal closure and rename variables to X1, X2, ...

    Returns (rendered matrix formula text, original-name comment or None).
    """
    names, matrix = _display_names(f)
    text = _render(matrix, names)
    renamed = [(old, new) for old, new in names.items() if old != new]
    comment = None
    if renamed:
        comment = ":: " + ", ".join(f"{new} <- {old}" for old, new in renamed)
    return text, comment


def _instance_names(item):
    """Each instance step of the item's sub-proof, with the names it is
    rendered with: the statement's renaming of its own variables, which
    must also apply inside the proof, then fresh names for the instance's
    bound variables, as _display_form names a statement's."""
    prefix, _ = _closure_prefix(item.formula)
    names = _variable_names(prefix)
    for step in item.subproof.instances:
        yield step, _variable_names(step.formula.binders, names)


def _subproof_lines(item, indent):
    pad = " " * indent
    lines = [pad + "proof"]
    thus_refs = []
    instantiated = set()
    for step, names in _instance_names(item):
        ref = item.refs[step.parent_index]
        lines.append(
            pad + "  " + step.label + ": " + _render(step.formula, names) + " by " + ref + ";"
        )
        thus_refs.append(step.label)
        instantiated.add(step.parent_index)
    for i, ref in enumerate(item.refs):
        if i not in instantiated:
            thus_refs.append(ref)
    lines.append(pad + "  thus thesis by " + ",".join(thus_refs) + ";")
    lines.append(pad + "end;")
    return lines


def _item_lines(item, indent=0):
    pad = " " * indent
    text, comment = _display_form(item.formula)
    lines = []
    if comment:
        lines.append(pad + comment)
    if item.subproof is None:
        by = " by " + ",".join(item.refs) + ";" if item.refs else ";"
        lines.append(pad + item.label + ": " + text + by)
    else:
        lines.append(pad + item.label + ": " + text)
        lines.extend(_subproof_lines(item, indent))
    return lines


def render_article(model) -> str:
    out = []
    if model.reservations:
        out.append("reserve " + ",".join(model.reservations) + ";")
        out.append("")
    for item in model.axiom_items + model.lemma_items:
        out.extend(_item_lines(item))
        out.append("")
    if model.theorem is None:
        return "\n".join(out).rstrip("\n") + "\n"
    theorem_text, theorem_comment = _display_form(model.theorem)
    if theorem_comment:
        out.append(theorem_comment)
    out.append("theorem")
    if model.pending:
        out.append(theorem_text + ";")
        out.append("::> pending proof")
        return "\n".join(out) + "\n"
    out.append(theorem_text)
    out.append("proof")
    out.append("  now")
    assume_text, assume_comment = _display_form(model.diffuse.assumption)
    if assume_comment:
        out.append("    " + assume_comment)
    out.append(
        "    assume " + model.diffuse.assumption_label + ": " + assume_text + ";"
    )
    for item in model.diffuse.inner_steps:
        out.extend(_item_lines(item, indent=4))
    out.append(
        "    thus contradiction by "
        + ",".join(model.diffuse.contradiction_refs)
        + ";"
    )
    out.append("  end;")
    out.append("  hence thesis;")
    out.append("end;")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Environment manifest text


def render_manifest(m: EnvironmentManifest) -> str:
    lines = []
    for name, arity in m.functions:
        lines.append(f"func {tptp.quote_atom(name)} {arity}")
    for name, arity in m.predicates:
        lines.append(f"pred {tptp.quote_atom(name)} {arity}")
    for i, f in enumerate(m.axioms, start=1):
        lines.append(f"axiom {i}: {tptp.format_formula(f)}")
    for n, f in enumerate(m.skolem_defs, start=1):
        lines.append(f"skolemdef {n}: {tptp.format_formula(f)}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_manifest(text: str) -> EnvironmentManifest:
    functions, predicates, axioms, skolem_defs = [], [], [], []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        kind, rest = line.split(" ", 1)
        if kind in ("func", "pred"):
            name, arity = rest.rsplit(" ", 1)
            if name.startswith("'"):
                name = tptp._unquote(name)
            entry = (name, int(arity))
            (functions if kind == "func" else predicates).append(entry)
        elif kind in ("axiom", "skolemdef"):
            _, formula_text = rest.split(":", 1)
            unit = tptp.parse_problem(f"fof(m,axiom,{formula_text.strip()}).")[0]
            (axioms if kind == "axiom" else skolem_defs).append(unit.formula)
        else:
            raise ValueError(f"unrecognized manifest line: {line!r}")
    return EnvironmentManifest(functions, predicates, axioms, skolem_defs)
