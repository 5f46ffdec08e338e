"""Fixed-point proof compression.

A derived step is deleted when every step that cited it remains an
acceptable inference after the citation is replaced by the deleted
step's own references.  Passes repeat until nothing changes; each
accepted deletion strictly shrinks the article, so this terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import fol, obvious
from .article import ArticleModel


@dataclass
class CompressionReport:
    passes: int = 0
    steps_before: int = 0
    steps_after: int = 0
    removed_labels: list = field(default_factory=list)
    collapsed_subproofs: list = field(default_factory=list)

    def summary(self):
        return (
            f"compression: {self.steps_before} -> {self.steps_after} steps "
            f"in {self.passes} pass(es), removed "
            f"[{', '.join(self.removed_labels)}]"
        )


def _clone(model: ArticleModel) -> ArticleModel:
    """Copy the model down to its items, which compression edits in place."""
    def items(src):
        return [replace(i) for i in src]

    diffuse = replace(model.diffuse, inner_steps=items(model.diffuse.inner_steps))
    return replace(model, axiom_items=items(model.axiom_items),
                   lemma_items=items(model.lemma_items), diffuse=diffuse)


def _formula_index(model, manifest):
    index = {}
    for item in model.axiom_items + model.all_steps():
        index[item.label] = item.formula
    index[model.diffuse.assumption_label] = model.diffuse.assumption
    for i, f in enumerate(manifest.axioms, start=1):
        index[f"AXIOMS:{i}"] = f
    for n, f in enumerate(manifest.skolem_defs, start=1):
        index[f"SKOLEM:def {n}"] = f
    return index


def _inline(refs, label, replacement):
    out = []
    for r in refs:
        if r == label:
            out.extend(x for x in replacement if x not in out and x not in refs)
        elif r not in out:
            out.append(r)
    return tuple(out)


def compress(model: ArticleModel, manifest, budget=obvious.DEFAULT_BUDGET,
             max_passes=None):
    def checker(premises, conclusion):
        q = obvious.ObviousnessQuery.make(premises, conclusion, budget)
        return obvious.is_obvious(q).is_obvious

    model = _clone(model)
    report = CompressionReport(steps_before=len(model.all_steps()))

    changed = True
    while changed:
        if max_passes is not None and report.passes >= max_passes:
            break
        report.passes += 1
        changed = False
        index = _formula_index(model, manifest)

        # sub-proof collapse: the step may have become obvious from the
        # original parents once surrounding steps were inlined
        for item in model.all_steps():
            if item.subproof is None:
                continue
            premises = [index[r] for r in item.refs if r in index]
            if checker(premises, item.formula):
                item.subproof = None
                report.collapsed_subproofs.append(item.label)
                changed = True

        # deletion scan, reverse topological order (closest to the
        # contradiction first)
        sweep = [label for label in _labels_reverse(model)]
        for label in sweep:
            located = _locate(model, label)
            if located is None:
                continue
            pool, position = located
            victim = pool[position]
            index = _formula_index(model, manifest)
            citers = _citers(model, victim.label)
            if any(c is not None and c.subproof is not None for c, _ in citers):
                continue  # sub-proof citations are left untouched
            ok = True
            trial_refs = {}
            for citer, is_contradiction in citers:
                if is_contradiction:
                    refs = _inline(model.diffuse.contradiction_refs, victim.label, victim.refs)
                    conclusion = fol.FALSE
                else:
                    refs = _inline(citer.refs, victim.label, victim.refs)
                    conclusion = citer.formula
                premises = [index[r] for r in refs if r in index]
                if not checker(premises, conclusion):
                    ok = False
                    break
                trial_refs[id(citer) if citer is not None else "thus"] = refs
            if not ok:
                continue
            pool.pop(position)
            for citer, is_contradiction in citers:
                if is_contradiction:
                    model.diffuse.contradiction_refs = trial_refs["thus"]
                else:
                    citer.refs = trial_refs[id(citer)]
            report.removed_labels.append(victim.label)
            changed = True

    report.steps_after = len(model.all_steps())
    _relabel(model)
    return model, report


def _labels_reverse(model):
    """Step labels in reverse topological order of the article."""
    out = [item.label for item in model.diffuse.inner_steps]
    out.reverse()
    lemmas = [item.label for item in model.lemma_items]
    lemmas.reverse()
    return out + lemmas


def _locate(model, label):
    for pool in (model.diffuse.inner_steps, model.lemma_items):
        for i, item in enumerate(pool):
            if item.label == label:
                return pool, i
    return None


def _citers(model, label):
    """(item, is_contradiction) pairs citing the label; item None for thus."""
    found = []
    for item in model.all_steps():
        if label in item.refs:
            found.append((item, False))
    if label in model.diffuse.contradiction_refs:
        found.append((None, True))
    return found


def _relabel(model):
    """Renumber S labels densely after deletions."""
    mapping = {}
    counter = 0
    for item in model.lemma_items:
        counter += 1
        mapping[item.label] = f"S{counter}"
    counter += 1
    mapping[model.diffuse.assumption_label] = f"S{counter}"
    for item in model.diffuse.inner_steps:
        counter += 1
        mapping[item.label] = f"S{counter}"

    def remap(refs):
        return tuple(mapping.get(r, r) for r in refs)

    for item in model.all_steps():
        item.label = mapping[item.label]
        item.refs = remap(item.refs)
    model.diffuse.assumption_label = mapping[model.diffuse.assumption_label]
    model.diffuse.contradiction_refs = remap(model.diffuse.contradiction_refs)
    return mapping
