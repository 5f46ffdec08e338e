"""Fixed-point proof compression.

A derived step is deleted when every step that cited it remains an
acceptable inference after the citation is replaced by the deleted
step's own references.  Passes repeat until nothing changes; each
accepted deletion strictly shrinks the article, so this terminates.

A citer whose refs close it by unit propagation at the root stays closed
that way when a cited step's clauses are covered by that step's own refs'
(`obvious.covered`), so such a deletion is settled without a query, at a
cost in proportion to the deleted step rather than to the citer's refs.
The refs are spliced in place (`_Refs`), so the deletion also edits them
at that cost: a long chain whose steps `thus` absorbs one after another
compresses in linear time.

Compression only deletes steps: a step that keeps a sub-proof keeps the
one justification found, and the steps it cites.

A draft whose steps build_article left `Deferred` is justified here as
far as compression needs it: a step is justified when a deletion scan
reads its sub-proof, and every step kept is justified after the last
pass.  A deleted step is never justified, since the article no longer
states it.  An article whose steps are settled already is compressed the
same way.
"""

from __future__ import annotations

from . import fol, obvious
from .article import ArticleModel, Deferred


class CompressionReport(fol.MutableRecord):
    __slots__ = _fields = ("passes", "steps_before", "steps_after",
                           "removed_labels", "queries", "premises", "settled",
                           "justified")

    def __init__(self, passes=0, steps_before=0, steps_after=0, removed_labels=None,
                 queries=0, premises=0, settled=0, justified=0):
        self.passes, self.steps_before, self.steps_after = passes, steps_before, steps_after
        self.removed_labels = [] if removed_labels is None else removed_labels
        # full checker queries, the premises they were given, and the
        # deletion checks settled by propagation without one
        self.queries, self.premises, self.settled = queries, premises, settled
        # deferred steps justified by their justify query
        self.justified = justified

    def summary(self):
        return (
            f"compression: {self.steps_before} -> {self.steps_after} steps "
            f"in {self.passes} pass(es), removed "
            f"[{', '.join(self.removed_labels)}]"
        )

    def checks(self):
        return (
            f"compression checks: {self.queries} queries over {self.premises} "
            f"premises, {self.settled} settled by propagation"
        )

    def justifications(self):
        return f"deferred justification: {self.justified} justify queries"


def _clone(model: ArticleModel) -> ArticleModel:
    """Copy the model down to its items, which compression edits in place."""
    def items(src):
        return [_replace(i) for i in src]

    diffuse = _replace(model.diffuse, inner_steps=items(model.diffuse.inner_steps))
    return _replace(model, axiom_items=items(model.axiom_items),
                    lemma_items=items(model.lemma_items), diffuse=diffuse)


def _replace(record, **changes):
    """A copy of an article record with the named fields changed."""
    return type(record)(*[changes.get(f, getattr(record, f)) for f in record._fields])


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
    """refs with the label replaced by the replacement refs they lack, each
    ref once, at its first occurrence."""
    cited = set(refs)
    out = {}
    for r in refs:
        if r != label:
            out.setdefault(r)
            continue
        for x in replacement:
            if x not in cited:
                out.setdefault(x)
    return tuple(out)


class _Refs:
    """A step's refs while compression edits them, iterated in order.  The
    first splice links them by label, and a splice then costs in
    proportion to the refs it inlines; the refs are listed again only when
    they are next iterated."""

    __slots__ = ("_labels", "_next", "_prev")

    def __init__(self, labels):
        self._labels = labels  # the refs, None when a splice has changed them since
        # label -> the following and the preceding label, None past either
        # end; _next[None] is the first label
        self._next = self._prev = None

    def __iter__(self):
        if self._labels is None:
            out, label = [], self._next[None]
            while label is not None:
                out.append(label)
                label = self._next[label]
            self._labels = tuple(out)
        return iter(self._labels)

    def splice(self, label, replacement):
        """Become _inline(refs, label, replacement); the label is cited."""
        if self._next is None:
            self._next, self._prev, last = {}, {}, None
            for r in self._labels:
                if r not in self._prev:
                    self._next[last], self._prev[r], last = r, last, r
            self._next[last] = None
        nxt, prev = self._next, self._prev
        before = prev[label]
        for x in replacement:
            if x not in prev:
                nxt[before], prev[x], before = x, before, x
        after = nxt.pop(label)
        del prev[label]
        nxt[before] = after
        if after is not None:
            prev[after] = before
        self._labels = None


class _Citers:
    """Who cites each label, kept up to date as refs change.

    Citers come in the order of all_steps(), then the closing `thus`;
    deletions keep that order, so a rank fixed at the start sorts them.
    """

    def __init__(self, model):
        steps = model.all_steps()
        self.rank = {item.label: i for i, item in enumerate(steps)}
        self.by_label = {}  # label -> {rank: citing item, None for thus}
        for item in steps:
            self.add(item, item.refs)
        self.add(None, model.diffuse.contradiction_refs)

    def rank_of(self, citer):
        return len(self.rank) if citer is None else self.rank[citer.label]

    def add(self, citer, refs):
        rank = self.rank_of(citer)
        for r in refs:
            self.by_label.setdefault(r, {})[rank] = citer

    def of(self, label):
        """The items citing the label, None standing for thus."""
        found = self.by_label.get(label, {})
        return [found[rank] for rank in sorted(found)]

    def remove(self, victim):
        self.by_label.pop(victim.label, None)
        rank = self.rank_of(victim)
        for r in victim.refs:
            self.by_label.get(r, {}).pop(rank, None)


class _Checker:
    """Compression's checker queries, counted in the report, the citers
    whose current refs close them by unit propagation at the root, and the
    justification of deferred steps."""

    def __init__(self, index, memo, budget, report):
        self.index, self.memo, self.budget, self.report = index, memo, budget, report
        # citer ranks; a citer's entry comes from the verdict on its refs
        # and changes only in commit, when a deletion is accepted
        self.propagated = set()
        self._covers = None  # covers() for the victim being scanned, once asked

    def query(self, refs, conclusion):
        """The full verdict on the conclusion from the refs."""
        premises = [self.index[r] for r in refs if r in self.index]
        self.report.queries += 1
        self.report.premises += len(premises)
        return obvious.is_obvious(premises, conclusion, self.memo, obvious.Budget(self.budget))

    def scan(self):
        """Begin the deletion checks of the next victim."""
        self._covers = None

    def covers(self, victim):
        """obvious.covered for the victim being scanned and its refs,
        computed at most once per scan: the victim's refs change only when
        a step it cites is deleted, in another victim's scan."""
        if self._covers is None:
            self._covers = obvious.covered(
                self.memo, self.index[victim.label],
                [self.index[r] for r in victim.refs if r in self.index])
        return self._covers

    def deletion(self, rank, refs, conclusion, victim):
        """Whether the refs of the citer of that rank, with the victim's
        inlined, close it by propagation (True) or otherwise (False); None
        when they do not close it.  The refs are left as they are."""
        if rank in self.propagated and self.covers(victim):
            self.report.settled += 1
            return True
        verdict = self.query(_inline(refs, victim.label, victim.refs), conclusion)
        if not verdict.is_obvious:
            return None
        return verdict.reason == "propagation"

    def commit(self, rank, propagates):
        """Record whether the new refs of the citer of that rank, given by
        an accepted deletion, close it by propagation."""
        if propagates:
            self.propagated.add(rank)
        else:
            self.propagated.discard(rank)

    def subproof(self, item):
        """The step's sub-proof, a deferred step settled by its justify
        query first."""
        if isinstance(item.subproof, Deferred):
            item.subproof = item.subproof.justify(item.source_name)
            self.report.justified += 1
        return item.subproof


def compress(model: ArticleModel, manifest, memo, budget=obvious.DEFAULT_BUDGET,
             max_passes=None):
    """The compressed copy of the article, and its report.  Every query
    shares the given obvious.PremiseMemo, which the caller empties, so no
    formula that justification cited with it is prepared again.

    A `Deferred` step of a draft is justified in the copy the first time a
    deletion scan reads its sub-proof, as a citer, and a kept step that no
    scan read, after the last pass; a deleted step is not justified.  An
    ExpansionFailed names the first step that fails in that order."""
    model = _clone(model)
    report = CompressionReport(steps_before=len(model.all_steps()))
    for item in model.all_steps():
        item.refs = _Refs(item.refs)
    model.diffuse.contradiction_refs = _Refs(model.diffuse.contradiction_refs)
    # Formulas never change and a deleted label is never cited again, so
    # one index serves the whole call.
    index = _formula_index(model, manifest)
    citers = _Citers(model)

    checker = _Checker(index, memo, budget, report)

    changed = True
    while changed:
        if max_passes is not None and report.passes >= max_passes:
            break
        report.passes += 1
        changed = False

        # deletion scan, reverse topological order (closest to the
        # contradiction first)
        removed = set()
        for victim in model.all_steps()[::-1]:
            found = citers.of(victim.label)
            if any(c is not None and checker.subproof(c) is not None for c in found):
                continue  # sub-proof citations are left untouched
            checker.scan()
            trials = []  # per citer: its refs, rank, and whether they will propagate
            for citer in found:
                if citer is None:
                    refs, conclusion = model.diffuse.contradiction_refs, fol.FALSE
                else:
                    refs, conclusion = citer.refs, citer.formula
                rank = citers.rank_of(citer)
                propagates = checker.deletion(rank, refs, conclusion, victim)
                if propagates is None:
                    break
                trials.append((refs, rank, propagates))
            else:
                removed.add(victim.label)
                citers.remove(victim)
                for citer, (refs, rank, propagates) in zip(found, trials):
                    refs.splice(victim.label, victim.refs)
                    checker.commit(rank, propagates)
                    # the citer's refs lost the victim and gained the
                    # victim's refs, which are all it can newly cite
                    citers.add(citer, victim.refs)
                report.removed_labels.append(victim.label)
                changed = True
        if removed:
            model.lemma_items = [i for i in model.lemma_items
                                 if i.label not in removed]
            model.diffuse.inner_steps = [i for i in model.diffuse.inner_steps
                                         if i.label not in removed]

    for item in model.all_steps():
        checker.subproof(item)  # a step no scan read
        item.refs = tuple(item.refs)
    model.diffuse.contradiction_refs = tuple(model.diffuse.contradiction_refs)
    report.steps_after = len(model.all_steps())
    _relabel(model)
    return model, report


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
