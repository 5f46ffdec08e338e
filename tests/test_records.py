"""The package's record classes: each keeps its constructor signature, its
equality, hashing and repr, pickles and copies, and frozen records refuse
assignment.

A record compares, hashes and shows its fields in order, and nothing else:
the facts a node carries (key, depth, free, binders) and the problem a
verdict was asked on take no part.  Frozen
records hash like the tuple of their fields; mutable ones are unhashable;
a commitment is hashed by identity."""

import inspect
import pickle

import pytest

from tptp2miz import article, compress, derivation, expand, fol, obvious, tptp

X, C = fol.Var("X"), fol.App("c")
P = fol.Atom("p", (X,))
Q = fol.Atom("q", (C,))
UNIT = obvious.UniversalUnit(("key",), ("X",), P)

# class, constructor signature, fields in order, arguments of a sample, kind
RECORDS = [
    (fol.Var, "(name)", ("name",), ("X",), "frozen"),
    (fol.App, "(name, args=())", ("name", "args"), ("f", (X,)), "frozen"),
    (fol.Atom, "(pred, args=())", ("pred", "args"), ("p", (X, C)), "frozen"),
    (fol.Eq, "(left, right)", ("left", "right"), (X, C), "frozen"),
    (fol.Not, "(body)", ("body",), (P,), "frozen"),
    (fol.And, "(parts)", ("parts",), ((P, Q),), "frozen"),
    (fol.Or, "(parts)", ("parts",), ((P, Q),), "frozen"),
    (fol.Implies, "(left, right)", ("left", "right"), (P, Q), "frozen"),
    (fol.Iff, "(left, right)", ("left", "right"), (P, Q), "frozen"),
    (fol.Forall, "(variables, body)", ("vars", "body"), (("X",), P), "frozen"),
    (fol.Exists, "(variables, body)", ("vars", "body"), (("X",), P), "frozen"),
    (fol.Verum, "()", (), (), "frozen"),
    (fol.Falsum, "()", (), (), "frozen"),
    (fol.Symbol, "(name, kind, arity)", ("name", "kind", "arity"),
     ("f", "function", 2), "frozen"),
    (tptp.FileSource, "(origin, path='unknown')", ("origin", "path"), ("x.p", "ax"), "frozen"),
    (tptp.UnknownSource, "(text='')", ("text",), ("creator(e)",), "frozen"),
    (tptp.IntroducedSource, "(text)", ("text",), ("definition",), "frozen"),
    (tptp.InferenceRecord, "(rule, parents, status=None, bindings=())",
     ("rule", "parents", "status", "bindings"), ("res", ("a", "b"), "thm", (("X", C),)),
     "frozen"),
    (tptp.AnnotatedFormula, "(name, language, role, formula, source=None)",
     ("name", "language", "role", "formula", "source"),
     ("a", "fof", "axiom", P, tptp.FileSource("x.p")), "frozen"),
    (obvious.ObviousnessVerdict,
     "(kind, selection=(), commitments=(), reason='', problem=None)",
     ("kind", "selection", "commitments", "reason"),
     (obvious.Verdict.NOT_OBVIOUS, (), (), "search-exhausted"), "frozen"),
    (obvious._Registry, "(atoms=None)", ("atoms",), ({("p",): P},), "mutable"),
    (obvious._BranchView, "(values, cc, canonical, falsified=None)",
     ("values", "cc", "canonical", "falsified"), ({}, None, {}, {}), "mutable"),
    (obvious.UniversalUnit, "(key, variables, matrix)", ("key", "variables", "matrix"),
     (("key",), ("X",), P), "frozen"),
    (obvious._Prepared, "(unit, clauses, closed)", ("unit", "clauses", "closed"),
     (UNIT, [], P), "mutable"),
    (obvious._Commitment, "(unit, subst, literal, compiled)",
     ("unit", "subst", "literal", "compiled"), (UNIT, {"X": C}, (("p",), True), None),
     "identity"),
    (expand.InstanceStep, "(label, parent_index, formula)",
     ("label", "parent_index", "formula"), ("A", 0, Q), "frozen"),
    (expand.SubProof, "(instances)", ("instances",), ((),), "frozen"),
    (article.Item, "(label, formula, refs=(), subproof=None, source_name='')",
     ("label", "formula", "refs", "subproof", "source_name"), ("A1", P, ("A2",), None, "s"),
     "mutable"),
    (article.DiffuseBlock, "(assumption_label, assumption, inner_steps, contradiction_refs)",
     ("assumption_label", "assumption", "inner_steps", "contradiction_refs"),
     ("A0", P, [], ("A0",)), "mutable"),
    (article.EnvironmentManifest, "(functions, predicates, axioms, skolem_defs)",
     ("functions", "predicates", "axioms", "skolem_defs"), ([("f", 1)], [("p", 1)], [P], []),
     "mutable"),
    (article.ArticleModel,
     "(reservations, axiom_items, lemma_items, theorem, diffuse, pending=False)",
     ("reservations", "axiom_items", "lemma_items", "theorem", "diffuse", "pending"),
     (("X",), [], [], P, None, True), "mutable"),
    (compress.CompressionReport,
     "(passes=0, steps_before=0, steps_after=0, removed_labels=None,"
     " queries=0, premises=0, settled=0, justified=0)",
     ("passes", "steps_before", "steps_after", "removed_labels",
      "queries", "premises", "settled", "justified"),
     (1, 5, 3, ["A1"], 7, 40, 2, 1), "mutable"),
    (derivation.DerivationGraph, "(nodes, parents, children, order_index, sink, order)",
     ("nodes", "parents", "children", "order_index", "sink", "order"),
     ({}, {}, {}, {}, None, []), "mutable"),
]

IDS = [f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}" for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, signature, fields, args, kind", RECORDS, ids=IDS)
def test_record(cls, signature, fields, args, kind):
    assert str(inspect.signature(cls)) == signature
    record, twin = cls(*args), cls(*args)
    values = tuple(getattr(record, name) for name in fields)
    if cls not in (fol.Var, fol.App):  # which print as terms
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(record) == f"{cls.__qualname__}({shown})"
    copied = pickle.loads(pickle.dumps(record))  # through the constructor
    assert type(copied) is cls and repr(copied) == repr(record)
    assert (copied == record) is (kind != "identity")
    if kind == "identity":
        assert record != twin and record == record
        assert hash(record) == object.__hash__(record)
    else:
        assert record == twin and not record != twin
    if kind == "frozen":
        assert hash(record) == hash(twin) == hash(values)
        for name in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in fields) == values
    else:
        if kind == "mutable":
            with pytest.raises(TypeError):
                hash(record)
        setattr(record, fields[0], "changed")
        assert getattr(record, fields[0]) == "changed"
        assert record != twin
    with pytest.raises(AttributeError):
        object.__setattr__(twin, "undeclared", 1)  # every record is slotted


def test_records_of_other_classes_differ():
    assert fol.And((P, Q)) != fol.Or((P, Q))
    assert fol.Verum() != fol.Falsum()
    assert fol.Verum() == fol.TRUE and hash(fol.Verum()) == hash(())
    assert fol.Atom("p", (X,)) != ("p", (X,))


def test_facts_take_no_part():
    a, b = fol.Forall(("X",), P), fol.Forall(("X",), P)
    object.__setattr__(b, "free", ("Y",))
    object.__setattr__(b, "binders", ())
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    f, g = fol.App("f", (X,)), fol.App("f", (X,))
    object.__setattr__(g, "key", ("changed",))
    object.__setattr__(g, "depth", 7)
    assert f == g and hash(f) == hash(g)


def test_repr_text():
    assert repr(fol.Forall(("X", "Y"), fol.Not(fol.Eq(X, fol.App("f", (C,)))))) == (
        "Forall(vars=('X', 'Y'), body=Not(body=Eq(left=X, right=f(c))))")
    assert repr(fol.Verum()) == "Verum()"
    assert repr(tptp.InferenceRecord("res", ("a",))) == (
        "InferenceRecord(rule='res', parents=('a',), status=None, bindings=())")
    assert repr(article.Item("A1", Q)) == (
        "Item(label='A1', formula=Atom(pred='q', args=(c,)), refs=(), subproof=None, "
        "source_name='')")
    assert repr(obvious._Registry()) == "_Registry(atoms={})"


def test_default_containers_are_fresh():
    first, second = compress.CompressionReport(), compress.CompressionReport()
    first.removed_labels.append("A1")
    assert second == compress.CompressionReport(0, 0, 0, [])
    registry = obvious._Registry()
    registry.atoms[("p",)] = P
    assert obvious._Registry().atoms == {}
    view = obvious._BranchView({}, None, {})
    view.falsified[1] = True
    assert obvious._BranchView({}, None, {}).falsified == {}


def test_clone_copies_items_and_blocks():
    item = article.Item("A1", P, ("A0",), None, "s1")
    inner = article.Item("A2", Q)
    model = article.ArticleModel(("X",), [item], [], Q,
                                 article.DiffuseBlock("A0", P, [inner], ("A2",)), True)
    copy = compress._clone(model)
    assert copy == model
    assert copy.axiom_items[0] is not item and copy.diffuse.inner_steps[0] is not inner
    assert copy.diffuse is not model.diffuse and copy.pending is True


def test_verdict_problem_takes_no_part():
    verdict = obvious.is_obvious([fol.Atom("p", (C,))], Q)
    bare = obvious.ObviousnessVerdict(*verdict._values())
    assert verdict.problem is not None and bare.problem is None
    assert bare == verdict and hash(bare) == hash(verdict) and repr(bare) == repr(verdict)
    copied = pickle.loads(pickle.dumps(verdict))
    assert copied == verdict and copied.problem is None
