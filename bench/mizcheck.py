"""Output checker for the benchmark, independent of the translator.

It shares no code with the package under test: it has its own formula
syntax, its own readers for TPTP formulas and for the Mizar-style article
text, its own citation scanner and its own finite-model evaluator.

    check_article(miz_text, env_text, facts) -> Report

checks one emitted article against its environment file:

* every `by` citation resolves to an earlier label visible at that point,
  or to an `AXIOMS:<i>` / `SKOLEM:def <n>` entry of the environment file;
* every plain `by` step (items, sub-proof instances, `thus thesis`) and the
  final `thus contradiction` is entailed by the formulas it cites in every
  interpretation of domain size 1 and 2.  A step whose signature needs more
  than FUNCTION_TABLE_CAP function tables, or whose ground form exceeds
  CLAUSE_CAP clauses, is counted as skipped;
* the facts the corpus generator knows: the theorem is alpha-equal to the
  conjecture, the axiom and skolem definition counts, and, when given, the
  environment's axioms are alpha-equal to the generator's formulas.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

FUNCTION_TABLE_CAP = 1024
CLAUSE_CAP = 100_000
DOMAIN_SIZES = (1, 2)

# ---------------------------------------------------------------------------
# Formulas are tuples:
#   terms     ("v", name) | ("f", name, (args...))
#   formulas  ("atom", pred, (args...)) | ("eq", t, u) | ("not", f)
#             ("and", (fs...)) | ("or", (fs...)) | ("imp", f, g) | ("iff", f, g)
#             ("all", var, f) | ("ex", var, f) | ("true",) | ("false",)

TRUE = ("true",)
FALSE = ("false",)


def _junction(tag, parts):
    flat = []
    for p in parts:
        flat.extend(p[1] if p[0] == tag else (p,))
    return flat[0] if len(flat) == 1 else (tag, tuple(flat))


class ParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, text, pattern):
        self.items = [m.group(0) for m in pattern.finditer(text) if not m.group(0).isspace()]
        joined = "".join(self.items)
        if joined != re.sub(r"\s+", "", text):
            raise ParseError(f"unreadable text: {text!r}")
        self.i = 0

    def peek(self, k=0):
        j = self.i + k
        return self.items[j] if j < len(self.items) else ""

    def take(self, expected=None):
        tok = self.peek()
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def done(self):
        return self.i >= len(self.items)


def _is_var(word):
    return word[:1].isupper()


def _is_word(tok):
    return bool(tok) and (tok[0].isalnum() or tok[0] in "_.'$")


# -- TPTP formulas (environment files and generator facts) ------------------

_TPTP_TOKEN = re.compile(
    r"\s+|'(?:[^'\\]|\\.)*'|\$?[A-Za-z0-9_]+|<=>|<~>|=>|<=|!=|~\||~&|[!?~&|=:(),\[\]]")
_TPTP_BINARY = {"=>", "<=", "<=>", "<~>", "~|", "~&"}


def parse_tptp(text):
    """One fof/cnf formula in TPTP syntax."""
    toks = _Tokens(text, _TPTP_TOKEN)
    f = _tptp_formula(toks)
    if not toks.done():
        raise ParseError(f"trailing {toks.peek()!r} in {text!r}")
    return f


def _tptp_formula(toks):
    left = _tptp_unitary(toks)
    op = toks.peek()
    if op in ("&", "|"):
        parts = [left]
        while toks.peek() == op:
            toks.take()
            parts.append(_tptp_unitary(toks))
        return _junction("and" if op == "&" else "or", parts)
    if op in _TPTP_BINARY:
        toks.take()
        right = _tptp_unitary(toks)
        return {
            "=>": lambda: ("imp", left, right),
            "<=": lambda: ("imp", right, left),
            "<=>": lambda: ("iff", left, right),
            "<~>": lambda: ("not", ("iff", left, right)),
            "~|": lambda: ("not", _junction("or", [left, right])),
            "~&": lambda: ("not", _junction("and", [left, right])),
        }[op]()
    return left


def _tptp_unitary(toks):
    tok = toks.peek()
    if tok in ("!", "?"):
        toks.take()
        toks.take("[")
        names = [toks.take()]
        while toks.peek() == ",":
            toks.take()
            names.append(toks.take())
        toks.take("]")
        toks.take(":")
        body = _tptp_unitary(toks)
        for name in reversed(names):
            body = ("all" if tok == "!" else "ex", name, body)
        return body
    if tok == "~":
        toks.take()
        return ("not", _tptp_unitary(toks))
    if tok == "(":
        toks.take()
        inner = _tptp_formula(toks)
        toks.take(")")
        return inner
    if tok == "$true":
        toks.take()
        return TRUE
    if tok == "$false":
        toks.take()
        return FALSE
    term = _tptp_term(toks)
    if toks.peek() == "=":
        toks.take()
        return ("eq", term, _tptp_term(toks))
    if toks.peek() == "!=":
        toks.take()
        return ("not", ("eq", term, _tptp_term(toks)))
    if term[0] == "v":
        raise ParseError("a variable is not a formula")
    return ("atom", term[1], term[2])


def _tptp_term(toks):
    word = toks.take()
    if not _is_word(word):
        raise ParseError(f"expected a term, got {word!r}")
    if word.startswith("'"):
        word = word[1:-1].replace("\\'", "'").replace("\\\\", "\\")
    elif _is_var(word):
        return ("v", word)
    args = []
    if toks.peek() == "(":
        toks.take()
        args.append(_tptp_term(toks))
        while toks.peek() == ",":
            toks.take()
            args.append(_tptp_term(toks))
        toks.take(")")
    return ("f", word, tuple(args))


# -- Mizar-style article formulas -------------------------------------------

_MIZ_TOKEN = re.compile(r"\s+|[A-Za-z0-9_.'$]+|[(),=&]")
_MIZ_KEYWORDS = {"not", "or", "implies", "iff", "for", "holds", "ex", "st", "contradiction"}


def parse_mizar(text):
    """One formula as the article renders it: `for X1 holds (p X1 or not q X1,a)`."""
    toks = _Tokens(text, _MIZ_TOKEN)
    f = _miz_formula(toks)
    if not toks.done():
        raise ParseError(f"trailing {toks.peek()!r} in {text!r}")
    return f


def _miz_formula(toks):
    left = _miz_unitary(toks)
    op = toks.peek()
    if op in ("&", "or"):
        parts = [left]
        while toks.peek() == op:
            toks.take()
            parts.append(_miz_unitary(toks))
        return _junction("and" if op == "&" else "or", parts)
    if op in ("implies", "iff"):
        toks.take()
        return ("imp" if op == "implies" else "iff", left, _miz_unitary(toks))
    return left


def _miz_unitary(toks):
    tok = toks.peek()
    if tok in ("for", "ex"):
        toks.take()
        names = [toks.take()]
        while toks.peek() == ",":
            toks.take()
            names.append(toks.take())
        toks.take("holds" if tok == "for" else "st")
        body = _miz_unitary(toks)
        for name in reversed(names):
            body = ("all" if tok == "for" else "ex", name, body)
        return body
    if tok == "not":
        toks.take()
        return ("not", _miz_unitary(toks))
    if tok == "contradiction":
        toks.take()
        return FALSE
    if tok == "(" and not _miz_term_ahead(toks):
        toks.take()
        inner = _miz_formula(toks)
        toks.take(")")
        return inner
    if toks.peek(1) == "=" or tok == "(":
        left = _miz_term(toks)
        toks.take("=")
        return ("eq", left, _miz_term(toks))
    pred = toks.take()
    if not _is_word(pred) or pred in _MIZ_KEYWORDS:
        raise ParseError(f"expected a predicate, got {pred!r}")
    args = []
    if _miz_term_start(toks.peek()):
        args.append(_miz_term(toks))
        while toks.peek() == ",":
            toks.take()
            args.append(_miz_term(toks))
    return ("atom", pred, tuple(args))


def _miz_term_start(tok):
    return tok == "(" or (_is_word(tok) and tok not in _MIZ_KEYWORDS)


def _miz_term_ahead(toks):
    """At '(' : is this a parenthesized term `(f a b)` followed by '='?"""
    depth, j = 0, toks.i
    while j < len(toks.items):
        tok = toks.items[j]
        depth += tok == "("
        depth -= tok == ")"
        if depth == 0:
            break
        j += 1
    inner = toks.items[toks.i + 1:j]
    return (toks.peek(j - toks.i + 1) == "=" and len(inner) >= 2
            and all(_is_word(t) and t not in _MIZ_KEYWORDS or t in "()" for t in inner))


def _miz_term(toks):
    tok = toks.take()
    if tok == "(":
        name = toks.take()
        args = []
        while toks.peek() != ")":
            args.append(_miz_term(toks))
        toks.take(")")
        return ("f", name, tuple(args))
    if not _is_word(tok) or tok in _MIZ_KEYWORDS:
        raise ParseError(f"expected a term, got {tok!r}")
    return ("v", tok) if _is_var(tok) else ("f", tok, ())


# ---------------------------------------------------------------------------
# Variables, closure and alpha-equality


def _term_vars(t, out):
    if t[0] == "v":
        out.append(t[1])
    else:
        for a in t[2]:
            _term_vars(a, out)


def free_vars(f, bound=frozenset(), out=None):
    """Free variables in first-occurrence order."""
    if out is None:
        out = []
    tag = f[0]
    if tag in ("atom", "eq"):
        found = []
        for t in (f[2] if tag == "atom" else f[1:]):
            _term_vars(t, found)
        out.extend(v for v in found if v not in bound and v not in out)
    elif tag == "not":
        free_vars(f[1], bound, out)
    elif tag in ("and", "or"):
        for g in f[1]:
            free_vars(g, bound, out)
    elif tag in ("imp", "iff"):
        free_vars(f[1], bound, out)
        free_vars(f[2], bound, out)
    elif tag in ("all", "ex"):
        free_vars(f[2], bound | {f[1]}, out)
    return out


def close(f):
    for v in reversed(free_vars(f)):
        f = ("all", v, f)
    return f


def _subst_term(t, mapping):
    if t[0] == "v":
        return mapping.get(t[1], t)
    return ("f", t[1], tuple(_subst_term(a, mapping) for a in t[2]))


def substitute(f, mapping):
    """Replace free variables by terms (the terms here are ground)."""
    tag = f[0]
    if tag == "atom":
        return ("atom", f[1], tuple(_subst_term(t, mapping) for t in f[2]))
    if tag == "eq":
        return ("eq", _subst_term(f[1], mapping), _subst_term(f[2], mapping))
    if tag == "not":
        return ("not", substitute(f[1], mapping))
    if tag in ("and", "or"):
        return (tag, tuple(substitute(g, mapping) for g in f[1]))
    if tag in ("imp", "iff"):
        return (tag, substitute(f[1], mapping), substitute(f[2], mapping))
    if tag in ("all", "ex"):
        inner = {k: v for k, v in mapping.items() if k != f[1]}
        return (tag, f[1], substitute(f[2], inner))
    return f


def alpha_key(f):
    """Normal form of the universal closure of f, up to renaming of bound
    variables, the order of the leading universal block, nesting of &/or
    and orientation of equations."""
    while f[0] == "all":
        f = f[2]
    order = {}
    for v in free_vars(f):
        order[v] = ("free", len(order))
    return _key(f, order, 0)


def _key_term(t, env):
    if t[0] == "v":
        return env.get(t[1], ("free?", t[1]))
    return (t[1], tuple(_key_term(a, env) for a in t[2]))


def _key(f, env, depth):
    tag = f[0]
    if tag == "atom":
        return ("atom", f[1], tuple(_key_term(t, env) for t in f[2]))
    if tag == "eq":
        return ("eq",) + tuple(sorted((_key_term(f[1], env), _key_term(f[2], env)), key=repr))
    if tag == "not":
        return ("not", _key(f[1], env, depth))
    if tag in ("and", "or"):
        return (tag,) + tuple(_key(g, env, depth) for g in f[1])
    if tag in ("imp", "iff"):
        return (tag, _key(f[1], env, depth), _key(f[2], env, depth))
    if tag in ("all", "ex"):
        inner = dict(env)
        inner[f[1]] = ("bound", depth)
        return (tag, _key(f[2], inner, depth + 1))
    return (tag,)


# ---------------------------------------------------------------------------
# Finite-model evaluator


def _signature(formulas):
    funcs, preds = set(), set()

    def term(t):
        if t[0] == "f":
            funcs.add((t[1], len(t[2])))
            for a in t[2]:
                term(a)

    def walk(f):
        tag = f[0]
        if tag == "atom":
            preds.add((f[1], len(f[2])))
            for t in f[2]:
                term(t)
        elif tag == "eq":
            term(f[1])
            term(f[2])
        elif tag == "not":
            walk(f[1])
        elif tag in ("and", "or"):
            for g in f[1]:
                walk(g)
        elif tag in ("imp", "iff"):
            walk(f[1])
            walk(f[2])
        elif tag in ("all", "ex"):
            walk(f[2])

    for f in formulas:
        walk(f)
    return sorted(funcs), sorted(preds)


class TooLarge(Exception):
    pass


class _Grounder:
    """Ground closed formulas over {0..n-1} for fixed function tables,
    giving propositional NNF: True, False, int literal, ("and"|"or", [..])."""

    def __init__(self, n, tables):
        self.n = n
        self.tables = tables
        self.cells = {}

    def cell(self, key):
        if key not in self.cells:
            self.cells[key] = len(self.cells) + 1
        return self.cells[key]

    def term(self, t, env):
        if t[0] == "v":
            return env[t[1]]
        return self.tables[(t[1], len(t[2]))][tuple(self.term(a, env) for a in t[2])]

    def ground(self, f, env, pos):
        tag = f[0]
        if tag == "atom":
            lit = self.cell((f[1], tuple(self.term(t, env) for t in f[2])))
            return lit if pos else -lit
        if tag == "eq":
            return (self.term(f[1], env) == self.term(f[2], env)) == pos
        if tag == "not":
            return self.ground(f[1], env, not pos)
        if tag in ("and", "or"):
            return _combine((tag == "and") == pos, [self.ground(g, env, pos) for g in f[1]])
        if tag == "imp":
            return _combine(not pos, [self.ground(f[1], env, not pos),
                                      self.ground(f[2], env, pos)])
        if tag == "iff":
            a, b = self.ground(f[1], env, True), self.ground(f[2], env, True)
            na, nb = self.ground(f[1], env, False), self.ground(f[2], env, False)
            if pos:
                return _combine(False, [_combine(True, [a, b]), _combine(True, [na, nb])])
            return _combine(False, [_combine(True, [a, nb]), _combine(True, [na, b])])
        if tag in ("all", "ex"):
            parts = [self.ground(f[2], {**env, f[1]: d}, pos) for d in range(self.n)]
            return _combine((tag == "all") == pos, parts)
        return (tag == "true") == pos


def _combine(is_and, parts):
    out = []
    for p in parts:
        if p is True or p is False:
            if p is not is_and:
                return p  # False in a conjunction, True in a disjunction
            continue
        if isinstance(p, tuple) and p[0] == ("and" if is_and else "or"):
            out.extend(p[1])
        else:
            out.append(p)
    if not out:
        return is_and
    return out[0] if len(out) == 1 else ("and" if is_and else "or", out)


def _clauses(node, next_var):
    """CNF of a propositional NNF node; subformulas get definitional atoms."""
    clauses = []

    def lit(p):
        nonlocal next_var
        if isinstance(p, int) and not isinstance(p, bool):
            return p
        next_var += 1
        aux = next_var
        if p[0] == "and":
            for q in p[1]:
                clauses.append([-aux, lit(q)])
        else:
            clauses.append([-aux] + [lit(q) for q in p[1]])
        return aux

    def top(p):
        if p is True:
            return
        if p is False:
            clauses.append([])
        elif isinstance(p, int):
            clauses.append([p])
        elif p[0] == "and":
            for q in p[1]:
                top(q)
        else:
            clauses.append([lit(q) for q in p[1]])
        if len(clauses) > CLAUSE_CAP:
            raise TooLarge()

    top(node)
    return clauses


def satisfiable(clauses):
    """DPLL with unit propagation over int literals."""
    if any(not c for c in clauses):
        return False
    occurs = {}
    for i, c in enumerate(clauses):
        for lit in c:
            occurs.setdefault(lit, []).append(i)
    value = {}
    trail = []

    def val(lit):
        v = value.get(abs(lit))
        return None if v is None else (v if lit > 0 else not v)

    def assign(lit, queue):
        value[abs(lit)] = lit > 0
        trail.append(abs(lit))
        queue.append(lit)

    def propagate(queue):
        while queue:
            lit = queue.pop()
            for ci in occurs.get(-lit, ()):
                open_lit, count = None, 0
                for x in clauses[ci]:
                    v = val(x)
                    if v is True:
                        break
                    if v is None:
                        count += 1
                        open_lit = x
                else:
                    if count == 0:
                        return False
                    if count == 1:
                        assign(open_lit, queue)
        return True

    def undo(mark):
        while len(trail) > mark:
            del value[trail.pop()]

    queue = []
    for c in clauses:
        if len(c) == 1:
            v = val(c[0])
            if v is False:
                return False
            if v is None:
                assign(c[0], queue)
    if not propagate(queue):
        return False

    def search():
        for c in clauses:
            if any(val(x) is True for x in c):
                continue
            choice = next(x for x in c if val(x) is None)
            break
        else:
            return True
        for lit in (choice, -choice):
            mark = len(trail)
            q = []
            assign(lit, q)
            if propagate(q) and search():
                return True
            undo(mark)
        return False

    return search()


def _function_tables(funcs, n):
    """All interpretations of the function symbols over {0..n-1}.  With
    n = 2 the first constant is fixed to 0: swapping the two elements is
    an isomorphism, so the other half of the tables adds nothing."""
    spaces = []
    for i, (name, arity) in enumerate(funcs):
        points = list(itertools.product(range(n), repeat=arity))
        values = range(n)
        if n == 2 and arity == 0 and i == _first_constant(funcs):
            values = (0,)
        spaces.append([dict(zip(points, combo))
                       for combo in itertools.product(values, repeat=len(points))])
    for combo in itertools.product(*spaces):
        yield dict(zip(funcs, combo))


def _first_constant(funcs):
    return next((i for i, (_, arity) in enumerate(funcs) if arity == 0), None)


def entails(premises, conclusion):
    """True when the closed premises entail the closed conclusion in every
    interpretation of each domain size; False when a countermodel exists;
    None when the signature or ground form exceeds the caps."""
    formulas = list(premises) + [conclusion]
    funcs, _ = _signature(formulas)
    for n in DOMAIN_SIZES:
        count = 1
        for name, arity in funcs:
            count *= n ** (n ** arity)
        if count > FUNCTION_TABLE_CAP:
            return None
        for tables in _function_tables(funcs, n):
            g = _Grounder(n, tables)
            parts = [g.ground(p, {}, True) for p in premises]
            parts.append(g.ground(conclusion, {}, False))
            try:
                clauses = _clauses(_combine(True, parts), len(g.cells))
            except TooLarge:
                return None
            if satisfiable(clauses):
                return False
    return True


# ---------------------------------------------------------------------------
# Article scanner and step checks


@dataclass
class Report:
    citations: int = 0
    steps_checked: int = 0
    steps_trivial: int = 0  # conclusion alpha-equal to a cited formula
    steps_skipped: int = 0
    items: int = 0  # labeled items: axioms, lemmas, inner steps, instances
    problems: list = field(default_factory=list)

    def add(self, other):
        for name in ("citations", "steps_checked", "steps_trivial", "steps_skipped", "items"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.problems.extend(other.problems)


def parse_env(text):
    """(axioms, skolem_defs) of an environment file, as closed formulas."""
    axioms, skolems = [], []
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("axiom", "skolemdef"):
            number, _, formula = rest.partition(":")
            target = axioms if kind == "axiom" else skolems
            if int(number) != len(target) + 1:
                raise ParseError(f"{kind} {number} out of order")
            target.append(close(parse_tptp(formula.strip())))
        elif kind not in ("func", "pred", ""):
            raise ParseError(f"unknown environment line {line!r}")
    return axioms, skolems


_LABELED = re.compile(r"^(assume )?([A-Za-z][A-Za-z0-9]*): (.*)$")


class _Scope:
    def __init__(self, kind, item=None):
        self.kind = kind  # "top", "now", "proof", "subproof"
        self.item = item  # (label, formula, fixed mapping) for sub-proofs
        self.labels = {}


def _fix(f, fixed):
    """Formula as it stands inside a sub-proof: the item's variables are
    fixed (constants), any other free variable is universally closed."""
    return close(substitute(f, fixed)) if fixed else close(f)


def check_article(miz_text, env_text, facts=None):
    report = Report()
    problems = report.problems
    try:
        axioms, skolems = parse_env(env_text)
    except (ParseError, ValueError) as exc:
        problems.append(f"environment: {exc}")
        return report
    scopes = [_Scope("top")]
    theorem = None
    expect_theorem = False
    pending_item = None

    def lookup(ref):
        m = re.fullmatch(r"AXIOMS:(\d+)", ref)
        if m:
            i = int(m.group(1))
            return axioms[i - 1] if 1 <= i <= len(axioms) else None
        m = re.fullmatch(r"SKOLEM:def (\d+)", ref)
        if m:
            i = int(m.group(1))
            return skolems[i - 1] if 1 <= i <= len(skolems) else None
        for scope in reversed(scopes):
            if ref in scope.labels:
                return scope.labels[ref]
        return None

    def fixed_now():
        for scope in reversed(scopes):
            if scope.kind == "subproof":
                return scope.item[2]
        return {}

    def step(where, conclusion, refs):
        premises = []
        for ref in refs:
            report.citations += 1
            found = lookup(ref)
            if found is None:
                problems.append(f"{where}: citation {ref!r} does not resolve")
                return
            premises.append(found)
        key = alpha_key(conclusion)
        if any(alpha_key(p) == key for p in premises):
            report.steps_trivial += 1
            return
        verdict = entails(premises, conclusion)
        if verdict is None:
            report.steps_skipped += 1
        elif verdict:
            report.steps_checked += 1
        else:
            problems.append(f"{where}: cited formulas have a countermodel of size <= 2")

    def define(label, formula):
        if any(label in s.labels for s in scopes):
            problems.append(f"label {label} defined twice")
        scopes[-1].labels[label] = formula

    for number, raw in enumerate(miz_text.splitlines(), start=1):
        line = raw.strip()
        where = f"line {number}"
        if not line or line.startswith("::") or line.startswith("reserve "):
            continue
        try:
            if expect_theorem:
                theorem = close(parse_mizar(line.rstrip(";")))
                expect_theorem = False
            elif line == "theorem":
                expect_theorem = True
            elif line == "proof":
                if pending_item is not None:
                    scopes.append(_Scope("subproof", pending_item))
                    pending_item = None
                else:
                    scopes.append(_Scope("proof"))
            elif line == "now":
                scopes.append(_Scope("now"))
            elif line == "end;":
                if len(scopes) == 1:
                    raise ParseError("unbalanced end")
                closed = scopes.pop()
                if closed.kind == "subproof":
                    label, formula, _ = closed.item
                    define(label, close(formula))
            elif line == "hence thesis;":
                continue
            elif line.startswith("thus "):
                body, _, refs = line[5:].rstrip(";").partition(" by ")
                refs = [r.strip() for r in refs.split(",")] if refs else []
                if body == "contradiction":
                    step(where, FALSE, refs)
                elif body == "thesis" and scopes[-1].kind == "subproof":
                    _, formula, fixed = scopes[-1].item
                    step(where, substitute(formula, fixed), refs)
                else:
                    raise ParseError(f"unexpected {line!r}")
            else:
                m = _LABELED.match(line)
                if m is None:
                    raise ParseError(f"unexpected {line!r}")
                assume, label, rest = m.groups()
                report.items += not assume
                if assume:
                    define(label, close(parse_mizar(rest.rstrip(";"))))
                elif rest.endswith(";"):
                    text, _, refs = rest[:-1].partition(" by ")
                    refs = [r.strip() for r in refs.split(",")] if refs else []
                    formula = _fix(parse_mizar(text), fixed_now())
                    step(f"{where} ({label})", formula, refs)
                    define(label, formula)
                else:
                    # closed outside its proof; inside, its variables are fixed
                    formula = parse_mizar(rest)
                    fixed = {v: ("f", "fixed." + v, ()) for v in free_vars(formula)}
                    pending_item = (label, formula, fixed)
        except (ParseError, IndexError, KeyError) as exc:
            problems.append(f"{where}: {exc}")
    if len(scopes) != 1:
        problems.append("unbalanced proof blocks")
    if facts is not None:
        _check_facts(report, theorem, axioms, skolems, facts)
    return report


def _check_facts(report, theorem, axioms, skolems, facts):
    problems = report.problems
    conjecture = facts.get("conjecture")
    if conjecture is not None:
        if theorem is None:
            problems.append("no theorem")
        elif alpha_key(theorem) != alpha_key(close(parse_tptp(conjecture))):
            problems.append("theorem is not alpha-equal to the conjecture")
    if "axioms" in facts and len(axioms) != facts["axioms"]:
        problems.append(f"{len(axioms)} axioms, expected {facts['axioms']}")
    if "skolem_defs" in facts and len(skolems) != facts["skolem_defs"]:
        problems.append(f"{len(skolems)} skolem definitions, expected {facts['skolem_defs']}")
    expected = facts.get("axiom_formulas")
    if expected is not None:
        for i, (got, text) in enumerate(zip(axioms, expected), start=1):
            if alpha_key(got) != alpha_key(close(parse_tptp(text))):
                problems.append(f"axiom {i} is not alpha-equal to the generated formula")
                break

