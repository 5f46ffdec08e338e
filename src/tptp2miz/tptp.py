"""TPTP problem and TSTP derivation parsing and serialization (fof/cnf only)."""

from __future__ import annotations

import itertools
import os
import re
import warnings

from . import fol
from .errors import (
    IncludeCycle,
    IncludeNotFound,
    IoError,
    NestingTooDeep,
    TptpSyntaxError,
    UnsupportedLanguage,
)
from .fol import _set


class TptpWarning(UserWarning):
    pass


ROLES = {
    "axiom",
    "hypothesis",
    "definition",
    "conjecture",
    "negated_conjecture",
    "plain",
    "lemma",
    "derived",
}


class FileSource(fol.Record):
    __slots__ = _fields = ("origin", "path")

    def __init__(self, origin, path="unknown"):
        _set(self, "origin", origin)
        _set(self, "path", path)


class UnknownSource(fol.Record):
    __slots__ = _fields = ("text",)

    def __init__(self, text=""):
        _set(self, "text", text)


class IntroducedSource(fol.Record):
    """An `introduced(...)` source: a unit the prover made up, such as a
    definition of a fresh symbol."""

    __slots__ = _fields = ("text",)

    def __init__(self, text):
        _set(self, "text", text)


class InferenceRecord(fol.Record):
    __slots__ = _fields = ("rule", "parents", "status", "bindings")

    def __init__(self, rule, parents, status=None, bindings=()):
        _set(self, "rule", rule)
        _set(self, "parents", parents)
        _set(self, "status", status)
        _set(self, "bindings", bindings)  # ((var, Term), ...) when the record has bind() info


class AnnotatedFormula(fol.Record):
    __slots__ = _fields = ("name", "language", "role", "formula", "source")

    def __init__(self, name, language, role, formula, source=None):
        _set(self, "name", name)
        _set(self, "language", language)  # "fof" | "cnf"
        _set(self, "role", role)
        _set(self, "formula", formula)
        _set(self, "source", source)


# ---------------------------------------------------------------------------
# Lexer

# One match per token: the skip group passes whitespace and comments, and
# group 1 captures the token.  Since group 1 matches at every offset (any
# character, or the end), the skip never backtracks and findall returns the
# whole stream.  The first '' is the end of input (a text that ends in
# whitespace or a comment gets a second).  Words and the one-character
# operators that start no longer one come first, as most tokens are those.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|%[^\n]*|\#[^\n]*|/\*.*?\*/)*
    ( [a-zA-Z][a-zA-Z0-9_]*
    | [(),\[\]:.&|?*]
    | '(?:[^'\\]|\\.)*'
    | \$[a-z][a-zA-Z0-9_]*
    | [+-]?\d+(?:\.\d+)?
    | <=>|<~>|=>|<=|!=|~\||~&
    | .
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_OPS = frozenset("!?~&|=:(),.[]<>*")  # the one-character operators
_LETTERS = frozenset(c for c in map(chr, range(128)) if c.isalpha())  # ASCII

# A token's kind, `_KINDS.get(token[:1], "number")`, follows from its first
# character: a sign or a digit that no entry names starts a number.
_KINDS = {"": "eof", "'": "quoted", "$": "dollar", **dict.fromkeys(_OPS, "op")}
_KINDS.update((c, "lower" if c.islower() else "upper") for c in _LETTERS)


def tokenize(text: str) -> list:
    """The token values of the text; the first '' ends the input."""
    tokens = _TOKEN_RE.findall(text)
    # a one-character token that no other alternative of the pattern takes
    bad = {t for t in set(tokens)
           if len(t) == 1 and t not in _OPS and t not in _LETTERS and not t.isdecimal()}
    if bad:
        i = next(i for i, t in enumerate(tokens) if t in bad)
        raise TptpSyntaxError(f"unexpected character {tokens[i]!r}", *_position(text, i))
    return tokens


def _position(text: str, index: int):
    """1-based line and column of the index-th token of the text."""
    pos = next(itertools.islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _unquote(s: str) -> str:
    return s[1:-1].replace("\\'", "'").replace("\\\\", "\\")


_LOWER_WORD = re.compile(r"[a-z][a-zA-Z0-9_]*")


def quote_atom(name: str) -> str:
    if _LOWER_WORD.fullmatch(name):
        return name
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


# ---------------------------------------------------------------------------
# Parser

# Deepest nesting the parser accepts.  One level is a `~`, a quantifier
# block, a parenthesis, a term's argument list, or an annotation list,
# argument list or parent annotation.  Later stages recurse over nesting;
# this bound keeps them within the default recursion limit, with room for a
# checker instance whose terms are twice as deep as the input's.
MAX_NESTING = 128


class _Parser:
    """Recursive descent over the token values, read by index: each method
    compares `tokens[i]` and advances `i` itself.  An error re-scans the
    text for the position of the token it stopped at."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0  # open nesting levels; an error ends the parse, so none closes on raise
        self.leaves = {}  # token -> the variable or constant it names, made once per text

    def error(self, message, expected=()):
        raise TptpSyntaxError(message, *_position(self.text, self.i), expected)

    def expect(self, value):
        """Consume the next token, which must be value."""
        if self.tokens[self.i] != value:
            self.error(f"got {self.tokens[self.i]!r}", expected=(repr(value),))
        self.i += 1

    def descend(self):
        """Consume the token that opens one more nesting level, failing
        past MAX_NESTING; the caller closes the level with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            message = f"input nests deeper than {MAX_NESTING} levels"
            raise NestingTooDeep(message, *_position(self.text, self.i))
        self.i += 1

    # -- top level ----------------------------------------------------------

    def parse_units(self):
        """The list of ('unit', AnnotatedFormula) and ('include', path, names) items."""
        toks = self.tokens
        items = []
        while tok := toks[self.i]:
            if tok == "include":
                items.append(self.parse_include())
            elif tok == "fof" or tok == "cnf":
                items.append(("unit", self.parse_unit()))
            elif tok in ("tff", "thf", "tcf", "tpi"):
                raise UnsupportedLanguage(tok, _position(self.text, self.i)[0])
            else:
                self.error(f"got {tok!r}", expected=("'fof'", "'cnf'", "'include'"))
        return items

    def parse_include(self):
        toks = self.tokens
        self.i += 1  # include
        self.expect("(")
        if toks[self.i][:1] != "'":
            self.error("include path must be quoted", expected=("quoted atom",))
        path = _unquote(toks[self.i])
        self.i += 1
        names = None
        if toks[self.i] == ",":
            self.i += 1
            self.expect("[")
            names = []
            while toks[self.i] != "]":
                names.append(self.parse_name())
                if toks[self.i] == ",":
                    self.i += 1
            self.i += 1
        self.expect(")")
        self.expect(".")
        return ("include", path, names)

    def parse_name(self) -> str:
        tok = self.tokens[self.i]
        kind = _KINDS.get(tok[:1], "number")
        if kind == "quoted":
            tok = _unquote(tok)
        elif kind != "lower" and kind != "number":
            self.error("expected a unit name", expected=("lower word", "quoted atom"))
        self.i += 1
        return tok

    def parse_unit(self) -> AnnotatedFormula:
        toks = self.tokens
        lang = toks[self.i]
        self.i += 1
        self.expect("(")
        name = self.parse_name()
        self.expect(",")
        role = toks[self.i]
        if role not in ROLES:
            self.error(f"unknown role {role!r}", expected=tuple(sorted(ROLES)))
        self.i += 1
        self.expect(",")
        if lang == "fof":
            formula = self.parse_fof_formula()
        else:
            formula = self.parse_cnf_formula()
        source = None
        if toks[self.i] == ",":
            self.i += 1
            source = self.parse_source()
            if toks[self.i] == ",":  # optional useful_info, discarded
                self.i += 1
                self.parse_annotation_term()
        self.expect(")")
        self.expect(".")
        return AnnotatedFormula(name, lang, role, formula, source)

    # -- fof formulas -------------------------------------------------------

    # the non-associative binary connectives, each as a builder of its node
    _NONASSOC = {
        "=>": fol.Implies,
        "<=": lambda left, right: fol.Implies(right, left),
        "<=>": fol.Iff,
        "<~>": lambda left, right: fol.Not(fol.Iff(left, right)),
        "~|": lambda left, right: fol.Not(fol.join(fol.Or, (left, right))),
        "~&": lambda left, right: fol.Not(fol.join(fol.And, (left, right))),
    }
    _BINARY = frozenset(["&", "|", *_NONASSOC])

    def parse_fof_formula(self) -> "fol.Formula":
        toks = self.tokens
        left = self.parse_unitary()
        op = toks[self.i]
        if op == "&" or op == "|":
            parts = [left]
            while toks[self.i] == op:
                self.i += 1
                parts.append(self.parse_unitary())
            if toks[self.i] in self._BINARY:
                self.error("binary connectives cannot be mixed without parentheses")
            return fol.join(fol.And if op == "&" else fol.Or, parts)
        build = self._NONASSOC.get(op)
        if build is None:
            return left
        self.i += 1
        right = self.parse_unitary()
        if toks[self.i] in self._BINARY:
            self.error("binary connectives are non-associative; add parentheses")
        return build(left, right)

    def parse_unitary(self) -> "fol.Formula":
        toks = self.tokens
        tok = toks[self.i]
        if tok == "!" or tok == "?":
            self.descend()
            self.expect("[")
            names = []
            while True:
                name = toks[self.i]
                if _KINDS.get(name[:1]) != "upper":
                    self.error("expected a variable", expected=("upper word",))
                names.append(name)
                self.i += 1
                if toks[self.i] != ",":
                    break
                self.i += 1
            self.expect("]")
            self.expect(":")
            body = self.parse_unitary()
            self.depth -= 1
            node = fol.Forall if tok == "!" else fol.Exists
            return node(tuple(names), body)
        if tok == "~":
            self.descend()
            body = self.parse_unitary()
            self.depth -= 1
            return fol.Not(body)
        if tok == "(":
            self.descend()
            inner = self.parse_fof_formula()
            self.expect(")")
            self.depth -= 1
            return inner
        return self.parse_atomic()

    def parse_atomic(self) -> "fol.Formula":
        toks = self.tokens
        tok = toks[self.i]
        kind = _KINDS.get(tok[:1], "number")
        if kind == "upper":
            term = self.parse_term()
        elif kind == "dollar":
            self.i += 1
            if tok == "$true":
                return fol.TRUE
            if tok == "$false":
                return fol.FALSE
            self.error(f"unsupported defined symbol {tok!r}")
        else:
            # an atom is made from its functor and arguments: only the side
            # of an equation is a term
            if kind == "op" or kind == "eof":
                self.error("expected a term", expected=("variable", "functor"))
            self.i += 1
            name = _unquote(tok) if kind == "quoted" else tok
            args = self.parse_arguments() if toks[self.i] == "(" else ()
            if toks[self.i] != "=" and toks[self.i] != "!=":
                return fol.Atom(name, args)
            term = fol.App(name, args)
        nxt = toks[self.i]
        if nxt == "=":
            self.i += 1
            return fol.Eq(term, self.parse_term())
        if nxt == "!=":
            self.i += 1
            return fol.Not(fol.Eq(term, self.parse_term()))
        self.error("a bare variable is not a formula")

    def parse_term(self) -> "fol.Term":
        toks = self.tokens
        tok = toks[self.i]
        kind = _KINDS.get(tok[:1], "number")
        if kind == "op" or kind == "eof" or kind == "dollar":
            self.error("expected a term", expected=("variable", "functor"))
        self.i += 1
        name = _unquote(tok) if kind == "quoted" else tok
        if kind != "upper" and toks[self.i] == "(":
            return fol.App(name, self.parse_arguments())
        term = self.leaves.get(tok)  # the one variable or constant that tok names
        if term is None:
            term = self.leaves[tok] = fol.Var(tok) if kind == "upper" else fol.App(name)
        return term

    def parse_arguments(self) -> tuple:
        """The terms of the argument list that opens at the next token."""
        toks = self.tokens
        self.descend()
        args = [self.parse_term()]
        while toks[self.i] == ",":
            self.i += 1
            args.append(self.parse_term())
        self.expect(")")
        self.depth -= 1
        return tuple(args)

    # -- cnf formulas -------------------------------------------------------

    def parse_cnf_formula(self) -> "fol.Formula":
        if self.tokens[self.i] != "(":
            return self._parse_disjunction()
        self.i += 1
        inner = self._parse_disjunction()
        self.expect(")")
        return inner

    def _parse_disjunction(self) -> "fol.Formula":
        toks = self.tokens
        parts = [self._parse_cnf_literal()]
        while toks[self.i] == "|":
            self.i += 1
            parts.append(self._parse_cnf_literal())
        return fol.join(fol.Or, parts)

    def _parse_cnf_literal(self) -> "fol.Formula":
        if self.tokens[self.i] == "~":
            self.descend()
            body = self._parse_cnf_literal()
            self.depth -= 1
            return fol.Not(body)
        return self.parse_atomic()

    # -- sources ------------------------------------------------------------

    def parse_source(self):
        parents, binds = [], []
        term = self.parse_annotation_term(parents, binds)
        source = _source(term, parents, binds)
        if isinstance(source, UnknownSource):
            warnings.warn(f"unrecognized source annotation {term!r}; treating as unknown",
                          TptpWarning, stacklevel=4)
        return source

    def parse_annotation_term(self, parents=None, binds=None):
        """Parse a general annotation term into nested python structures: a
        list, a name, or a (name, args) pair, with `x : y` as (":", [x, y]).
        Appends to `parents` the parent names the term gives as an item of
        a parent list, and to `binds` each bind(...) of two arguments in it
        that no other such bind holds, in text order."""
        toks = self.tokens
        name = toks[self.i]
        if name == "[":
            self.descend()
            items = []
            while toks[self.i] != "]":  # a term or an error comes before the end
                items.append(self.parse_annotation_term(parents, binds))
                if toks[self.i] == ",":
                    self.i += 1
            self.i += 1
            self.depth -= 1
            return items
        kind = _KINDS.get(name[:1], "number")
        if kind == "op" or kind == "eof":
            self.error("expected an annotation term")
        self.i += 1
        if kind == "quoted":
            name = _unquote(name)
        if toks[self.i] != "(":
            out = name
            if parents is not None:
                parents.append(name)
        else:
            self.descend()
            # As an item, an inference names the parents of its third argument
            # once its arity shows, and a `:` those of its first: theory(...)
            # and f(c_0_1) name none.  A bind's hints count once its arity
            # shows that it is no hint itself.
            own = [] if parents is not None else None
            inner = [] if name == "bind" and binds is not None else binds
            args = []
            while toks[self.i] != ")":
                named = (name, len(args)) in (("inference", 2), (":", 0))
                args.append(self.parse_annotation_term(own if named else None, inner))
                if toks[self.i] == ",":
                    self.i += 1
            self.i += 1
            self.depth -= 1
            out = (name, args)
            if parents is not None:
                if name == "file" and len(args) >= 2 and isinstance(args[1], str):
                    parents.append(args[1])
                elif name != "inference" or len(args) == 3 and isinstance(args[2], list):
                    parents.extend(own)
            if inner is not binds:
                if len(args) == 2:
                    binds.append(out)
                else:
                    binds.extend(inner)
        if toks[self.i] == ":":  # parent annotation, e.g. name : [bind(...)]
            self.descend()
            out = (":", [out, self.parse_annotation_term(None, binds)])
            self.depth -= 1
        return out


def _source(term, parents, binds):
    """The record of a source annotation, from its term and the parents and
    binds that parse_annotation_term gathered from it."""
    if not isinstance(term, tuple):  # a name or a list
        return UnknownSource("unknown" if term == "unknown" else repr(term))
    head, args = term
    if head == "file":
        if len(args) >= 2 and isinstance(args[1], str):
            return FileSource(args[1], args[0] if isinstance(args[0], str) else "unknown")
        if args and isinstance(args[0], str):
            return FileSource(args[0], args[0])
    if head == "introduced":
        return IntroducedSource(repr(term))
    if not (head == "inference" and len(args) == 3 and isinstance(args[0], str)
            and isinstance(args[2], list)):
        return UnknownSource(repr(term))
    status = None
    for item in args[1] if isinstance(args[1], list) else [args[1]]:
        if (isinstance(item, tuple) and item[0] == "status" and item[1]
                and isinstance(item[1][0], str)):
            status = item[1][0]
    bindings = []
    for item in binds:
        bound = _interpret_binding(item[1])
        if bound is not None:
            bindings.append(bound)
        else:
            warnings.warn(f"malformed bind annotation {item!r}; ignoring",
                          TptpWarning, stacklevel=5)
    return InferenceRecord(args[0], tuple(parents), status, tuple(bindings))


def _interpret_binding(args):
    var, value = args
    if not (isinstance(var, str) and var[:1].isupper()):
        return None
    if isinstance(value, tuple) and value[0] == "$fot" and len(value[1]) == 1:
        value = value[1][0]
    term = _annotation_to_term(value)
    if term is None:
        return None
    return (var, term)


def _annotation_to_term(value):
    if isinstance(value, str):
        if value[:1].isupper():
            return fol.Var(value)
        return fol.App(value, ())
    if isinstance(value, tuple) and value[0] != ":":  # a parent annotation is no term
        head, args = value
        sub = [_annotation_to_term(a) for a in args]
        if any(t is None for t in sub):
            return None
        return fol.App(head, tuple(sub))
    return None


# ---------------------------------------------------------------------------
# Public parse entry points


def _resolve_include(path, base_dir, include_dirs):
    searched = []
    dirs = []
    if base_dir:
        dirs.append(base_dir)
    dirs.extend(include_dirs)
    env = os.environ.get("TPTP")
    if env:
        dirs.append(env)
    for d in dirs:
        cand = os.path.join(d, path)
        searched.append(cand)
        if os.path.exists(cand):
            return cand
    if os.path.exists(path):
        return path
    searched.append(path)
    raise IncludeNotFound(path, searched)


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: {exc}") from exc


def parse_problem(text: str, base_dir=None, include_dirs=()) -> list:
    """Parse TPTP problem or TSTP derivation text: fof/cnf units with their
    sources interpreted, includes resolved and filtered by name."""
    return _parse_including(text, base_dir, include_dirs, ())


def _parse_including(text, base_dir, include_dirs, including):
    """parse_problem inside the includes whose real paths are `including`."""
    units = []
    for item in _Parser(text).parse_units():
        if item[0] == "unit":
            units.append(item[1])
            continue
        _, path, names = item
        resolved = _resolve_include(path, base_dir, include_dirs)
        real = os.path.realpath(resolved)
        if real in including:
            raise IncludeCycle(path, including)
        sub = _parse_including(_read_file(resolved), os.path.dirname(resolved),
                               include_dirs, including + (real,))
        if names is not None:
            wanted = set(names)
            sub = [u for u in sub if u.name in wanted]
        units.extend(sub)
    return units


def parse_problem_file(path, include_dirs=()):
    text = _read_file(path)
    return parse_problem(text, os.path.dirname(os.path.abspath(path)), include_dirs)


# TSTP derivations share the grammar; derivation mode reads its input by this name.
parse_derivation_file = parse_problem_file


# ---------------------------------------------------------------------------
# Serialization


def format_term(t: "fol.Term") -> str:
    if isinstance(t, fol.Var):
        return t.name
    name = quote_atom(t.name)
    if not t.args:
        return name
    return name + "(" + ",".join(format_term(a) for a in t.args) + ")"


def format_formula(f: "fol.Formula") -> str:
    if isinstance(f, fol.Atom):
        name = quote_atom(f.pred)
        if not f.args:
            return name
        return name + "(" + ",".join(format_term(a) for a in f.args) + ")"
    if isinstance(f, fol.Eq):
        return f"{format_term(f.left)} = {format_term(f.right)}"
    if isinstance(f, fol.Not):
        if isinstance(f.body, fol.Eq):
            return f"{format_term(f.body.left)} != {format_term(f.body.right)}"
        return "~ " + format_formula(f.body)
    if isinstance(f, (fol.And, fol.Or)):
        op = " & " if isinstance(f, fol.And) else " | "
        return "(" + op.join(format_formula(p) for p in f.parts) + ")"
    if isinstance(f, fol.Implies):
        return f"({format_formula(f.left)} => {format_formula(f.right)})"
    if isinstance(f, fol.Iff):
        return f"({format_formula(f.left)} <=> {format_formula(f.right)})"
    if isinstance(f, (fol.Forall, fol.Exists)):
        mark = "!" if isinstance(f, fol.Forall) else "?"
        return f"{mark} [{','.join(f.vars)}] : {format_formula(f.body)}"
    if isinstance(f, fol.Verum):
        return "$true"
    return "$false"


def format_source(source) -> str:
    if isinstance(source, FileSource):
        return f"file({quote_atom(source.path)},{quote_atom(source.origin)})"
    if isinstance(source, InferenceRecord):
        info = []
        if source.status:
            info.append(f"status({source.status})")
        for var, term in source.bindings:
            info.append(f"bind({var},$fot({format_term(term)}))")
        parents = ",".join(quote_atom(p) for p in source.parents)
        return f"inference({quote_atom(source.rule)},[{','.join(info)}],[{parents}])"
    return "unknown"


def serialize(units) -> str:
    """Emit TPTP text re-parsable by parse_problem."""
    lines = []
    for u in units:
        head = f"{u.language}({quote_atom(u.name)},{u.role},{format_formula(u.formula)}"
        if u.source is not None:
            head += "," + format_source(u.source)
        lines.append(head + ").")
    return "\n".join(lines) + ("\n" if lines else "")
