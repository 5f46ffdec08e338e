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
# whitespace or a comment gets a second).
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|%[^\n]*|\#[^\n]*|/\*.*?\*/)*
    ( '(?:[^'\\]|\\.)*'
    | \$[a-z][a-zA-Z0-9_]*
    | [a-zA-Z][a-zA-Z0-9_]*
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

# A token's kind follows from its first character: a sign or a digit that
# no entry names starts a number.
_KINDS = {"": "eof", "'": "quoted", "$": "dollar", **dict.fromkeys(_OPS, "op")}
_KINDS.update((c, "lower" if c.islower() else "upper") for c in _LETTERS)


def _kind(token: str) -> str:
    return _KINDS.get(token[:1], "number")


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
    """Recursive descent over the token values; an error re-scans the text
    for the position of the token it stopped at."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0  # open nesting levels; an error ends the parse, so none closes on raise
        self.leaves = {}  # token -> the variable or constant it names, made once per text

    def peek(self) -> str:
        return self.tokens[self.i]

    def next(self) -> str:
        tok = self.tokens[self.i]
        if tok:
            self.i += 1
        return tok

    def error(self, message, expected=()):
        raise TptpSyntaxError(message, *_position(self.text, self.i), expected)

    def expect(self, value):
        if not self.accept(value):
            self.error(f"got {self.peek()!r}", expected=(repr(value),))

    def at(self, value) -> bool:
        return self.tokens[self.i] == value

    def accept(self, value) -> bool:
        """Whether the next token is value, consuming it if so."""
        found = self.tokens[self.i] == value
        self.i += found
        return found

    def descend(self) -> str:
        """Consume the token that opens one more nesting level, failing
        past MAX_NESTING; the caller closes the level with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            message = f"input nests deeper than {MAX_NESTING} levels"
            raise NestingTooDeep(message, *_position(self.text, self.i))
        return self.next()

    # -- top level ----------------------------------------------------------

    def parse_units(self):
        """The list of ('unit', AnnotatedFormula) and ('include', path, names) items."""
        items = []
        while tok := self.peek():
            if tok == "include":
                items.append(self.parse_include())
            elif tok in ("fof", "cnf"):
                items.append(("unit", self.parse_unit()))
            elif tok in ("tff", "thf", "tcf", "tpi"):
                raise UnsupportedLanguage(tok, _position(self.text, self.i)[0])
            else:
                self.error(f"got {tok!r}", expected=("'fof'", "'cnf'", "'include'"))
        return items

    def parse_include(self):
        self.expect("include")
        self.expect("(")
        if _kind(self.peek()) != "quoted":
            self.error("include path must be quoted", expected=("quoted atom",))
        path = _unquote(self.next())
        names = None
        if self.accept(","):
            self.expect("[")
            names = []
            while not self.at("]"):
                names.append(self.parse_name())
                self.accept(",")
            self.expect("]")
        self.expect(")")
        self.expect(".")
        return ("include", path, names)

    def parse_name(self) -> str:
        kind = _kind(self.peek())
        if kind in ("lower", "number"):
            return self.next()
        if kind == "quoted":
            return _unquote(self.next())
        self.error("expected a unit name", expected=("lower word", "quoted atom"))

    def parse_unit(self) -> AnnotatedFormula:
        lang = self.next()
        self.expect("(")
        name = self.parse_name()
        self.expect(",")
        role = self.peek()
        if role not in ROLES:
            self.error(f"unknown role {role!r}", expected=tuple(sorted(ROLES)))
        self.next()
        self.expect(",")
        if lang == "fof":
            formula = self.parse_fof_formula()
        else:
            formula = self.parse_cnf_formula()
        source = None
        if self.accept(","):
            source = self.parse_source()
            if self.accept(","):  # optional useful_info, discarded
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

    def parse_fof_formula(self) -> "fol.Formula":
        left = self.parse_unitary()
        op = self.peek()
        if op in ("&", "|"):
            parts = [left]
            while self.accept(op):
                parts.append(self.parse_unitary())
            if self.peek() in ("&", "|") or self.peek() in self._NONASSOC:
                self.error("binary connectives cannot be mixed without parentheses")
            return fol.join(fol.And if op == "&" else fol.Or, parts)
        if op in self._NONASSOC:
            build = self._NONASSOC[self.next()]
            right = self.parse_unitary()
            nxt = self.peek()
            if nxt in ("&", "|") or nxt in self._NONASSOC:
                self.error("binary connectives are non-associative; add parentheses")
            return build(left, right)
        return left

    def parse_unitary(self) -> "fol.Formula":
        tok = self.peek()
        if tok in ("!", "?"):
            quant = self.descend()
            self.expect("[")
            names = []
            while True:
                if _kind(self.peek()) != "upper":
                    self.error("expected a variable", expected=("upper word",))
                names.append(self.next())
                if not self.accept(","):
                    break
            self.expect("]")
            self.expect(":")
            body = self.parse_unitary()
            self.depth -= 1
            node = fol.Forall if quant == "!" else fol.Exists
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
        tok = self.peek()
        if _kind(tok) == "dollar":
            self.next()
            if tok == "$true":
                return fol.TRUE
            if tok == "$false":
                return fol.FALSE
            self.error(f"unsupported defined symbol {tok!r}")
        if _kind(tok) == "upper":
            term = self.parse_term()
        else:
            # an atom is made from its functor and arguments: only the side
            # of an equation is a term
            name, args = self.parse_functor()
            if self.peek() not in ("=", "!="):
                return fol.Atom(name, args)
            term = fol.App(name, args)
        nxt = self.peek()
        if nxt == "=":
            self.next()
            return fol.Eq(term, self.parse_term())
        if nxt == "!=":
            self.next()
            return fol.Not(fol.Eq(term, self.parse_term()))
        self.error("a bare variable is not a formula")

    def parse_term(self) -> "fol.Term":
        tok = self.peek()
        if _kind(tok) == "upper":
            self.next()
            return self.leaf(tok, fol.Var, tok)
        name, args = self.parse_functor()
        if args:
            return fol.App(name, args)
        return self.leaf(tok, fol.App, name)

    def leaf(self, tok, make, name):
        """The one variable or constant that tok names in this text."""
        term = self.leaves.get(tok)
        if term is None:
            term = self.leaves[tok] = make(name)
        return term

    def parse_functor(self):
        """A functor and its argument terms, as (name, args)."""
        name = self.peek()
        kind = _kind(name)
        if kind not in ("lower", "quoted", "number"):
            self.error("expected a term", expected=("variable", "functor"))
        self.next()
        if kind == "quoted":
            name = _unquote(name)
        if not self.at("("):
            return name, ()
        self.descend()
        got = [self.parse_term()]
        while self.accept(","):
            got.append(self.parse_term())
        self.expect(")")
        self.depth -= 1
        return name, tuple(got)

    # -- cnf formulas -------------------------------------------------------

    def parse_cnf_formula(self) -> "fol.Formula":
        if self.accept("("):
            inner = self._parse_disjunction()
            self.expect(")")
            return inner
        return self._parse_disjunction()

    def _parse_disjunction(self) -> "fol.Formula":
        parts = [self._parse_cnf_literal()]
        while self.accept("|"):
            parts.append(self._parse_cnf_literal())
        return fol.join(fol.Or, parts)

    def _parse_cnf_literal(self) -> "fol.Formula":
        if self.at("~"):
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
        name = self.peek()
        if name == "[":
            self.descend()
            items = []
            while not self.at("]"):
                items.append(self.parse_annotation_term(parents, binds))
                self.accept(",")
            self.expect("]")
            self.depth -= 1
            return items
        kind = _kind(name)
        if kind in ("op", "eof"):
            self.error("expected an annotation term")
        self.next()
        if kind == "quoted":
            name = _unquote(name)
        if not self.at("("):
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
            while not self.at(")"):
                named = (name, len(args)) in (("inference", 2), (":", 0))
                args.append(self.parse_annotation_term(own if named else None, inner))
                self.accept(",")
            self.expect(")")
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
        if self.at(":"):  # parent annotation, e.g. name : [bind(...)]
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
