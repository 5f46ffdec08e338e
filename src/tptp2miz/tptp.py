"""TPTP problem and TSTP derivation parsing and serialization (fof/cnf only)."""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import fol
from .errors import (
    IncludeCycle,
    IncludeNotFound,
    IoError,
    NestingTooDeep,
    TptpSyntaxError,
    UnsupportedLanguage,
)


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


@dataclass(frozen=True)
class FileSource:
    origin: str
    path: str = "unknown"


@dataclass(frozen=True)
class UnknownSource:
    text: str = ""


@dataclass(frozen=True)
class InferenceRecord:
    rule: str
    parents: tuple
    status: Optional[str] = None
    bindings: tuple = ()  # ((var, Term), ...) when the record carries bind() info


@dataclass(frozen=True)
class AnnotatedFormula:
    name: str
    language: str  # "fof" | "cnf"
    role: str
    formula: "fol.Formula"
    source: object = None


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*|\#[^\n]*|/\*.*?\*/)
  | (?P<quoted>'(?:[^'\\]|\\.)*')
  | (?P<dollar>\$[a-z][a-zA-Z0-9_]*)
  | (?P<lower>[a-z][a-zA-Z0-9_]*)
  | (?P<upper>[A-Z][a-zA-Z0-9_]*)
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<op><=>|<~>|=>|<=|!=|~\||~&|[!?~&|=:(),.\[\]<>*])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str
    value: str
    pos: int  # offset of the token's first character in the text


def tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "bad":
            raise TptpSyntaxError(
                f"unexpected character {m.group()!r}", *_line_column(text, m.start())
            )
        tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


def _line_column(text: str, pos: int):
    """1-based line and column of an offset in the text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _unquote(s: str) -> str:
    return s[1:-1].replace("\\'", "'").replace("\\\\", "\\")


_LOWER_WORD = re.compile(r"[a-z][a-zA-Z0-9_]*$")


def quote_atom(name: str) -> str:
    if _LOWER_WORD.match(name):
        return name
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


# ---------------------------------------------------------------------------
# Parser

# Deepest nesting the parser accepts.  One level is a `~`, a quantified
# variable, a parenthesis, a term's argument list, or an annotation list,
# argument list or parent annotation.  Later stages recurse over nesting;
# this bound keeps them within the default recursion limit, with room for a
# checker instance whose terms are twice as deep as the input's.
MAX_NESTING = 128


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0  # open nesting levels; an error ends the parse, so none closes on raise

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message, expected=()):
        tok = self.peek()
        raise TptpSyntaxError(message, *_line_column(self.text, tok.pos), expected)

    def expect(self, value):
        tok = self.peek()
        if tok.value != value or tok.kind == "eof":
            self.error(f"got {tok.value!r}", expected=(repr(value),))
        return self.next()

    def at(self, value) -> bool:
        tok = self.peek()
        return tok.kind != "eof" and tok.value == value

    def descend(self) -> Token:
        """Consume the token that opens one more nesting level, failing
        past MAX_NESTING; the caller closes the level with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            message = f"input nests deeper than {MAX_NESTING} levels"
            raise NestingTooDeep(message, *_line_column(self.text, self.peek().pos))
        return self.next()

    # -- top level ----------------------------------------------------------

    def parse_units(self):
        """Yield ('unit', AnnotatedFormula) and ('include', path, names) items."""
        items = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.value == "include":
                items.append(self.parse_include())
            elif tok.value in ("fof", "cnf"):
                items.append(("unit", self.parse_unit()))
            elif tok.value in ("tff", "thf", "tcf", "tpi"):
                line, _ = _line_column(self.text, tok.pos)
                raise UnsupportedLanguage(tok.value, line)
            else:
                self.error(f"got {tok.value!r}", expected=("'fof'", "'cnf'", "'include'"))
        return items

    def parse_include(self):
        self.expect("include")
        self.expect("(")
        tok = self.peek()
        if tok.kind != "quoted":
            self.error("include path must be quoted", expected=("quoted atom",))
        path = _unquote(self.next().value)
        names = None
        if self.at(","):
            self.next()
            self.expect("[")
            names = []
            while not self.at("]"):
                names.append(self.parse_name())
                if self.at(","):
                    self.next()
            self.expect("]")
        self.expect(")")
        self.expect(".")
        return ("include", path, names)

    def parse_name(self) -> str:
        tok = self.peek()
        if tok.kind in ("lower", "number"):
            return self.next().value
        if tok.kind == "quoted":
            return _unquote(self.next().value)
        self.error("expected a unit name", expected=("lower word", "quoted atom"))

    def parse_unit(self) -> AnnotatedFormula:
        lang = self.next().value
        self.expect("(")
        name = self.parse_name()
        self.expect(",")
        role_tok = self.peek()
        if role_tok.kind != "lower" or role_tok.value not in ROLES:
            self.error(
                f"unknown role {role_tok.value!r}",
                expected=tuple(sorted(ROLES)),
            )
        role = self.next().value
        self.expect(",")
        if lang == "fof":
            formula = self.parse_fof_formula()
        else:
            formula = self.parse_cnf_formula()
        source = None
        if self.at(","):
            self.next()
            source = self.parse_source()
            if self.at(","):  # optional useful_info, discarded
                self.next()
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
        tok = self.peek()
        if tok.value in ("&", "|"):
            op = tok.value
            parts = [left]
            while self.at(op):
                self.next()
                parts.append(self.parse_unitary())
            if self.peek().value in ("&", "|") or self.peek().value in self._NONASSOC:
                self.error("binary connectives cannot be mixed without parentheses")
            return fol.join(fol.And if op == "&" else fol.Or, parts)
        if tok.value in self._NONASSOC:
            build = self._NONASSOC[self.next().value]
            right = self.parse_unitary()
            nxt = self.peek()
            if nxt.value in ("&", "|") or nxt.value in self._NONASSOC:
                self.error("binary connectives are non-associative; add parentheses")
            return build(left, right)
        return left

    def parse_unitary(self) -> "fol.Formula":
        tok = self.peek()
        if tok.value in ("!", "?"):
            quant = self.next().value
            self.expect("[")
            names = []
            while True:
                v = self.peek()
                if v.kind != "upper":
                    self.error("expected a variable", expected=("upper word",))
                names.append(self.descend().value)
                if self.at(","):
                    self.next()
                else:
                    break
            self.expect("]")
            self.expect(":")
            body = self.parse_unitary()
            self.depth -= len(names)
            node = fol.Forall if quant == "!" else fol.Exists
            for v in reversed(names):
                body = node(v, body)
            return body
        if tok.value == "~":
            self.descend()
            body = self.parse_unitary()
            self.depth -= 1
            return fol.Not(body)
        if tok.value == "(":
            self.descend()
            inner = self.parse_fof_formula()
            self.expect(")")
            self.depth -= 1
            return inner
        return self.parse_atomic()

    def parse_atomic(self) -> "fol.Formula":
        tok = self.peek()
        if tok.kind == "dollar":
            self.next()
            if tok.value == "$true":
                return fol.TRUE
            if tok.value == "$false":
                return fol.FALSE
            self.error(f"unsupported defined symbol {tok.value!r}")
        term = self.parse_term()
        nxt = self.peek()
        if nxt.value == "=":
            self.next()
            return fol.Eq(term, self.parse_term())
        if nxt.value == "!=":
            self.next()
            return fol.Not(fol.Eq(term, self.parse_term()))
        if isinstance(term, fol.Var):
            self.error("a bare variable is not a formula")
        return fol.Atom(term.name, term.args)

    def parse_term(self) -> "fol.Term":
        tok = self.peek()
        if tok.kind == "upper":
            return fol.Var(self.next().value)
        if tok.kind in ("lower", "quoted", "number"):
            name = self.next().value
            if tok.kind == "quoted":
                name = _unquote(name)
            args = ()
            if self.at("("):
                self.descend()
                got = [self.parse_term()]
                while self.at(","):
                    self.next()
                    got.append(self.parse_term())
                self.expect(")")
                self.depth -= 1
                args = tuple(got)
            return fol.App(name, args)
        self.error("expected a term", expected=("variable", "functor"))

    # -- cnf formulas -------------------------------------------------------

    def parse_cnf_formula(self) -> "fol.Formula":
        if self.at("("):
            self.next()
            inner = self._parse_disjunction()
            self.expect(")")
            return inner
        return self._parse_disjunction()

    def _parse_disjunction(self) -> "fol.Formula":
        parts = [self._parse_cnf_literal()]
        while self.at("|"):
            self.next()
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
        term = self.parse_annotation_term()
        source = _interpret_source(term)
        if isinstance(source, UnknownSource):
            warnings.warn(
                f"unrecognized source annotation {term!r}; treating as unknown",
                TptpWarning,
                stacklevel=4,
            )
        return source

    def parse_annotation_term(self):
        """Parse a general annotation term into nested python structures."""
        tok = self.peek()
        if tok.value == "[":
            self.descend()
            items = []
            while not self.at("]"):
                items.append(self.parse_annotation_term())
                if self.at(","):
                    self.next()
            self.expect("]")
            self.depth -= 1
            return items
        if tok.kind in ("lower", "quoted", "dollar", "number", "upper"):
            name = self.next().value
            if tok.kind == "quoted":
                name = _unquote(name)
            if self.at("("):
                self.descend()
                args = []
                while not self.at(")"):
                    args.append(self.parse_annotation_term())
                    if self.at(","):
                        self.next()
                self.expect(")")
                self.depth -= 1
                out = (name, args)
            else:
                out = name
            if self.at(":"):  # parent annotation, e.g. name : [bind(...)]
                self.descend()
                out = (":", [out, self.parse_annotation_term()])
                self.depth -= 1
            return out
        self.error("expected an annotation term")


def _interpret_source(term):
    if isinstance(term, str):
        if term == "unknown":
            return UnknownSource("unknown")
        return UnknownSource(repr(term))
    if isinstance(term, tuple):
        head, args = term
        if head == "file":
            if len(args) >= 2 and isinstance(args[1], str):
                path = args[0] if isinstance(args[0], str) else "unknown"
                return FileSource(args[1], path)
            if args and isinstance(args[0], str):
                return FileSource(args[0], args[0])
            return UnknownSource(repr(term))
        if head == "inference":
            return _interpret_inference(term)
    return UnknownSource(repr(term))


def _leaf_parents(items):
    names = []
    for item in items:
        if isinstance(item, str):
            names.append(item)
        elif isinstance(item, tuple):
            head, args = item
            if head == "inference" and len(args) == 3:
                names.extend(_leaf_parents(args[2]))
            elif head == ":" and args:
                names.extend(_leaf_parents(args[:1]))
            elif head == "file" and len(args) >= 2 and isinstance(args[1], str):
                names.append(args[1])
            # theory(equality) and similar non-name parents are dropped
        elif isinstance(item, list):
            names.extend(_leaf_parents(item))
    return names


def _interpret_inference(term):
    head, args = term
    if len(args) != 3 or not isinstance(args[0], str) or not isinstance(args[2], list):
        return UnknownSource(repr(term))
    rule = args[0]
    status = None
    bindings = []
    info = args[1] if isinstance(args[1], list) else [args[1]]
    for item in info:
        if isinstance(item, tuple):
            ihead, iargs = item
            if ihead == "status" and iargs and isinstance(iargs[0], str):
                status = iargs[0]
    for item in _collect_binds([info, args[2]]):
        bound = _interpret_binding(item[1])
        if bound is not None:
            bindings.append(bound)
        else:
            warnings.warn(
                f"malformed bind annotation {item!r}; ignoring",
                TptpWarning,
                stacklevel=5,
            )
    parents = tuple(_leaf_parents(args[2]))
    return InferenceRecord(rule, parents, status, tuple(bindings))


def _collect_binds(obj):
    found = []
    if isinstance(obj, list):
        for item in obj:
            found.extend(_collect_binds(item))
    elif isinstance(obj, tuple):
        head, args = obj
        if head == "bind" and len(args) == 2:
            found.append(obj)
        else:
            found.extend(_collect_binds(list(args)))
    return found


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
    if isinstance(value, tuple):
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

    def parse(text, base_dir, including):
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
            sub = parse(_read_file(resolved), os.path.dirname(resolved),
                        including + (real,))
            if names is not None:
                wanted = set(names)
                sub = [u for u in sub if u.name in wanted]
            units.extend(sub)
        return units

    return parse(text, base_dir, ())


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
        names, body = fol.strip_prefix(f, type(f))
        return f"{mark} [{','.join(names)}] : {format_formula(body)}"
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
