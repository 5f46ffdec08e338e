"""Exception hierarchy shared by the whole pipeline."""


class TranslationError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def kind(self):
        return type(self).__name__


class ArityConflict(TranslationError):
    def __init__(self, name, kind, arities):
        self.name = name
        self.symbol_kind = kind
        self.arities = tuple(sorted(arities))
        super().__init__(
            f"symbol {name!r} used as {kind} at arities {self.arities}"
        )


class KindConflict(TranslationError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"symbol {name!r} used both as function and predicate")


class TptpSyntaxError(TranslationError):
    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} at line {line}, column {column}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class NestingTooDeep(TptpSyntaxError):
    """Input nested past the parser's limit of tptp.MAX_NESTING levels,
    where a quantifier block of any width is one level."""


class UnsupportedLanguage(TranslationError):
    def __init__(self, language, line):
        self.language = language
        self.line = line
        super().__init__(f"unit language {language!r} not supported (line {line})")


class IncludeNotFound(TranslationError):
    def __init__(self, path, searched):
        self.path = path
        self.searched = tuple(searched)
        super().__init__(f"include {path!r} not found (searched {list(searched)})")


class IncludeCycle(TranslationError):
    def __init__(self, path, including):
        self.path = path
        self.including = tuple(including)
        super().__init__(
            f"include {path!r} is already being read (open includes {list(self.including)})"
        )


class MissingParent(TranslationError):
    def __init__(self, name, referenced_by):
        self.name = name
        self.referenced_by = referenced_by
        super().__init__(f"unit {referenced_by!r} cites unknown parent {name!r}")


class DuplicateName(TranslationError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"duplicate unit name {name!r}")


class CycleDetected(TranslationError):
    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("dependency cycle: " + " -> ".join(self.cycle))


class MultipleSkolemsUnsupported(TranslationError):
    def __init__(self, step_name, symbols):
        self.step_name = step_name
        self.symbols = tuple(symbols)
        names = ", ".join(s.name for s in self.symbols)
        super().__init__(
            f"step {step_name!r} introduces {len(self.symbols)} skolem functions "
            f"({names}); only single-skolem steps are supported"
        )


class MalformedSkolemStep(TranslationError):
    def __init__(self, step_name, parent_count):
        self.step_name = step_name
        self.parent_count = parent_count
        super().__init__(
            f"skolemization step {step_name!r} has {parent_count} parents, expected 1"
        )


class ExpansionFailed(TranslationError):
    def __init__(self, step_name):
        self.step_name = step_name
        super().__init__(
            f"no substitution instances found that make step {step_name!r} "
            "an acceptable inference (possible causes: non-ground equality "
            "reasoning, or more instances needed than searched)"
        )


class NoConjecture(TranslationError):
    def __init__(self):
        super().__init__(
            "derivation has no conjecture; pass --conjecture <name> to "
            "designate a unit as the refuted assumption"
        )


class MultipleConjectures(TranslationError):
    def __init__(self, name):
        self.name = name
        super().__init__(
            f"problem has a second conjecture {name!r}, and the article states only one theorem"
        )


class NoRefutation(TranslationError):
    def __init__(self):
        super().__init__(
            "derivation has no refutation: no $false step that cites a parent"
        )


class UnsupportedSymbol(TranslationError):
    def __init__(self, name):
        self.name = name
        super().__init__(
            f"symbol {name!r} cannot be written to the article: expected a "
            "lower-case word or a numeral that the article syntax does not use"
        )


class UnsupportedDefinition(TranslationError):
    def __init__(self, name):
        self.name = name
        super().__init__(
            f"unit {name!r} has an introduced(...) source: the article would "
            "state it as an axiom, and definitions are not supported"
        )


class IoError(TranslationError):
    pass
