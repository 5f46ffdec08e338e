"""Every module-level name in the package has a caller in the package,
apart from a few kept on purpose.  A name counts as called when it is read,
imported or taken as an attribute anywhere in `src/tptp2miz/` outside its
own definition."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tptp2miz")

# Library entry points with no caller in the package yet.
KEPT = {
    "tptp.serialize",  # writes units back as TPTP text
    "article.parse_manifest",  # reads an .env file back
    "fol.alpha_equivalent",
}


def _defined(statement):
    """The names a module-level statement binds, dunders aside."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def _used(node):
    """The names a syntax tree reads, imports or takes as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced_names():
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            trees[os.path.basename(path)[:-3]] = ast.parse(handle.read())
    # each statement's reads, so that a definition's reads of itself do not count
    reads = [(statement, set(_used(statement)))
             for tree in trees.values() for statement in tree.body]
    found = set()
    for module, tree in trees.items():
        for statement in tree.body:
            for name in _defined(statement):
                if not any(name in used for other, used in reads if other is not statement):
                    found.add(f"{module}.{name}")
    return found


def test_only_the_kept_names_are_unreferenced():
    assert unreferenced_names() == KEPT
