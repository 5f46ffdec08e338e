"""Mutants of benchmark derivations keep the exit-code contract.

Small seed-1 files of the benchmark's refute-compress and refute-expand
corpora, generated by bench/corpus.py into a temporary directory (bench/
is only read), are mutated at random: a line dropped or swapped, a step
or variable name swapped, characters inserted or deleted, a rule renamed,
a role changed.  Each mutant is translated by cli.main with compression
and with --no-compress.  Every run must exit 0 or 2 with no traceback.
On 2, stderr ends in `error: <Kind>: ...`; on 0, the article written has
nothing for helpers.recheck to find wrong.
"""

import contextlib
import importlib.util
import io
import os
import random
import re
import warnings

import pytest

from tptp2miz import cli

import helpers

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, os.pardir, "bench", "corpus.py")
SEED = 1
MUTANTS = 100
FILES = {
    "refute-compress": ("puz001+1.out", "mid010.out", "mid020.out", "mix021.out"),
    "refute-expand": ("ng00.out",),
}
RULES = ("resolution", "spm", "rw", "split_conjunct", "assume_negation", "cn",
         "pm", "skolemize", "distribute", "apply_def")
ROLES = ("axiom", "plain", "conjecture", "negated_conjecture", "hypothesis", "lemma")
NOISE = "()[],.:|&~!?=' $Xa1_"
UNIT = re.compile(r"^(?:cnf|fof)\(([^,]*),\s*([a-z_]+)\s*,", re.M)
ERROR = re.compile(r"error: [A-Za-z]+: .*")


def _corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def originals(root):
    """The text of each chosen file of the seed-1 corpora."""
    corpus = _corpus()
    texts = []
    for workload, names in FILES.items():
        out = os.path.join(root, workload)
        corpus.generate(workload, SEED, out)
        for name in names:
            with open(os.path.join(out, name), encoding="utf-8") as handle:
                texts.append(handle.read())
    return texts


def _replace_one(rng, text, pattern, choices):
    """The text with one random match of the pattern replaced by another
    of the choices, or the text itself when there is none to pick."""
    matches = list(re.finditer(pattern, text))
    if not matches or len(set(choices)) < 2:
        return text
    m = rng.choice(matches)
    other = rng.choice([c for c in choices if c != m.group()] or [m.group()])
    return text[:m.start()] + other + text[m.end():]


def mutate(rng, text):
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(8)
    if kind == 0:  # drop a line
        del lines[rng.randrange(len(lines))]
        return "".join(lines)
    if kind == 1:  # swap two lines
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
        return "".join(lines)
    if kind == 2:  # a step name for another's
        names = sorted({m.group(1).strip() for m in UNIT.finditer(text)})
        return _replace_one(rng, text, r"\b(?:%s)\b" % "|".join(map(re.escape, names)), names)
    if kind == 3:  # a variable name for another's
        names = sorted(set(re.findall(r"\b[A-Z][A-Za-z0-9_]*\b", text)))
        return _replace_one(rng, text, r"\b[A-Z][A-Za-z0-9_]*\b", names)
    if kind == 4:  # insert characters
        at = rng.randrange(len(text) + 1)
        noise = "".join(rng.choice(NOISE) for _ in range(rng.randint(1, 3)))
        return text[:at] + noise + text[at:]
    if kind == 5:  # delete characters
        at = rng.randrange(len(text))
        return text[:at] + text[at + rng.randint(1, 3):]
    if kind == 6:  # rename a rule
        return _replace_one(rng, text, r"(?<=inference\()[a-z_]+", RULES)
    return _replace_one(rng, text, r"(?<=, )(?:%s)(?=,)" % "|".join(ROLES), ROLES)


def translate(path, out, options, monkeypatch):
    """cli.main on the file: its exit code, stderr, and the article and
    manifest it wrote, or None."""
    written = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, model, manifest: (
        written.append((model, manifest)), emit(args, model, manifest)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(["derivation", path, "-o", out, *options])
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{os.path.basename(path)} {options}: {exc!r}")
    return code, err.getvalue(), written[-1] if written else None


def test_mutants_keep_the_exit_code_contract(tmp_path, monkeypatch):
    rng = random.Random(SEED)
    texts = originals(str(tmp_path / "corpus"))
    codes = {0: 0, 2: 0}
    for number in range(MUTANTS):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = mutate(rng, text)
        path = tmp_path / f"m{number}.out"
        path.write_text(text, encoding="utf-8")
        for options in ((), ("--no-compress",)):
            code, err, written = translate(str(path), str(tmp_path / "out"), options,
                                           monkeypatch)
            where = f"mutant {number} {options}"
            assert code in (0, 2), where
            assert "Traceback" not in err, where
            codes[code] += 1
            if code == 2:
                assert ERROR.fullmatch(err.splitlines()[-1]), (where, err)
            else:
                assert helpers.recheck(*written) == [], where
    # the mutants reach both outcomes
    assert min(codes.values()) > 0.1 * 2 * MUTANTS
