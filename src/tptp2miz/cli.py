"""Command line front end.

Modes:
  problem       flat article from a TPTP problem file
  derivation    article with a refutation proof from a TSTP derivation
  check-obvious verdict for a single inference (last unit is the conclusion)
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings

from . import article, compress, derivation, obvious, tptp
from .errors import IoError, TranslationError


def _at_least(low):
    """An argparse type: an integer no smaller than low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tptp2miz",
        description="Translate TPTP problems and TSTP derivations into "
        "self-contained Mizar-style articles.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("input", help="input file")
        p.add_argument("-o", "--output-dir", default=".", help="output directory")
        p.add_argument(
            "--axiom-dir",
            action="append",
            default=[],
            help="extra directory searched for include() files",
        )
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("problem", help="translate a TPTP problem file")
    common(p)

    p = sub.add_parser("derivation", help="translate a TSTP derivation")
    common(p)
    p.add_argument("--no-compress", action="store_true", help="keep every derivation step")
    p.add_argument("--keep-unused", action="store_true",
                   help="keep steps that do not contribute to the contradiction")
    p.add_argument("--budget", type=_at_least(1), default=obvious.DEFAULT_BUDGET,
                   help="search budget for the inference checker")
    p.add_argument("--conjecture", default=None, metavar="NAME",
                   help="treat the named unit as the refuted assumption")
    p.add_argument("--max-passes", type=_at_least(0), default=None,
                   help="limit the number of compression passes")

    p = sub.add_parser(
        "check-obvious",
        help="check one inference: all units but the last are premises",
    )
    p.add_argument("input", help="input file")
    p.add_argument("--budget", type=_at_least(1), default=obvious.DEFAULT_BUDGET)
    p.add_argument("--axiom-dir", action="append", default=[])
    p.add_argument("--verbose", action="store_true",
                   help="print why the verdict was reached, or the instance "
                   "chosen for each premise")
    return parser


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _stem(path):
    base = os.path.basename(path)
    dot = base.rfind(".")
    return base[:dot] if dot > 0 else base


def _emit(args, model, manifest):
    try:
        os.makedirs(args.output_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    stem = _stem(args.input)
    miz = os.path.join(args.output_dir, stem + ".miz")
    env = os.path.join(args.output_dir, stem + ".env")
    _write(miz, article.render_article(model))
    _write(env, article.render_manifest(manifest))
    if args.verbose:
        print(f"wrote {miz}", file=sys.stderr)
        print(f"wrote {env}", file=sys.stderr)


def _run_problem(args):
    units = tptp.parse_problem_file(args.input, include_dirs=args.axiom_dir)
    model, manifest = article.translate_problem(units)
    _emit(args, model, manifest)
    return 0


def _run_derivation(args):
    units = tptp.parse_derivation_file(args.input, include_dirs=args.axiom_dir)
    graph = derivation.build_graph(units)
    # Compression asks again about the formulas that justification cited,
    # so one memo serves both; without it, no later query cites a justify
    # query's premises, and each query's memo is emptied when it returns.
    with contextlib.nullcontext() if args.no_compress else obvious.PremiseMemo() as memo:
        model, manifest = article.build_article(
            graph, keep_unused=args.keep_unused, budget=args.budget,
            conjecture=args.conjecture, memo=memo)
        if not args.no_compress:
            model, report = compress.compress(
                model, manifest, budget=args.budget, max_passes=args.max_passes, memo=memo)
    article.finish_article(model, manifest)
    if not args.no_compress:
        print(report.summary(), file=sys.stderr)
        if args.verbose:
            print(report.checks(), file=sys.stderr)
            print(report.justifications(), file=sys.stderr)
    _emit(args, model, manifest)
    return 0


def _run_check(args):
    units = tptp.parse_problem_file(args.input, include_dirs=args.axiom_dir)
    if not units:
        raise IoError("no units in input")
    premises = [u.formula for u in units[:-1]]
    conclusion = units[-1].formula
    budget = obvious.Budget(args.budget)
    verdict = obvious.is_obvious(premises, conclusion, budget=budget)
    print(verdict.kind.value)
    if args.verbose:
        print(f"reason: {verdict.reason}")
        # a spend past the limit counts its unit before it raises
        print(f"budget: {min(budget.used, budget.limit)} of {budget.limit}")
        for index, chosen in enumerate(verdict.selection, 1):
            instance = ", ".join(f"{var}: {term!r}" for var, term in chosen.items())
            print(f"{index} {{{instance}}}" if chosen else f"{index} -")
    if verdict.is_obvious:
        return 0
    if verdict.kind is obvious.Verdict.NOT_OBVIOUS:
        return 1
    return 3


def main(argv=None):
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a warning is one line, without the place in the package that
        # raised it, and each one is shown, however often its line raises
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print("warning:", message, file=sys.stderr)
        try:
            if args.mode == "problem":
                return _run_problem(args)
            if args.mode == "derivation":
                return _run_derivation(args)
            return _run_check(args)
        except TranslationError as exc:
            print(f"error: {exc.kind}: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
