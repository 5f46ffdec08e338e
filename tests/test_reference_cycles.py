"""The pipeline leaves no reference cycles behind: everything it builds is
freed by reference counting as soon as it is dropped, so the cyclic
collector has nothing to find.  cli.main is left out, since argparse's own
objects form cycles."""

import gc
import os

import pytest

from tptp2miz import article, compress, derivation, obvious, tptp

import helpers
from conftest import FIXTURES


def derivation_pipeline():
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    model, manifest = helpers.finished_article(derivation.build_graph(units))
    model, _ = helpers.compressed(model, manifest)
    return article.render_article(model) + article.render_manifest(manifest)


def deferred_pipeline():
    """Justification left to compression, as cli runs it."""
    units = tptp.parse_derivation_file(os.path.join(FIXTURES, "puz001+1.out"))
    graph = derivation.build_graph(units)
    with obvious.PremiseMemo() as memo:
        draft, manifest = article.build_article(graph, memo=memo)
        model, _ = compress.compress(draft, manifest, memo=memo)
    article.finish_article(draft, manifest)
    model.reservations = draft.reservations
    return article.render_article(model) + article.render_manifest(manifest)


def problem_pipeline():
    units = tptp.parse_problem_file(os.path.join(FIXTURES, "puz001+1.p"))
    model, manifest = article.translate_problem(units)
    return article.render_article(model) + article.render_manifest(manifest)


@pytest.mark.parametrize("pipeline", [derivation_pipeline, deferred_pipeline, problem_pipeline])
def test_no_cycles(pipeline):
    gc.collect()
    gc.disable()
    try:
        pipeline()
        assert gc.collect() == 0
    finally:
        gc.enable()
