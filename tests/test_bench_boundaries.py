"""The benchmark's tracer wraps these module attributes by name; a rename
in the package must fail here rather than silently drop a per-layer metric.
One traced run of a real derivation also checks the facts the tracer reads
off the wrapped calls' arguments and results."""

import contextlib
import importlib.util
import io
import os

import pytest

import tptp2miz
from tptp2miz import cli  # noqa: F401  (imports every layer module)

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
SPANS = os.path.join(BENCH, "spans.py")
CORPUS = os.path.join(BENCH, "corpus.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _boundaries():
    return _load("bench_spans", SPANS).BOUNDARIES


@pytest.mark.parametrize("module_name,attr", [b[:2] for b in _boundaries()])
def test_traced_entry_point_exists(module_name, attr):
    module = getattr(tptp2miz, module_name)
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("options", [("--no-compress",), ()])
def test_traced_run_reports_its_layers(tmp_path, monkeypatch, options):
    # seed 1's ng00.out needs sub-proofs, with compression or without
    _load("bench_corpus", CORPUS).generate("refute-expand", 1, str(tmp_path / "corpus"))
    written = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, model, manifest: (
        written.append(model), emit(args, model, manifest)))
    spans = _load("bench_spans", SPANS)
    tracer = spans.Tracer()
    tracer.install(tptp2miz)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["derivation", str(tmp_path / "corpus" / "ng00.out"),
                             "-o", str(tmp_path / "out"), *options])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = {key: value for key, (value, _)
               in spans.layer_metrics(tracer.spans, 1, 1.0).items()}
    (model,) = written
    subproofs = sum(item.subproof is not None for item in model.all_steps())
    assert subproofs > 0
    assert metrics["expand.subproofs"] == subproofs
    assert metrics["expand.instances"] > 0
    assert metrics["obvious.calls.justify"] > 0
    if options:
        assert metrics["compress.passes"] == 0
    else:
        assert metrics["compress.passes"] >= 1
