"""One workload's timed translations, in a fresh process.

    python3 bench/worker.py SPEC.json

SPEC.json (written by run.py) names the repository root, the input files
with the command-line arguments for each, the output directory, the run
length and whether to trace.  The worker imports the translator from the
repository's `src`, translates one file after another through
`tptp2miz.cli.main` (a closed loop with one client), repeats whole passes
over the file list until the run length is used up (at least MIN_PASSES,
so that passes can be compared byte for byte and each file is timed
several times) and writes its measurements to `<out>/result.json`.
Beside each file it times a fixed reference computation, from which
run.py scales the file's time to a fixed machine speed.

With tracing on, the first pass runs untraced, so the outputs that run.py
checks come from the unwrapped program, and the later passes record spans
(see spans.py) and must write the same bytes.  The tracing overhead is the
number of spans per pass times the measured cost of one wrapper.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

import mizcheck

MIN_PASSES = 3

# The reference computation: work of the translator's kind (parsing
# formulas, walking them, grounding and a DPLL search), taken from the
# benchmark's own checker, so that no change to the translator changes it.
REFERENCE_FORMULAS = (
    "![X,Y]: (p(X,Y) => (q(f(X)) | ~r(Y,g(X,Y))))",
    "?[Z]: ![W]: (s(Z,W) <=> (t(W) & u(h(Z),W)))",
    "(a & b) | (~c => (d <=> e))",
    "![X]: (p(X) => ?[Y]: (r(X,Y) & ~q(Y)))",
    "![X,Y,Z]: ((X = Y & Y = Z) => (f(X) = f(Z) | ~p(g(X,Y))))",
)
REFERENCE_ROUNDS = 20
REFERENCE_PREMISES = ("![X]: (p(X) => q(f(X)))", "p(a)", "![X]: (q(X) => r(X,b))")
REFERENCE_CONCLUSION = "r(f(a),b)"
# Its time, rounded, at the fastest speed seen on the 2-vCPU 2.1 GHz Xeon
# machine the benchmark was defined on.  Every file time is scaled to that
# speed (see run.py).
REFERENCE_SECONDS = 0.007


def _closed(text):
    return mizcheck.close(mizcheck.parse_tptp(text))


def reference_seconds():
    """Time of one reference computation: how fast the machine is now."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        for text in REFERENCE_FORMULAS:
            mizcheck.alpha_key(_closed(text))
    premises = [_closed(text) for text in REFERENCE_PREMISES]
    if not mizcheck.entails(premises, _closed(REFERENCE_CONCLUSION)):
        raise AssertionError("the reference entailment does not hold")
    return time.perf_counter() - start


def translate(cli, job, out_dir):
    """Run one file through cli.main; (seconds, reference seconds, exit code
    or exception name, stderr).

    Garbage left by the previous file is collected first, outside the
    timing, so each file starts from a heap like a fresh command's.  The
    reference computation runs just before and just after the file; the
    mean of its two times says how fast the machine was meanwhile.
    """
    argv = [job["mode"], job["input"], "-o", out_dir] + job["args"]
    err = io.StringIO()
    before = reference_seconds()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            outcome = cli.main(argv)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            outcome = type(exc).__name__
    seconds = time.perf_counter() - start
    reference = (before + reference_seconds()) / 2
    return seconds, reference, outcome, err.getvalue()


def main(spec_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import tptp2miz
    from tptp2miz import cli, compress  # cli imports every layer the tracer wraps

    import spans as tracing

    jobs, out = spec["jobs"], spec["out"]
    # warm-up: first-call costs (regex compilation, lazy imports) stay out of the timings
    translate(cli, jobs[0], os.path.join(out, "warmup"))

    captured = {}  # file id -> (compressed model, manifest, options) from pass 0
    current = None  # id of the file being translated
    original_compress = compress.compress

    def capturing(model, manifest, **kwargs):
        result = original_compress(model, manifest, **kwargs)
        captured[current] = (result[0], manifest, kwargs)
        return result

    tracer = None
    passes = []
    started = time.perf_counter()
    while True:
        index = len(passes)
        if index == 0:
            compress.compress = capturing
        elif index == 1:
            compress.compress = original_compress
            if spec["trace"]:
                tracer = tracing.Tracer()
                tracer.install(tptp2miz)
        pass_dir = os.path.join(out, f"pass{index}")
        files = []
        pass_start = time.perf_counter()
        for file_id, job in enumerate(jobs):
            current = file_id
            if tracer is not None:
                tracer.file = f"{index}:{file_id}"
            seconds, reference, outcome, stderr = translate(cli, job, pass_dir)
            files.append({"seconds": seconds, "reference": reference, "outcome": outcome,
                          "stderr": stderr})
        passes.append({"seconds": time.perf_counter() - pass_start, "files": files,
                       "traced": tracer is not None})
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + passes[-1]["seconds"] > spec["seconds"]:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spec["spans_path"])
        traced = sum(1 for p in passes if p["traced"])
        layers = tracing.layer_metrics(tracer.spans, traced, spec["input_kb"])
        layers["trace.overhead_s"] = (len(tracer.spans) / traced * tracing.wrapper_cost(), "s")

    # A second compression of each compressed article must remove nothing.
    recompressed = {}
    for file_id, (model, manifest, kwargs) in captured.items():
        _, report = original_compress(model, manifest, **kwargs)
        recompressed[file_id] = {"removed": len(report.removed_labels),
                                 "steps_before": report.steps_before,
                                 "steps_after": report.steps_after}

    result = {"passes": passes, "peak_rss_kb": peak_rss_kb, "layers": layers,
              "recompressed": recompressed}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
