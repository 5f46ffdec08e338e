"""Spans around the translator's layer boundaries, recorded from outside.

Tracer.install replaces the module attributes the pipeline calls through
with wrappers that record one span per call: name, start, end, parent span
and file id.  Spans stay in memory until the run ends.  layer_metrics turns
them into the per-layer metrics (self times, counts, checker verdicts by
caller) the benchmark reports.  wrapper_cost measures what one wrapper adds
to a call, from which the benchmark reports the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

# (module, attribute, span name); the pipeline calls each through its module.
BOUNDARIES = (
    ("tptp", "parse_derivation_file", "tptp.parse"),
    ("tptp", "parse_problem_file", "tptp.parse"),
    ("derivation", "build_graph", "derivation.build_graph"),
    ("article", "build_article", "article.build_article"),
    ("article", "translate_problem", "article.translate_problem"),
    ("article", "render_article", "article.render"),
    ("article", "render_manifest", "article.render"),
    ("skolem", "validate_single_skolem", "skolem.validate"),
    ("skolem", "make_henkin_axiom", "skolem.henkin"),
    ("expand", "build_subproof", "expand.build_subproof"),
    ("obvious", "is_obvious", "obvious.is_obvious"),
    ("compress", "compress", "compress.compress"),
)

# Which layer an is_obvious call serves, by its nearest enclosing span.
CALLERS = {
    "compress.compress": "compress",
    "expand.build_subproof": "expand",
    "article.build_article": "justify",
}


def _facts(name, result):
    """Counts read off a boundary's return value."""
    if name == "tptp.parse":
        return {"units": len(result)}
    if name == "expand.build_subproof":
        return {"instances": len(result.instances)}
    if name == "obvious.is_obvious":
        return {"verdict": result.kind.value}
    if name == "compress.compress":
        report = result[1]
        return {"passes": report.passes, "removed": len(report.removed_labels),
                "steps_before": report.steps_before, "steps_after": report.steps_after}
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, file id, facts]
        self.stack = []
        self.file = None
        self._saved = []

    def install(self, package):
        for module_name, attr, name in BOUNDARIES:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, original, name):
        spans, stack = self.spans, self.stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                    self.file, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
                span[5] = _facts(name, result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, file_id, facts in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "file": file_id,
                                         "facts": facts}) + "\n")


CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 9


def wrapper_cost():
    """Seconds one traced call takes beyond the call itself: the median over
    rounds of wrapped no-op calls minus as many bare ones, per call."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibration")
    costs = []
    for _ in range(CALIBRATION_ROUNDS):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        middle = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        bare = time.perf_counter() - middle
        costs.append((middle - start - bare) / CALIBRATION_CALLS)
    return statistics.median(costs)


def layer_metrics(spans, passes, input_kb):
    """Per-layer metrics per corpus pass from a list of spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time, count = {}, {}
    facts_sum = {}
    calls = {c: 0 for c in ("justify", "expand", "compress")}
    obvious_s = dict.fromkeys(calls, 0.0)
    obvious_yes = dict.fromkeys(calls, 0)
    verdicts = {"Obvious": 0, "NotObvious": 0, "Unknown": 0}
    for i, (name, start, end, parent, _, facts) in enumerate(spans):
        own = end - start - child_time[i]
        self_time[name] = self_time.get(name, 0.0) + own
        count[name] = count.get(name, 0) + 1
        for key, value in (facts or {}).items():
            if key != "verdict":
                facts_sum[(name, key)] = facts_sum.get((name, key), 0) + value
        if name == "obvious.is_obvious" and facts is not None:
            caller = _caller(spans, parent)
            calls[caller] += 1
            obvious_s[caller] += own
            verdicts[facts["verdict"]] += 1
            obvious_yes[caller] += facts["verdict"] == "Obvious"

    def s(name):
        return self_time.get(name, 0.0) / passes

    def n(name, key=None):
        total = count.get(name, 0) if key is None else facts_sum.get((name, key), 0)
        return total / passes

    parse_s = s("tptp.parse")
    metrics = {
        "tptp.parse_s": (parse_s, "s"),
        "tptp.units": (n("tptp.parse", "units"), "count"),
        "tptp.parse_kb_per_s": (input_kb / parse_s if parse_s else 0.0, "KB/s"),
        "derivation.build_graph_s": (s("derivation.build_graph"), "s"),
        "article.build_s": (s("article.build_article"), "s"),
        "article.translate_problem_s": (s("article.translate_problem"), "s"),
        "article.render_s": (s("article.render"), "s"),
        "skolem.s": (s("skolem.validate") + s("skolem.henkin"), "s"),
        "skolem.steps": (n("skolem.validate"), "count"),
        "expand.s": (s("expand.build_subproof"), "s"),
        "expand.subproofs": (n("expand.build_subproof"), "count"),
        "expand.instances": (n("expand.build_subproof", "instances"), "count"),
        "compress.s": (s("compress.compress"), "s"),
    }
    for key in ("passes", "removed", "steps_before", "steps_after"):
        metrics[f"compress.{key}"] = (n("compress.compress", key), "count")
    for caller in calls:
        metrics[f"obvious.calls.{caller}"] = (calls[caller] / passes, "count")
        metrics[f"obvious.s.{caller}"] = (obvious_s[caller] / passes, "s")
        ratio = obvious_yes[caller] / calls[caller] if calls[caller] else 0.0
        metrics[f"obvious.obvious_ratio.{caller}"] = (ratio, "ratio")
    for verdict, key in (("Obvious", "obvious"), ("NotObvious", "not_obvious"),
                         ("Unknown", "unknown")):
        metrics[f"obvious.verdict.{key}"] = (verdicts[verdict] / passes, "count")
    return metrics


def _caller(spans, parent):
    while parent is not None:
        caller = CALLERS.get(spans[parent][0])
        if caller is not None:
            return caller
        parent = spans[parent][3]
    return "justify"
