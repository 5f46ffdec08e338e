"""Benchmark for the tptp2miz translator.

    python3 bench/run.py --workload refute-compress --seed 1 --seconds 10 --trace 0

Run from the repository root.  The run generates the workload's corpus
from the seed, measures set-up time, translates the corpus in a fresh
worker process (see worker.py), checks every output with the independent
checker in mizcheck.py, and prints one JSON object as its last line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics from a traced run, and the
spans are written to .bench_out/.  Workloads and metrics are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import mizcheck  # noqa: E402
import worker  # noqa: E402

SETUP_SAMPLES = 30
WORKER_TIMEOUT_S = 150
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "start = time.perf_counter()\n"
    "import tptp2miz.cli\n"
    "print(time.perf_counter() - start)\n"
)
COMPRESSION_LINE = re.compile(r"compression: (\d+) -> (\d+) steps")


def jobs_for(workload, corpus_dir, facts):
    jobs = []
    for name in facts:
        path = os.path.join(corpus_dir, name)
        if workload == "problem-parse":
            job = {"mode": "problem", "args": ["--axiom-dir", os.path.join(corpus_dir, "axioms")]}
        elif workload == "refute-expand":
            job = {"mode": "derivation", "args": ["--no-compress"]}
        else:
            job = {"mode": "derivation", "args": []}
        jobs.append(dict(job, input=path, name=name))
    return jobs


def setup_samples(root, count):
    """Times to import the translator, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=root,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return samples


def run_worker(spec, work):
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                   cwd=spec["root"], timeout=WORKER_TIMEOUT_S, check=True)
    with open(os.path.join(spec["out"], "result.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def check_outputs(workload, jobs, facts, result, out):
    """(problems found, failed operations, checker totals over pass 0).

    Pass 0 is checked in full; later passes must match it byte for byte."""
    problems, failed = [], 0
    totals = mizcheck.Report()
    for file_id, job in enumerate(jobs):
        name, stem = job["name"], os.path.splitext(job["name"])[0]
        expected = facts[name].get("expected_failure")
        outcomes = [p["files"][file_id]["outcome"] for p in result["passes"]]
        if expected is not None and all(o == expected for o in outcomes):
            failed += len(outcomes)
            continue
        bad = [o for o in outcomes if o != 0]
        if bad:
            failed += len(bad)
            problems.append(f"{name}: failed with {bad[0]}")
            continue
        first = [_read(os.path.join(out, "pass0", stem + ext)) for ext in (".miz", ".env")]
        for index in range(1, len(result["passes"])):
            again = [_read(os.path.join(out, f"pass{index}", stem + ext))
                     for ext in (".miz", ".env")]
            if again != first:
                problems.append(f"{name}: pass {index} output differs from pass 0")
        report = mizcheck.check_article(first[0].decode(), first[1].decode(), facts[name])
        problems.extend(f"{name}: {p}" for p in report.problems)
        totals.add(report)
        if workload == "refute-compress":
            problems.extend(_compression_problems(name, result, file_id))
        elif "compression:" in result["passes"][0]["files"][file_id]["stderr"]:
            problems.append(f"{name}: compressed although compression is off")
    return problems, failed, totals


def _compression_problems(name, result, file_id):
    problems = []
    for p in result["passes"]:
        m = COMPRESSION_LINE.search(p["files"][file_id]["stderr"])
        if m is None:
            return [f"{name}: no compression report"]
        before, after = int(m.group(1)), int(m.group(2))
        if after > before:
            problems.append(f"{name}: compression grew the article")
    again = result["recompressed"].get(str(file_id))
    if again is None or again["removed"]:
        problems.append(f"{name}: a second compression removed steps")
    return problems


def end_to_end(result, jobs, facts, items, setup_s):
    """The end-to-end metrics of an untraced run.

    The machine's speed changes by as much as a third over minutes, as
    other loads on the host come and go.  So each file's time is scaled to a fixed
    speed: divided by the time of the reference computation run beside it
    (see worker.py) and multiplied by that computation's time at the fixed
    speed.  A file's figure is its median over the passes."""
    ok = [i for i, job in enumerate(jobs) if "expected_failure" not in facts[job["name"]]]
    passes = result["passes"]
    scaled = [statistics.median(p["files"][i]["seconds"] * worker.REFERENCE_SECONDS
                                / p["files"][i]["reference"] for p in passes) for i in ok]
    wall = [statistics.median(p["files"][i]["seconds"] for p in passes) for i in ok]
    reference = statistics.median(p["files"][i]["reference"] for p in passes for i in ok)
    units = sum(facts[jobs[i]["name"]]["units"] for i in ok)
    print(f"file_s.p50 over {len(scaled)} files, each the median of {len(passes)} passes; "
          f"unscaled: {statistics.median(wall):.4f} s, {units / sum(wall):.1f} units/s; "
          f"reference computation: {reference * 1000:.2f} ms median", file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "file_s.p50": (statistics.median(scaled), "s"),
        "units_per_s": (units / sum(scaled), "units/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "article_items": (items, "count"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark for the tptp2miz translator.")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tptp2miz", "cli.py")):
        print("error: run from the repository root (src/tptp2miz not found)", file=sys.stderr)
        return 2
    sys.setrecursionlimit(20_000)  # the checker recurses over formula and proof depth
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        corpus_dir = os.path.join(work, "corpus")
        facts = corpus.generate(args.workload, args.seed, corpus_dir)
        jobs = jobs_for(args.workload, corpus_dir, facts)
        input_kb = sum(os.path.getsize(os.path.join(d, f))
                       for d, _, fs in os.walk(corpus_dir) for f in fs) / 1024
        spans_dir = os.path.join(root, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        out = os.path.join(work, "out")
        spec = {"root": root, "jobs": jobs, "out": out, "seconds": args.seconds,
                "trace": bool(args.trace), "input_kb": input_kb,
                "spans_path": os.path.join(spans_dir,
                                           f"{args.workload}-seed{args.seed}.spans.jsonl")}
        # Half the set-up samples are taken before the worker and half after,
        # so that they come from two stretches of the run.  The fastest
        # counts: it is the one least slowed by other loads on the host.
        setup = [] if args.trace else setup_samples(root, SETUP_SAMPLES // 2)
        result = run_worker(spec, work)
        problems, failed, totals = check_outputs(args.workload, jobs, facts, result, out)
        passes = len(result["passes"])
        attempted = passes * len(jobs)
        pass_seconds = ", ".join(f"{p['seconds']:.2f}" for p in result["passes"])
        print(f"{args.workload} seed {args.seed}: {passes} passes of {len(jobs)} files "
              f"({pass_seconds} s); "
              f"checker: {totals.steps_checked} steps checked in finite models, "
              f"{totals.steps_trivial} restate a premise, {totals.steps_skipped} skipped "
              f"over the caps, {totals.citations} citations", file=sys.stderr)
        for problem in problems[:20]:
            print("problem: " + problem, file=sys.stderr)
        if args.trace:
            metrics = result["layers"]
        else:
            setup_s = min(setup + setup_samples(root, SETUP_SAMPLES // 2))
            metrics = end_to_end(result, jobs, facts, totals.items, setup_s)
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
