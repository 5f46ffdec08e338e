"""The translator's outputs on the benchmark's seed-1 corpora are pinned.

Each workload's seed-1 corpus is generated by bench/corpus.py into a
temporary directory, and every file is run through cli.main with the
arguments bench/run.py's jobs_for gives it.  Per file, the sha256 of the
.miz and .env outputs, the exit code and stderr must match
fixtures/corpus-digests.txt, so a change that should leave the outputs
byte-identical is checked to.

bench/ is read, never changed: run.py is loaded from its file, as
test_bench_boundaries.py loads spans.py.  A change to bench/corpus.py
changes the corpora, so a benchmark change that edits it regenerates the
fixture:

    PYTHONPATH=src python tests/test_corpus_digests.py > tests/fixtures/corpus-digests.txt

`--seed N` prints the digests of seed N instead, to compare the outputs
of two versions of the translator on other corpora; the fixture stays
seed 1's.

fixtures/expand-compressed-digests.txt pins the seed-1 refute-expand
corpus run with compression on (its jobs' args without --no-compress):
the files where the most steps keep a sub-proof through compression.
`--compressed` prints it:

    PYTHONPATH=src python tests/test_corpus_digests.py --compressed > tests/fixtures/expand-compressed-digests.txt
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys

from tptp2miz import cli

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, os.pardir, "bench", "run.py")
DIGESTS = os.path.join(HERE, "fixtures", "corpus-digests.txt")
COMPRESSED_DIGESTS = os.path.join(HERE, "fixtures", "expand-compressed-digests.txt")
SEED = 1


def _bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _digest(path):
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def corpus_digests(root, seed=SEED, compressed=False):
    """One line per corpus file of the seed: workload, file, exit code,
    .miz and .env digests, and stderr with the corpus directory written as
    DIR.  With `compressed`, the refute-expand files alone, with
    compression on."""
    run = _bench_run()
    lines = []
    for workload in ["refute-expand"] if compressed else run.corpus.WORKLOADS:
        corpus_dir = os.path.join(root, workload)
        facts = run.corpus.generate(workload, seed, corpus_dir)
        out = os.path.join(root, "out", workload)
        for job in run.jobs_for(workload, corpus_dir, facts):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                args = [a for a in job["args"] if not (compressed and a == "--no-compress")]
                code = cli.main([job["mode"], job["input"], "-o", out] + args)
            stem = job["name"].rsplit(".", 1)[0]
            stderr = err.getvalue().replace(corpus_dir, "DIR")
            lines.append(" ".join([
                workload, job["name"], str(code),
                _digest(os.path.join(out, stem + ".miz")),
                _digest(os.path.join(out, stem + ".env")),
                repr(stderr),
            ]))
    return lines


def test_outputs_match_the_pinned_digests(tmp_path):
    with open(DIGESTS, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert corpus_digests(str(tmp_path)) == expected


def test_compressed_expand_outputs_match_the_pinned_digests(tmp_path):
    with open(COMPRESSED_DIGESTS, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert corpus_digests(str(tmp_path), compressed=True) == expected


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Print the corpus digests of one seed.")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--compressed", action="store_true",
                        help="the refute-expand files alone, with compression on")
    options = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        print("\n".join(corpus_digests(scratch, options.seed, options.compressed)))
