"""bench/worker.py runs end to end on a few seed-1 refute-compress files.

The worker wraps `compress.compress` to capture each compressed article,
with the manifest and the options cli gave, and compresses it again once
its passes end.  So it relies on how cli calls compress (the model and the
manifest positional, the rest by keyword) and on the compressed model
being settled, and finished by cli, when compress returns.  The spec is
the one bench/run.py writes, with no run length and no tracing, so the
worker makes its minimum number of passes.  bench/ is read, never
changed.
"""

import json
import os
import subprocess
import sys

from test_corpus_digests import _bench_run

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
FILES = ("puz001+1.out", "mid010.out", "mix021.out")


def test_worker_translates_and_recompresses_to_a_fixed_point(tmp_path):
    run = _bench_run()
    corpus_dir = str(tmp_path / "corpus")
    facts = run.corpus.generate("refute-compress", 1, corpus_dir)
    jobs = run.jobs_for("refute-compress", corpus_dir, [name for name in facts if name in FILES])
    assert len(jobs) == len(FILES)
    out = str(tmp_path / "out")
    spec = {"root": os.path.abspath(ROOT), "jobs": jobs, "out": out, "seconds": 0,
            "trace": False, "input_kb": 0, "spans_path": str(tmp_path / "spans.json")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, os.path.join(ROOT, "bench", "worker.py"), str(spec_path)],
                   cwd=spec["root"], timeout=120, check=True)
    with open(os.path.join(out, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)

    assert len(result["passes"]) >= 3
    for done in result["passes"]:
        assert [f["outcome"] for f in done["files"]] == [0] * len(FILES)
    assert sorted(result["recompressed"]) == [str(i) for i in range(len(FILES))]
    for again in result["recompressed"].values():
        assert again["removed"] == 0 and again["steps_before"] == again["steps_after"]
