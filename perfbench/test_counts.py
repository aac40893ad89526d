"""The benchmark's own test: traced counts repeat, seeds change inputs.

    python3 -m pytest perfbench/test_counts.py

Two traced runs with the same seed must report identical layer counts
(a count that moves without a code change cannot back a claim), and a
different ``--seed`` must change the generated inputs.  Takes about two
minutes: it runs the traced run of every workload twice.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from common import bootstrap, HERE, ROOT

COUNTS = (
    "lang.tokens", "android.framework_classes", "lowering.ir_instructions",
    "ir.methods_verified", "threadify.threads", "race.potential",
    "filters.remaining", "report.bytes", "obs.metrics_lines",
)


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload",
                         ["paper-corpus", "generated-jobs2", "serve-mixed"])
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload, 7)
    assert all(first[name] > 0 for name in COUNTS), first
    assert traced_counts(workload, 7) == first


def test_seed_changes_inputs():
    bootstrap()
    from inputs import generated_apps, paper_apps, serve_stream

    def sources(apps):
        return [app.load() for app in apps]

    def stream(seed):
        requests = serve_stream(seed)
        return [(app.load(), repeat)
                for app, repeat in (next(requests) for _ in range(50))]

    assert sources(generated_apps(1)) == sources(generated_apps(1))
    assert sources(generated_apps(1)) != sources(generated_apps(2))
    assert stream(1) == stream(1) and stream(1) != stream(2)
    assert [a.name for a in paper_apps(1)] != [a.name for a in paper_apps(2)]
