"""Report bytes are invariant under --jobs and cache temperature.

The ISSUE 3 determinism criterion: the corpus report JSON is
byte-identical between a serial and a ``--jobs 4`` run, and between a
cold-cache and a warm-cache run -- cached envelopes replay their obs
counter snapshots, so even the embedded metrics cannot drift.
"""

import pytest

from repro.corpus import app
from repro.harness import run_table1
from repro.report import build_app_report, build_report, report_to_json
from repro.runner import CorpusRunner, ResultCache

SUBSET = ["todolist", "clipstack", "connectbot", "swiftnotes"]


@pytest.fixture()
def specs():
    return [app(name) for name in SUBSET]


def corpus_report(runner, specs):
    rows = run_table1(validate=False, apps=specs, runner=runner)
    per_app = runner.last_metrics.apps if runner.last_metrics else {}
    return build_report([
        build_app_report(row.app.name, row.result,
                         metrics=per_app.get(row.app.name))
        for row in rows
    ])


def test_report_bytes_identical_serial_vs_parallel(specs):
    serial = report_to_json(corpus_report(CorpusRunner(jobs=1), specs))
    parallel = report_to_json(corpus_report(CorpusRunner(jobs=4), specs))
    assert serial == parallel


def test_report_bytes_identical_cold_vs_warm_cache(specs, tmp_path):
    cold_runner = CorpusRunner(jobs=2, cache=ResultCache(tmp_path))
    cold = report_to_json(corpus_report(cold_runner, specs))
    assert cold_runner.last_metrics.run.counters["runner.apps.analyzed"] \
        == len(specs)

    warm_runner = CorpusRunner(jobs=2, cache=ResultCache(tmp_path))
    warm = report_to_json(corpus_report(warm_runner, specs))
    assert warm_runner.last_metrics.run.counters["runner.apps.cached"] \
        == len(specs)
    assert cold == warm


def test_report_metrics_replay_from_cache(specs, tmp_path):
    """Cached rows carry their obs snapshots, so per-app witness counters
    survive a round trip through the cache envelope."""
    runner = CorpusRunner(cache=ResultCache(tmp_path))
    corpus_report(runner, specs)
    warm = corpus_report(CorpusRunner(cache=ResultCache(tmp_path)), specs)
    connectbot = warm.apps["connectbot"]
    assert connectbot.metrics.get("report.witnesses.alias", 0) > 0
    assert connectbot.metrics.get("report.lineage.entries", 0) > 0
