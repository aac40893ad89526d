"""Determinism and cache tests for the parallel corpus runner.

The contract under test (ISSUE 1 acceptance criteria): a ``--jobs 4`` run
produces byte-identical output to a serial run, a warm-cache re-run
analyzes zero apps, and any :class:`AnalysisConfig` change invalidates
the cache.
"""

import json

import pytest

from repro.core import AnalysisConfig
from repro.corpus import app
from repro.harness import (
    render_figure5,
    render_table1,
    render_table2,
    render_table3,
    run_figure5,
    run_table1,
    run_table2,
    run_table3,
    run_timing,
)
from repro.runner import (
    cache_key,
    CACHE_SCHEMA,
    CorpusRunner,
    ResultCache,
    ResultData,
    row_to_dict,
    TASK_KINDS,
)

SUBSET = ["todolist", "clipstack", "photoaffix", "dashclock",
          "connectbot", "swiftnotes"]


@pytest.fixture()
def specs():
    return [app(name) for name in SUBSET]


def canonical_rows(rows):
    """Rows as canonical JSON; they carry no wall-clock field (stage
    seconds live in the metrics snapshots), so they must match byte for
    byte."""
    return json.dumps([row_to_dict(row) for row in rows], sort_keys=True)


# -- determinism --------------------------------------------------------------


def test_parallel_rows_byte_identical_to_serial(specs):
    serial = run_table1(validate=False, apps=specs)
    parallel = run_table1(
        validate=False, apps=specs, runner=CorpusRunner(jobs=4)
    )
    assert render_table1(serial) == render_table1(parallel)
    assert canonical_rows(serial) == canonical_rows(parallel)


def test_parallel_figure5_matches_serial(specs):
    serial = run_figure5(apps=specs)
    parallel = run_figure5(apps=specs, runner=CorpusRunner(jobs=4))
    assert render_figure5(serial) == render_figure5(parallel)


def test_parallel_table2_matches_serial():
    serial = run_table2()
    parallel = run_table2(runner=CorpusRunner(jobs=4))
    assert render_table2(serial) == render_table2(parallel)


def test_parallel_table3_matches_serial():
    serial = run_table3()
    parallel = run_table3(runner=CorpusRunner(jobs=4))
    assert serial.rows == parallel.rows
    assert serial.deva_missed == parallel.deva_missed
    assert render_table3(serial) == render_table3(parallel)


def test_parallel_timing_matches_serial(specs):
    serial = run_timing(apps=specs)
    parallel = run_timing(apps=specs, runner=CorpusRunner(jobs=4))
    assert list(serial.per_app) == list(parallel.per_app) == SUBSET
    for name in SUBSET:
        assert sorted(serial.per_app[name]) \
            == sorted(parallel.per_app[name])
    assert serial.analyzed == parallel.analyzed == len(SUBSET)


def test_timing_reads_the_run_snapshot(specs, tmp_path):
    """``TimingData``'s wall-clock and app counts are the run
    snapshot's, and ``timing`` reuses ``corpus``'s cache entries."""
    runner = CorpusRunner(cache=ResultCache(tmp_path))
    run_table1(validate=False, apps=specs[:2], runner=runner)
    data = run_timing(apps=specs, runner=runner)
    run = runner.last_metrics.run
    assert data.wall_seconds == run.gauges["runner.wall_seconds"]
    assert data.analyzed == run.counters["runner.apps.analyzed"] \
        == len(specs) - 2
    assert data.cached == run.counters["runner.apps.cached"] == 2
    assert data.jobs == run.gauges["runner.jobs"] == 1


# -- one execution path -------------------------------------------------------


def test_rows_without_a_runner_carry_result_data(specs):
    rows = run_table1(validate=False, apps=specs[:2])
    assert [row.name for row in rows] == SUBSET[:2]
    for row in rows:
        assert type(row.result) is ResultData
        assert row.counts == row.result.counts()
        assert row.pair_types == row.result.by_pair_type()


def test_task_kinds_are_the_distinct_worker_computations():
    assert TASK_KINDS == ("analyze", "figure5", "generated", "table1",
                          "table2", "table3")


# -- cache --------------------------------------------------------------------


def test_warm_cache_performs_zero_reanalyses(specs, tmp_path):
    cold = CorpusRunner(jobs=2, cache=ResultCache(tmp_path))
    rows_cold = run_table1(validate=False, apps=specs, runner=cold)
    assert cold.last_metrics.run.counters["runner.apps.analyzed"] == len(specs)
    assert cold.last_metrics.run.counters["runner.apps.cached"] == 0

    warm = CorpusRunner(jobs=2, cache=ResultCache(tmp_path))
    rows_warm = run_table1(validate=False, apps=specs, runner=warm)
    assert warm.last_metrics.run.counters["runner.apps.analyzed"] == 0
    assert warm.last_metrics.run.counters["runner.apps.cached"] == len(specs)
    # cached payloads round-trip exactly
    assert json.dumps([row_to_dict(r) for r in rows_cold], sort_keys=True) \
        == json.dumps([row_to_dict(r) for r in rows_warm], sort_keys=True)


def test_cache_invalidates_when_config_k_changes(specs, tmp_path):
    runner = CorpusRunner(cache=ResultCache(tmp_path))
    run_table1(validate=False, apps=specs, runner=runner)
    assert runner.last_metrics.run.counters["runner.apps.analyzed"] \
        == len(specs)

    run_table1(validate=False, apps=specs,
               config=AnalysisConfig(k=3), runner=runner)
    assert runner.last_metrics.run.counters["runner.apps.analyzed"] \
        == len(specs), \
        "changing AnalysisConfig.k must miss every cache entry"
    assert runner.last_metrics.run.counters["runner.apps.cached"] == 0

    # and the default-config entries are still warm
    run_table1(validate=False, apps=specs, runner=runner)
    assert runner.last_metrics.run.counters["runner.apps.analyzed"] == 0


def test_cache_invalidates_when_source_changes(tmp_path):
    spec = app("todolist")
    fingerprint = {"config": None}
    key_a = cache_key("table1", spec.source(), fingerprint)
    key_b = cache_key("table1", spec.source() + "\n// edited", fingerprint)
    assert key_a != key_b


def test_corrupt_cache_entry_is_a_miss(specs, tmp_path):
    runner = CorpusRunner(cache=ResultCache(tmp_path))
    run_table1(validate=False, apps=specs[:1], runner=runner)
    entries = list(tmp_path.rglob("*.json"))
    assert len(entries) == 1
    entries[0].write_text("{ not json")

    again = CorpusRunner(cache=ResultCache(tmp_path))
    rows = run_table1(validate=False, apps=specs[:1], runner=again)
    assert again.last_metrics.run.counters["runner.apps.analyzed"] == 1
    assert rows[0].name == specs[0].name


def test_stale_schema_cache_entry_is_a_miss(specs, tmp_path):
    """A schema-2 envelope (pre-witness payloads) must load as a miss and
    be overwritten, never deserialized into the witness-era model."""
    runner = CorpusRunner(cache=ResultCache(tmp_path))
    run_table1(validate=False, apps=specs[:1], runner=runner)
    entries = list(tmp_path.rglob("*.json"))
    assert len(entries) == 1
    payload = json.loads(entries[0].read_text())
    assert payload["schema"] == CACHE_SCHEMA
    payload["schema"] = 2
    entries[0].write_text(json.dumps(payload))

    again = CorpusRunner(cache=ResultCache(tmp_path))
    rows = run_table1(validate=False, apps=specs[:1], runner=again)
    assert again.last_metrics.run.counters["runner.apps.analyzed"] == 1, \
        "a stale-schema entry must not count as a hit"
    assert again.last_metrics.run.counters["runner.apps.cached"] == 0
    assert rows[0].name == specs[0].name
    # the entry was re-stamped with the current schema
    restamped = json.loads(entries[0].read_text())
    assert restamped["schema"] == CACHE_SCHEMA

    warm = CorpusRunner(cache=ResultCache(tmp_path))
    run_table1(validate=False, apps=specs[:1], runner=warm)
    assert warm.last_metrics.run.counters["runner.apps.cached"] == 1


def test_validation_params_participate_in_cache_key(specs, tmp_path):
    runner = CorpusRunner(cache=ResultCache(tmp_path))
    run_table1(validate=False, apps=specs[:2], runner=runner)
    run_table1(validate=True, apps=specs[:2], random_attempts=5,
               runner=runner)
    assert runner.last_metrics.run.counters["runner.apps.analyzed"] == 2, \
        "validate/random_attempts are part of the key"


def test_unknown_task_kind_rejected():
    with pytest.raises(ValueError, match="unknown task kind"):
        CorpusRunner().run("frobnicate", ["todolist"])
