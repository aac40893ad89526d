"""Corrupt cache entries: quarantine on read, sweep via ``cache prune``."""

import json

from repro.runner import cache_key, CorpusRunner, ResultCache
from repro.runner.cache import CACHE_SCHEMA

APPS = ["todolist", "clipstack"]
PARAMS = {"validate": False, "random_attempts": 0}


def test_corrupt_entry_is_quarantined_and_misses(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key("table1", "source", {"config": None})
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text("{ this is not json")
    assert cache.lookup(key) is None
    assert cache.misses == 1
    assert cache.corrupt == 1
    assert not path.exists()
    quarantined = path.with_suffix(".json.corrupt")
    assert quarantined.exists()
    assert quarantined.read_text() == "{ this is not json"


def test_missing_entry_is_a_plain_miss_not_a_quarantine(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.lookup("0" * 64) is None
    assert cache.corrupt == 0


def test_stale_schema_misses_without_quarantine(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ab" + "0" * 62
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"schema": CACHE_SCHEMA - 1, "data": {}}))
    assert cache.lookup(key) is None
    assert cache.corrupt == 0
    assert path.exists()  # valid JSON, just old: left in place


def test_runner_recovers_from_a_corrupted_entry(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first = CorpusRunner(jobs=1, cache=cache)
    first.run("table1", APPS, PARAMS)

    # Truncate one entry (simulated torn write), corrupt-count the rerun.
    victim = sorted(cache.root.glob("*/*.json"))[0]
    victim.write_text(victim.read_text()[: 40])
    second = CorpusRunner(jobs=1, cache=cache)
    rows, metrics = second.run("table1", APPS, PARAMS)
    counters = metrics.run.counters
    assert counters["runner.cache.corrupt"] == 1
    assert counters["runner.cache.hits"] == 1
    # the corrupted app was re-analyzed
    assert counters["runner.apps.analyzed"] == 1
    assert all("error" not in row for row in rows)
    assert len(list(cache.root.glob("*/*.json.corrupt"))) == 1

    # ... and the re-analysis restored the entry.
    third = CorpusRunner(jobs=1, cache=cache)
    _, metrics = third.run("table1", APPS, PARAMS)
    assert metrics.run.counters["runner.cache.hits"] == len(APPS)


def test_prune_sweeps_quarantined_entries_only(tmp_path):
    cache = ResultCache(tmp_path)
    sub = tmp_path / "ab"
    sub.mkdir()
    (sub / "x.json").write_text("{}")
    (sub / "y.json.corrupt").write_text("garbage")
    (sub / "z.json.corrupt").write_text("garbage")
    assert cache.prune() == 2
    assert (sub / "x.json").exists()
    assert not list(tmp_path.glob("*/*.json.corrupt"))


def test_prune_all_sweeps_everything(tmp_path):
    cache = ResultCache(tmp_path)
    sub = tmp_path / "ab"
    sub.mkdir()
    (sub / "x.json").write_text("{}")
    (sub / "y.json.corrupt").write_text("garbage")
    assert cache.prune(everything=True) == 2
    assert not list(tmp_path.glob("*/*.json*"))
