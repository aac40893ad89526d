"""Differential suite for the generated corpus (the PR-5 idiom): the same
seed must produce byte-identical sources, score reports and analysis
counters across ``--jobs`` settings and across cold-vs-warm cache runs."""

import json

from repro.corpus import generate_corpus, GeneratorConfig
from repro.harness import run_generated
from repro.report import score_generated
from repro.runner import CorpusRunner, ResultCache
from repro.runner.serialize import result_data_to_dict

CONFIG = GeneratorConfig(seed=42, count=10)


def _canonical(apps, results):
    """Results as canonical JSON."""
    return json.dumps(
        {"apps": [a.source for a in apps],
         "results": [result_data_to_dict(result) for result in results]},
        sort_keys=True,
    )


def _counters(runner):
    return {
        name: dict(snapshot.counters)
        for name, snapshot in runner.last_metrics.apps.items()
    }


def test_serial_and_parallel_runs_are_byte_identical():
    serial = CorpusRunner(jobs=1)
    parallel = CorpusRunner(jobs=4)
    apps1, results1 = run_generated(serial, CONFIG)
    apps4, results4 = run_generated(parallel, CONFIG)
    assert _canonical(apps1, results1) == _canonical(apps4, results4)
    assert _counters(serial) == _counters(parallel)
    score1 = score_generated(apps1, results1)
    score4 = score_generated(apps4, results4)
    assert json.dumps(score1.to_dict(), sort_keys=True) == \
        json.dumps(score4.to_dict(), sort_keys=True)


def test_cold_and_warm_cache_runs_are_byte_identical(tmp_path):
    cold = CorpusRunner(jobs=2, cache=ResultCache(tmp_path))
    apps_cold, results_cold = run_generated(cold, CONFIG)
    assert cold.last_metrics.run.counters["runner.apps.analyzed"] \
        == CONFIG.count
    assert cold.last_metrics.run.counters["runner.apps.cached"] == 0

    warm = CorpusRunner(jobs=2, cache=ResultCache(tmp_path))
    apps_warm, results_warm = run_generated(warm, CONFIG)
    assert warm.last_metrics.run.counters["runner.apps.analyzed"] == 0
    assert warm.last_metrics.run.counters["runner.apps.cached"] == CONFIG.count

    assert _canonical(apps_cold, results_cold) == \
        _canonical(apps_warm, results_warm)
    # cache hits replay the counters recorded when the entry was built
    assert _counters(cold) == _counters(warm)


def test_generator_config_changes_invalidate_the_cache(tmp_path):
    runner = CorpusRunner(jobs=1, cache=ResultCache(tmp_path))
    run_generated(runner, CONFIG)
    assert runner.last_metrics.run.counters["runner.apps.analyzed"] \
        == CONFIG.count

    # same seed/count, different pattern knobs: sources differ, so every
    # app must miss the cache
    tweaked = GeneratorConfig(seed=42, count=10, max_patterns=2)
    run_generated(runner, tweaked)
    assert runner.last_metrics.run.counters["runner.apps.cached"] == 0


def test_generated_names_never_collide_with_registry_apps():
    from repro.corpus import all_apps

    names = {a.name for a in generate_corpus(CONFIG)}
    assert not names & {spec.name for spec in all_apps()}
