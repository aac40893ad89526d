"""Section 8.8: analysis execution-time breakdown.

Paper reference: modeling 1.19%, filtering 3.08%, static detection
95.73%.  Asserted shape: detection (the Chord-style points-to + racy-pair
joins) dominates; modeling and filtering are minor stages.
"""

import pytest

from repro.harness import render_timing, run_timing


@pytest.fixture(scope="module")
def timing():
    return run_timing()


def test_benchmark_pipeline_staging(benchmark):
    from repro.corpus import app
    from repro.harness.table1 import analyze_corpus_app

    spec = app("firefox")
    result = benchmark(analyze_corpus_app, spec)
    assert result.timings["total"] > 0


def test_detection_dominates(timing):
    fractions = timing.fractions()
    assert timing.dominant_stage == "detection"
    assert fractions["detection"] > 0.5


def test_modeling_and_filtering_are_minor(timing):
    fractions = timing.fractions()
    assert fractions["modeling"] < fractions["detection"]
    assert fractions["filtering"] < fractions["detection"]


def test_every_app_reports_all_stages(timing):
    for name, stages in timing.per_app.items():
        for stage in ("modeling", "detection", "filtering"):
            assert stages.get(stage, 0) >= 0, (name, stage)


def test_sec88_report(timing, capsys):
    with capsys.disabled():
        print()
        print(render_timing(timing))
