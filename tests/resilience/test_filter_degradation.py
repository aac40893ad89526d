"""Graceful filter degradation: a crashing filter is skipped, not fatal.

Soundness argument under test: a skipped filter prunes nothing, so every
warning it would have removed *survives* -- degradation can only add
false positives, never hide a true violation.
"""

import pytest

from repro import obs
from repro.corpus import app
from repro.filters.base import Filter
from repro.filters.pipeline import FilterPipeline, FilterReport
from repro.race.warnings import Occurrence, UafWarning, Witness
from repro.resilience import (
    CooperativeTimeout,
    FaultPlan,
    FaultSpec,
    install,
)
from repro.runner.serialize import _report_from_dict, _report_to_dict


class BoomFilter(Filter):
    name = "BOOM"
    sound = True

    def witness(self, occ, warning, ctx):
        raise RuntimeError("synthetic filter crash")


class QuietFilter(Filter):
    name = "QUIET"
    sound = True

    def witness(self, occ, warning, ctx):
        return None


class PruneAllFilter(Filter):
    name = "ALL"
    sound = True

    def witness(self, occ, warning, ctx):
        return Witness(kind="test", detail="pruned by ALL")


class TimeoutFilter(Filter):
    name = "SLOW"
    sound = True

    def witness(self, occ, warning, ctx):
        raise CooperativeTimeout(1.0)


def fake_warnings(n=3):
    return [
        UafWarning(
            fieldref=None, use_uid=i, free_uid=i + 100,
            use_method="A.use", free_method="A.free",
            occurrences=[Occurrence(use=None, free=None,
                                    pair_type="EC-EC")],
        )
        for i in range(n)
    ]


def test_crashed_sound_filter_is_skipped_and_warnings_survive():
    pipeline = FilterPipeline(ctx=None, sound_filters=(BoomFilter(),),
                              unsound_filters=())
    warnings = fake_warnings()
    report = pipeline.apply(warnings)
    # Nothing pruned: the conservative outcome.
    assert report.after_sound == report.potential == len(warnings)
    assert all(w.survives_sound for w in warnings)
    assert report.degraded == [{
        "filter": "BOOM", "sound": True,
        "message": "RuntimeError: synthetic filter crash",
    }]
    assert report.is_degraded


def test_crashed_filter_leaves_a_filter_fault_witness():
    pipeline = FilterPipeline(ctx=None, sound_filters=(BoomFilter(),),
                              unsound_filters=())
    warnings = fake_warnings(1)
    pipeline.apply(warnings)
    witness = warnings[0].occurrences[0].witness
    assert witness is not None
    assert witness.kind == "filter-fault"
    assert "BOOM" in witness.detail


def test_other_filters_keep_running_after_one_crashes():
    pipeline = FilterPipeline(
        ctx=None, sound_filters=(BoomFilter(), PruneAllFilter()),
        unsound_filters=(),
    )
    warnings = fake_warnings()
    report = pipeline.apply(warnings)
    assert report.after_sound == 0  # ALL still pruned everything
    assert [entry["filter"] for entry in report.degraded] == ["BOOM"]


def test_unsound_filter_crash_degrades_without_tripping_is_degraded():
    boom = BoomFilter()
    boom.sound = False
    pipeline = FilterPipeline(ctx=None, sound_filters=(QuietFilter(),),
                              unsound_filters=(boom,))
    report = pipeline.apply(fake_warnings())
    assert report.degraded[0]["sound"] is False
    assert not report.is_degraded  # precision bar concerns sound filters


def test_degradation_increments_the_obs_counter():
    recorder = obs.Recorder()
    pipeline = FilterPipeline(ctx=None, sound_filters=(BoomFilter(),),
                              unsound_filters=())
    with obs.use(recorder):
        pipeline.apply(fake_warnings())
    assert recorder.snapshot().counters["filters.degraded"] == 1


def test_timeouts_outrank_degradation():
    # A deadline expiry inside a filter must propagate (the app times
    # out) rather than silently disabling the filter.
    pipeline = FilterPipeline(ctx=None, sound_filters=(TimeoutFilter(),),
                              unsound_filters=())
    with pytest.raises(CooperativeTimeout):
        pipeline.apply(fake_warnings(1))


def test_degraded_entries_round_trip_through_serialization():
    from repro.core import analyze_app

    result = analyze_app(app("todolist").source())
    result.report.degraded = [{"filter": "MHB", "sound": True,
                               "message": "RuntimeError: boom"}]
    clone = _report_from_dict(_report_to_dict(result.report))
    assert clone.degraded == result.report.degraded
    assert clone.is_degraded


def test_injected_filter_fault_degrades_a_real_analysis():
    from repro.core import analyze_app

    source = app("todolist").source()
    clean = analyze_app(source)
    plan = FaultPlan(faults=(FaultSpec(app="*", stage="filter:MHB",
                                       action="raise"),))
    with install(plan):
        degraded = analyze_app(source)
    report = degraded.report
    assert [entry["filter"] for entry in report.degraded] == ["MHB"]
    assert report.is_degraded
    # Soundness: skipping MHB can only let MORE warnings survive.
    assert report.after_sound >= clean.report.after_sound
    surviving = {w.key for w in clean.warnings if w.survives_sound}
    surviving_degraded = {w.key for w in degraded.warnings
                          if w.survives_sound}
    assert surviving <= surviving_degraded
