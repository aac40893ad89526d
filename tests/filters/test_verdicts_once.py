"""Each (filter, occurrence) verdict is computed once per pipeline.

``apply`` reads every filter twice over -- the Figure 5 individual counts
and the cascade -- and Figure 5(b)'s mayHB bar reads the three mayHB
filters a third time.  All of them go through the pipeline's verdict
table, so a filter's ``witness`` runs at most once per occurrence.  The
Figure 5 driver reads the mayHB bar from the pipeline the analysis ran,
so a filter that faulted there is neither re-run nor counted again.
"""

from collections import Counter

import pytest

from repro import obs
from repro.corpus import all_apps, app
from repro.filters.base import Filter, FilterContext
from repro.filters.pipeline import FilterPipeline
from repro.filters.sound import SOUND_FILTERS
from repro.filters.unsound import MAYHB_FILTER_NAMES, UNSOUND_FILTERS
from repro.harness import figure5
from repro.harness.table1 import analyze_corpus_app
from repro.race.detector import DetectorOptions, detect_uaf_warnings
from repro.resilience import FaultPlan, FaultSpec, install


class CountingFilter(Filter):
    """Delegates to a real filter, counting calls per (name, occurrence)."""

    def __init__(self, inner, calls):
        self.name, self.sound = inner.name, inner.sound
        self._inner, self._calls = inner, calls

    def witness(self, occ, warning, ctx):
        self._calls[(self.name, id(occ))] += 1
        return self._inner.witness(occ, warning, ctx)


@pytest.mark.parametrize("spec", all_apps(), ids=lambda spec: spec.name)
def test_each_verdict_is_computed_once(spec):
    result = analyze_corpus_app(spec)
    warnings = detect_uaf_warnings(result.program, result.pointsto,
                                   DetectorOptions(), result.lockset)
    calls = Counter()
    sound = [CountingFilter(f, calls) for f in SOUND_FILTERS]
    unsound = [CountingFilter(f, calls) for f in UNSOUND_FILTERS]
    pipeline = FilterPipeline(
        FilterContext(result.program, result.pointsto, result.lockset),
        sound, unsound)
    pipeline.apply(warnings)
    pipeline.count_pruned_group(
        [w for w in warnings if w.survives_sound],
        [f for f in unsound if f.name in MAYHB_FILTER_NAMES],
        require_sound_survivor=True)
    repeated = {pair: n for pair, n in calls.items() if n > 1}
    assert not repeated


def _witnesses(result):
    return [repr(o.witness) for w in result.warnings for o in w.occurrences]


def test_figure5_does_not_rerun_a_faulted_filter(monkeypatch):
    analyzed = {}

    def analyze_and_keep(spec, config=None):
        result = analyze_corpus_app(spec, config)
        analyzed["result"], analyzed["witnesses"] = result, _witnesses(result)
        return result

    monkeypatch.setattr(figure5, "analyze_corpus_app", analyze_and_keep)
    plan = FaultPlan(faults=(FaultSpec(app="*", stage="filter:CHB",
                                       action="raise"),))
    recorder = obs.Recorder()
    with install(plan), obs.use(recorder):
        figure5.figure5_app_data(app("zxing"))
    assert recorder.snapshot().counters["filters.degraded"] == 1
    assert _witnesses(analyzed["result"]) == analyzed["witnesses"]
