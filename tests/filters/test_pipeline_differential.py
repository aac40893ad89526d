"""The filter pipeline against the pipeline it replaced.

``reference_pipeline.py`` is the pipeline that evaluated each filter once
for the Figure 5 individual counts (``prunes``) and again in the cascade
(``witness``); it is kept verbatim, with only its imports changed.  On
every registry app and the generated apps of two seeds, both pipelines
run on fresh :func:`detect_uaf_warnings` output -- with no fault plan,
with a ``raise`` plan on each filter (the filter faults on its first
call), and with each filter crashing midway, on one chosen occurrence,
after it has already decided others -- and must agree on:

* the full :class:`FilterReport` (counts, both individual dicts and
  ``degraded``) and the ``filters.*``/``report.witnesses.*`` counters
  the pipeline records;
* every occurrence's ``pruned_by``, ``downgraded_by`` and
  ``repr(witness)``;
* ``count_pruned_group`` over the mayHB filters on the sound survivors,
  read from the same pipeline after ``apply`` (Figure 5(b)'s bar).
"""

from dataclasses import asdict

import pytest

import reference_pipeline
from repro import obs
from repro.corpus import all_apps, app, GeneratorConfig
from repro.corpus.generator import generated_app_name
from repro.filters.base import Filter, FilterContext
from repro.filters.pipeline import FilterPipeline
from repro.filters.sound import SOUND_FILTERS
from repro.filters.unsound import MAYHB_FILTER_NAMES, UNSOUND_FILTERS
from repro.harness.generated import analyze_generated_app
from repro.harness.table1 import analyze_corpus_app
from repro.race.detector import DetectorOptions, detect_uaf_warnings
from repro.resilience import FaultPlan, FaultSpec, install

GENERATED = [GeneratorConfig(seed=seed, count=40) for seed in (42, 1234)]
REGISTRY = sorted(spec.name for spec in all_apps())
APPS = [(name, None) for name in REGISTRY] + [
    (generated_app_name(config.seed, index), config)
    for config in GENERATED for index in range(config.count)
]
FILTERS = [f.name for f in (*SOUND_FILTERS, *UNSOUND_FILTERS)]
SOUND_NAMES = {f.name for f in SOUND_FILTERS}


def _analyze(name, generator):
    if generator is None:
        return analyze_corpus_app(app(name))
    return analyze_generated_app(name, generator.to_dict())


def occurrence_key(warning, occ):
    """Names one occurrence across fresh runs of the detector."""
    return warning.key, occ.use.node_id, occ.free.node_id


class CrashOn(Filter):
    """``inner``, except that it raises on the occurrence named ``key``."""

    def __init__(self, inner, key):
        self.name, self.sound = inner.name, inner.sound
        self._inner, self._key = inner, key

    def witness(self, occ, warning, ctx):
        if occurrence_key(warning, occ) == self._key:
            raise RuntimeError(f"{self.name} crashed midway")
        return self._inner.witness(occ, warning, ctx)


def outcome(pipeline_class, result, faulted=None, crash_on=None):
    """Everything one pipeline decides on fresh detector output.

    ``faulted`` names a filter whose ``filter:<name>`` checkpoint raises;
    ``crash_on`` is a ``(filter name, occurrence key)`` crash.
    """
    warnings = detect_uaf_warnings(result.program, result.pointsto,
                                   DetectorOptions(), result.lockset)
    sound, unsound = list(SOUND_FILTERS), list(UNSOUND_FILTERS)
    if crash_on is not None:
        name, key = crash_on
        sound, unsound = ([CrashOn(f, key) if f.name == name else f
                           for f in chain] for chain in (sound, unsound))
    ctx = FilterContext(result.program, result.pointsto, result.lockset)
    pipeline = pipeline_class(ctx, sound, unsound)
    plan = None if faulted is None else FaultPlan(faults=(
        FaultSpec(app="*", stage=f"filter:{faulted}", action="raise"),))
    recorder = obs.Recorder()
    with install(plan), obs.use(recorder):
        report = pipeline.apply(warnings)
        survivors = [w for w in warnings if w.survives_sound]
        mayhb = pipeline.count_pruned_group(
            survivors,
            [f for f in unsound if f.name in MAYHB_FILTER_NAMES],
            require_sound_survivor=True)
    occurrences = [
        (occurrence_key(w, o), o.pruned_by, o.downgraded_by,
         repr(o.witness))
        for w in warnings for o in w.occurrences
    ]
    # only what the pipeline records: deciding fewer verdicts also asks
    # the analyses' own memos (``lockset.cache_hits``) less often
    counters = {name: value
                for name, value in recorder.snapshot().counters.items()
                if name.startswith(("filters.", "report.witnesses."))}
    return asdict(report), counters, occurrences, mayhb


def midway_crashes(clean):
    """One crash per filter, on the middle occurrence it gets to see:
    any occurrence for a sound filter, a sound survivor for an unsound
    one.  The filter has decided other occurrences before it crashes."""
    occurrences = clean[2]
    survivors = [o for o in occurrences if o[1] is None]
    crashes = []
    for name in FILTERS:
        seen = occurrences if name in SOUND_NAMES else survivors
        if seen:
            crashes.append((name, seen[len(seen) // 2][0]))
    return crashes


def test_oracle_covers_every_registry_app_and_both_seeds():
    assert len(APPS) == 27 + 2 * 40
    assert len(FILTERS) == 9


@pytest.mark.parametrize("name,generator", APPS,
                         ids=[name for name, _ in APPS])
def test_pipeline_matches_reference(name, generator):
    result = _analyze(name, generator)
    clean = outcome(reference_pipeline.FilterPipeline, result)
    assert outcome(FilterPipeline, result) == clean, name
    for faulted in FILTERS:
        expected = outcome(reference_pipeline.FilterPipeline, result,
                           faulted=faulted)
        actual = outcome(FilterPipeline, result, faulted=faulted)
        assert actual == expected, f"{name} with filter:{faulted} raising"
        if faulted in SOUND_NAMES and expected[0]["potential"]:
            # the individual pass reaches every sound filter: it fired
            assert [e["filter"] for e in expected[0]["degraded"]] == \
                [faulted]
    for crash in midway_crashes(clean):
        expected = outcome(reference_pipeline.FilterPipeline, result,
                           crash_on=crash)
        actual = outcome(FilterPipeline, result, crash_on=crash)
        assert actual == expected, f"{name} with {crash[0]} crashing midway"
        assert [e["filter"] for e in expected[0]["degraded"]] == [crash[0]]
