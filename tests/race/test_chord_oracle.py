"""The detector against Chord's race rules, written out as relations.

Chord states the section 5 race relation as three Datalog rules over the
access events, the points-to sets and the thread-escape set:

    aliased(U, F)  :- basePts(U, O), basePts(F, O), escaping(O).
    aliased(U, F)  :- staticAccess(U), staticAccess(F).
    racyPair(U, F) :- use(U, Fld), free(F, Fld),
                      eventNode(U, NU), eventNode(F, NF), NU != NF,
                      aliased(U, F).

:func:`chord_occurrences` evaluates them as plain set comprehensions and
the tests require :func:`detect_uaf_warnings` to produce exactly the
same occurrences -- (warning key, use node, free node) -- on every
registry app and on a seeded generated corpus.  A detector change that
breaks one rule shows up here as a set difference naming the pairs.
"""

from typing import Set, Tuple

import pytest

from repro.analysis.escape import compute_escaping
from repro.corpus import all_apps, app, GeneratorConfig
from repro.corpus.generator import generated_app_name
from repro.harness.generated import analyze_generated_app
from repro.harness.table1 import analyze_corpus_app
from repro.race import collect_access_events, FREE, USE
from repro.race.detector import DetectorOptions, detect_uaf_warnings

GENERATED = GeneratorConfig(seed=42, count=40)

Occurrences = Set[Tuple[Tuple[int, int], int, int]]


def chord_occurrences(program, pointsto, use_escape=True) -> Occurrences:
    events = collect_access_events(program)
    escaping = compute_escaping(pointsto, program) if use_escape else None

    def field(e):
        return (events[e].fieldref.class_name, events[e].fieldref.field_name)

    use = {(e, field(e)) for e in range(len(events))
           if events[e].kind == USE}
    free = {(e, field(e)) for e in range(len(events))
            if events[e].kind == FREE}
    event_node = {e: events[e].node_id for e in range(len(events))}
    static_access = {e for e in range(len(events)) if events[e].is_static}
    base_pts = {(e, obj) for e in range(len(events)) if e not in static_access
                for obj in pointsto.pts(events[e].method_qname,
                                        events[e].base_local)}

    aliased = {(u, f) for u, obj in base_pts for f, obj_f in base_pts
               if obj == obj_f and (escaping is None or obj in escaping)}
    aliased |= {(u, f) for u in static_access for f in static_access}
    racy_pair = {(u, f) for u, fld in use for f, fld_f in free
                 if fld == fld_f and event_node[u] != event_node[f]
                 and (u, f) in aliased}
    return {((events[u].uid, events[f].uid), event_node[u], event_node[f])
            for u, f in racy_pair}


def detector_occurrences(warnings) -> Occurrences:
    return {(w.key, o.use.node_id, o.free.node_id)
            for w in warnings for o in w.occurrences}


REGISTRY = sorted(spec.name for spec in all_apps())
APPS = REGISTRY + [generated_app_name(GENERATED.seed, index)
                   for index in range(GENERATED.count)]


def _analyze(name):
    if name in REGISTRY:
        return analyze_corpus_app(app(name))
    return analyze_generated_app(name, GENERATED.to_dict())


def test_oracle_covers_every_registry_app_and_the_generated_corpus():
    assert len(APPS) == 27 + 40


@pytest.mark.parametrize("name", APPS)
def test_detector_matches_chord_rules(name):
    result = _analyze(name)
    expected = chord_occurrences(result.program, result.pointsto)
    assert detector_occurrences(result.warnings) == expected
    without_escape = chord_occurrences(result.program, result.pointsto,
                                       use_escape=False)
    assert expected <= without_escape
    assert detector_occurrences(detect_uaf_warnings(
        result.program, result.pointsto,
        DetectorOptions(use_escape_analysis=False),
    )) == without_escape
