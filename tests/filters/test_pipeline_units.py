"""Direct unit tests for :class:`FilterPipeline` combinators.

``count_pruned_group`` backs the Figure 5 individual counts and the
combined mayHB bar; here it runs against hand-built warnings and stub
filters so every branch (multi-occurrence warnings, the
require_sound_survivor restriction, partially-pruned warnings) is pinned
without a full analysis.  The legacy ``prunes``-only Filter subclass path is covered
too, since user extensions (examples/custom_filter.py) rely on it.
"""

import pytest

from repro.filters.base import Filter
from repro.filters.pipeline import FilterPipeline
from repro.ir.instructions import FieldRef
from repro.race.events import AccessEvent
from repro.race.warnings import Occurrence, UafWarning, Witness


def event(node_id, kind):
    return AccessEvent(
        node_id=node_id, method_qname="A.m", uid=node_id,
        fieldref=FieldRef("A", "f"), kind=kind,
        is_static=False, base_local="this", line=1,
    )


def warning(*use_nodes):
    """One warning with one occurrence per given use-node id."""
    w = UafWarning(
        fieldref=FieldRef("A", "f"), use_uid=1, free_uid=2,
        use_method="A.use", free_method="A.free",
    )
    for node in use_nodes:
        w.occurrences.append(
            Occurrence(use=event(node, "USE"), free=event(99, "FREE"),
                       pair_type="EC-EC")
        )
    return w


class NodeFilter(Filter):
    """Prunes occurrences whose use node id is in a fixed set."""

    def __init__(self, name, nodes):
        self.name = name
        self._nodes = frozenset(nodes)

    def witness(self, occ, warning, ctx):
        if occ.use.node_id in self._nodes:
            return Witness(kind="test", detail=f"{self.name} hit")
        return None


@pytest.fixture()
def pipeline():
    fa = NodeFilter("FA", {1, 2})
    fb = NodeFilter("FB", {2, 3})
    return FilterPipeline(ctx=None, sound_filters=[fa],
                          unsound_filters=[fb])


# -- count_pruned_group ------------------------------------------------------


def test_group_kills_warning_no_single_filter_can(pipeline):
    # FA kills occ(1), FB kills occ(3); only the group covers both
    w = warning(1, 3)
    fa, fb = pipeline.sound_filters[0], pipeline.unsound_filters[0]
    assert pipeline.count_pruned_group([w], [fa]) == 0
    assert pipeline.count_pruned_group([w], [fb]) == 0
    assert pipeline.count_pruned_group([w], [fa, fb]) == 1


def test_group_leaves_uncovered_occurrences(pipeline):
    # node 4 is in neither kill set
    fa, fb = pipeline.sound_filters[0], pipeline.unsound_filters[0]
    assert pipeline.count_pruned_group([warning(1, 4)], [fa, fb]) == 0


def test_group_require_sound_survivor_skips_pruned(pipeline):
    # occ(1) already fell to a sound filter; only occ(3) is relevant
    w = warning(1, 3)
    w.occurrences[0].pruned_by = "MHB"
    fb = pipeline.unsound_filters[0]
    assert pipeline.count_pruned_group(
        [w], [fb], require_sound_survivor=True
    ) == 1
    # with every occurrence sound-pruned there is nothing left to count
    w.occurrences[1].pruned_by = "MHB"
    assert pipeline.count_pruned_group(
        [w], [fb], require_sound_survivor=True
    ) == 0


# -- legacy prunes-only filters ----------------------------------------------


class LegacyFilter(Filter):
    """Old-style extension: implements only the boolean ``prunes``."""

    name = "LEGACY"

    def prunes(self, occ, warning, ctx):
        return occ.use.node_id == 7


def test_legacy_prunes_only_filter_gets_generic_witness():
    f = LegacyFilter()
    w = warning(7)
    witness = f.witness(w.occurrences[0], w, ctx=None)
    assert witness is not None
    assert witness.kind == "filter"
    assert "LEGACY" in witness.detail
    assert f.witness(warning(8).occurrences[0], w, ctx=None) is None


def test_legacy_filter_works_through_the_pipeline():
    pipe = FilterPipeline(ctx=None, sound_filters=[LegacyFilter()],
                          unsound_filters=[])
    w = warning(7)
    report = pipe.apply([w])
    assert report.after_sound == 0
    assert w.occurrences[0].pruned_by == "LEGACY"
    assert w.occurrences[0].witness.kind == "filter"


def test_neither_witness_nor_prunes_raises():
    class Empty(Filter):
        name = "EMPTY"

    w = warning(1)
    with pytest.raises(NotImplementedError):
        Empty().witness(w.occurrences[0], w, ctx=None)
