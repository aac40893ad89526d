"""Hotspot attribution: the points-to emitter, the collector, the
live-aggregate fold, and the deterministic top-K table."""

import pytest

from repro import obs
from repro.analysis import run_pointsto
from repro.lowering import compile_app
from repro.obs import (
    collect_hotspots,
    HotspotEntry,
    Recorder,
    render_hotspots,
    top_hotspots,
)
from repro.obs.hotspots import _parse, fold_hotspot_units
from repro.threadify import threadify


APP = """
class MainActivity extends Activity {
    Worker w;
    void onCreate() { this.w = new Worker(); }
    void onClick() { this.w.ping(); }
}
class Worker {
    void ping() { }
}
"""


# -- emitters -----------------------------------------------------------------


def test_pointsto_emits_per_pair_attribution():
    module = compile_app([("app.mjava", APP)], seal=False)
    program = threadify(module)
    rec = Recorder()
    with obs.use(rec):
        result = run_pointsto(program.module)
    pops = {name: value for name, value in rec.counters.items()
            if name.startswith("hotspot.pointsto.pair.")}
    assert pops, "expected per-pair pop counters"
    # every pair key ends in .pops and total pops match the existing
    # worklist counter, which stays untouched
    assert all(name.endswith(".pops") for name in pops)
    assert sum(pops.values()) == rec.counters["pointsto.worklist.popped"]
    # the entry pair is context-free: qname@ with an empty context
    assert "hotspot.pointsto.pair.DummyMain.main@.pops" in pops
    for name in pops:
        gauge = name[:-len("pops")] + "seconds"
        assert rec.gauges[gauge] >= 0.0
    assert result.var_pts  # the analysis still computed something


def test_hotspot_counters_are_deterministic_across_runs():
    def snapshot_counters():
        program = threadify(compile_app([("app.mjava", APP)], seal=False))
        rec = Recorder()
        with obs.use(rec):
            run_pointsto(program.module)
        return {name: value for name, value in rec.counters.items()
                if name.startswith("hotspot.")}

    assert snapshot_counters() == snapshot_counters()


# -- collector and table ------------------------------------------------------


def test_parse_handles_dotted_names_and_rejects_unknown_domains():
    assert _parse("hotspot.pointsto.pair.A.m@B.n#3.pops") == \
        ("pointsto.pair", "A.m@B.n#3", "pops")
    with pytest.raises(ValueError):
        _parse("hotspot.unknown.domain.x.facts")


def test_collect_hotspots_sums_across_snapshots_and_ranks_by_count():
    first, second = Recorder(), Recorder()
    for rec, pops in ((first, 5), (second, 7)):
        rec.add("hotspot.pointsto.pair.B.n@A.m#2.pops", pops)
        rec.add_gauge("hotspot.pointsto.pair.B.n@A.m#2.seconds", 0.5)
        rec.add("hotspot.pointsto.pair.A.m@.pops", 1)
        rec.add_gauge("hotspot.pointsto.pair.A.m@.seconds", 0.1)
        rec.add("unrelated.counter", 99)
    entries = collect_hotspots([first.snapshot(), second.snapshot()])
    assert [(e.domain, e.name, e.count) for e in entries] == [
        ("pointsto.pair", "B.n@A.m#2", 12),
        ("pointsto.pair", "A.m@", 2),
    ]
    assert entries[0].seconds == pytest.approx(1.0)
    assert entries[1].seconds == pytest.approx(0.2)


def test_collect_hotspots_ignores_unparseable_names():
    rec = Recorder()
    rec.add("hotspot.future.domain.x.facts", 3)
    assert collect_hotspots([rec.snapshot()]) == []


def test_fold_hotspot_units_sums_units_per_domain_and_metric():
    folded = fold_hotspot_units({
        "hotspot.pointsto.pair.A.m@.pops": 3,
        "hotspot.pointsto.pair.B.n@A.m#1.pops": 4,
        "hotspot.future.domain.x.pops": 1,
        "pointsto.passes": 2,
    })
    assert folded == {
        "hotspot.pointsto.pair.pops": 7,
        "hotspot.future.domain.x.pops": 1,
        "pointsto.passes": 2,
    }
    # a folded total is not a unit: the collector skips it
    rec = Recorder()
    rec.add("hotspot.pointsto.pair.pops", 7)
    assert collect_hotspots([rec.snapshot()]) == []


def test_top_hotspots_restricts_by_domain():
    entries = [
        HotspotEntry("datalog.rule", "a", 10, 0.0),
        HotspotEntry("pointsto.pair", "b", 5, 0.0),
    ]
    assert top_hotspots(entries, 1) == [entries[0]]


def test_render_hotspots_table_shape():
    entries = [
        HotspotEntry("datalog.rule", "path#0.1", 42, 0.1234),
        HotspotEntry("pointsto.pair", "A.m@", 7, 0.0),
    ]
    text = render_hotspots(entries, top=1)
    lines = text.splitlines()
    assert lines[0].split() == ["#", "domain", "name", "count", "seconds"]
    assert "path#0.1" in lines[2] and "42" in lines[2]
    assert lines[-1] == "... 1 more unit(s) below the top 1"
    assert render_hotspots([], top=5) == "no hotspot metrics recorded"
