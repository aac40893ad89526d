"""Unit and CLI tests for the ``bench --compare`` regression gate."""

import copy
import json

import pytest

from repro.cli import main
from repro.harness import (
    compare_bench, GATED_COUNTERS, has_regressions, render_compare,
)


def payload(date="2026-01-01", total=1.0, counters=None, apps=("alpha",)):
    counters = counters or {
        "pointsto.passes": 5,
        "pointsto.worklist.popped": 40,
        "pointsto.worklist.pushed": 40,
    }
    return {
        "schema": 1,
        "date": date,
        "jobs": 1,
        "apps": {
            name: {
                "timings": {"total": total, "detection": total / 2},
                "counters": dict(counters),
                "gauges": {},
                "spans": [],
            }
            for name in apps
        },
        "totals": {"timings": {"total": total * len(apps)},
                   "counters": dict(counters)},
    }


def test_identical_payloads_have_no_regressions():
    old = payload()
    comparison = compare_bench(old, copy.deepcopy(old))
    assert not has_regressions(comparison)
    assert comparison["apps"]["alpha"]["delta_s"] == 0.0
    assert "no regressions" in render_compare(comparison)


def test_counter_increase_is_a_regression():
    old = payload()
    new = copy.deepcopy(old)
    new["apps"]["alpha"]["counters"]["pointsto.worklist.popped"] = 41
    comparison = compare_bench(old, new)
    assert has_regressions(comparison)
    (reg,) = comparison["regressions"]
    assert reg == {"app": "alpha", "kind": "counter",
                   "name": "pointsto.worklist.popped",
                   "old": 40, "new": 41}
    assert "REGRESSION alpha: pointsto.worklist.popped 40 -> 41" \
        in render_compare(comparison)


def test_counter_decrease_is_an_improvement_not_a_regression():
    old = payload()
    new = copy.deepcopy(old)
    new["apps"]["alpha"]["counters"]["pointsto.worklist.pushed"] = 30
    assert not has_regressions(compare_bench(old, new))


def test_missing_counter_never_gates():
    """Baselines from an older engine generation lack new counters."""
    old = payload(counters={"pointsto.passes": 5})
    new = payload()
    comparison = compare_bench(old, new)
    assert not has_regressions(comparison)
    assert "pointsto.worklist.popped" not in \
        comparison["apps"]["alpha"]["counters"]


def test_hotspot_prefix_counters_gate_when_present_on_both_sides():
    old = payload()
    old["apps"]["alpha"]["counters"]["hotspot.pointsto.pair.A.m@.pops"] = 10
    new = copy.deepcopy(old)
    new["apps"]["alpha"]["counters"]["hotspot.pointsto.pair.A.m@.pops"] = 11
    comparison = compare_bench(old, new)
    assert has_regressions(comparison)
    (reg,) = comparison["regressions"]
    assert reg["name"] == "hotspot.pointsto.pair.A.m@.pops"
    assert reg["old"] == 10 and reg["new"] == 11


def test_hotspot_counter_missing_on_one_side_never_gates():
    """Committed baselines predate the hotspot namespace; a candidate
    that adds hotspot.* counters must still compare clean."""
    old = payload()
    new = copy.deepcopy(old)
    new["apps"]["alpha"]["counters"]["hotspot.pointsto.pair.A.m@.pops"] = 11
    assert not has_regressions(compare_bench(old, new))
    # and the other direction: a baseline with them, a candidate without
    assert not has_regressions(compare_bench(new, old))


def test_time_regression_beyond_tolerance_and_slack():
    old = payload(total=2.0)
    new = payload(total=2.9)
    # 2.9 > 2.0 * 1.25 + 0.25 = 2.75 -> regression
    comparison = compare_bench(old, new)
    kinds = {r["kind"] for r in comparison["regressions"]}
    assert kinds == {"time"}
    assert comparison["apps"]["alpha"]["time_regressed"]
    # widening the tolerance waives it
    assert not has_regressions(compare_bench(old, new, time_tolerance=0.5))


def test_small_absolute_growth_is_slack_absorbed():
    # +60% relative but only +0.06s absolute: sub-second noise
    old = payload(total=0.1)
    new = payload(total=0.16)
    assert not has_regressions(compare_bench(old, new))


def test_disjoint_apps_reported_but_never_gate():
    old = payload(apps=("alpha", "gone"))
    new = payload(apps=("alpha", "fresh"))
    comparison = compare_bench(old, new)
    assert comparison["only_old"] == ["gone"]
    assert comparison["only_new"] == ["fresh"]
    assert not has_regressions(comparison)
    rendered = render_compare(comparison)
    assert "(only in baseline)" in rendered
    assert "(only in candidate)" in rendered


def test_gated_counters_cover_the_pointsto_core():
    assert {"pointsto.passes", "pointsto.worklist.popped"} <= \
        set(GATED_COUNTERS)
    assert not [name for name in GATED_COUNTERS
                if name.startswith("datalog.")]


# -- CLI surface ---------------------------------------------------------------


def test_cli_bench_compare_self_is_clean(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["bench", "--apps", "todolist", "--jobs", "1",
                 "--out", str(first)]) == 0
    code = main(["bench", "--apps", "todolist", "--jobs", "1",
                 "--out", str(second), "--compare", str(first),
                 "--compare-time-tolerance", "5.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bench compare:" in out
    assert "no regressions" in out


def test_cli_bench_compare_detects_tampered_baseline(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["bench", "--apps", "todolist", "--jobs", "1",
                 "--out", str(first)]) == 0
    baseline = json.loads(first.read_text())
    counters = baseline["apps"]["todolist"]["counters"]
    counters["pointsto.worklist.popped"] -= 1  # pretend we used to do less
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(baseline))
    code = main(["bench", "--apps", "todolist", "--jobs", "1",
                 "--out", str(second), "--compare", str(tampered),
                 "--compare-time-tolerance", "5.0"])
    out = capsys.readouterr().out
    assert code == 4
    assert "REGRESSION todolist: pointsto.worklist.popped" in out


def test_cli_bench_compare_rejects_non_bench_json(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": 99}')
    out_path = tmp_path / "out.json"
    code = main(["bench", "--apps", "todolist", "--jobs", "1",
                 "--out", str(out_path), "--compare", str(bogus)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not a nadroid benchmark" in err
    assert not out_path.exists()  # validated before the expensive run


def test_cli_bench_compare_rejects_missing_file(tmp_path, capsys):
    code = main(["bench", "--apps", "todolist", "--jobs", "1",
                 "--out", str(tmp_path / "out.json"),
                 "--compare", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read" in err


def test_cli_bench_compare_negative_tolerance_rejected(tmp_path, capsys):
    code = main(["bench", "--apps", "todolist", "--jobs", "1",
                 "--out", str(tmp_path / "out.json"),
                 "--compare", str(tmp_path / "x.json"),
                 "--compare-time-tolerance", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--compare-time-tolerance" in err
