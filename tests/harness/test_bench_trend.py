"""``bench --history`` / ``bench trend``: history append semantics,
the comparability gate, and monotone-drift detection."""

import json

import pytest

from repro.cli import main
from repro.harness import (
    append_history,
    check_comparable,
    corpus_shape,
    detect_drift,
    load_history,
    render_trend,
    trend_rows,
)


def payload(date="2026-01-01", total=1.0, popped=40, apps=("alpha",),
            corpus=None):
    counters = {
        "pointsto.passes": 3,
        "pointsto.worklist.popped": popped,
    }
    body = {
        "schema": 1,
        "date": date,
        "jobs": 1,
        "apps": {name: {"timings": {"total": total},
                        "counters": dict(counters)}
                 for name in apps},
        "totals": {"timings": {"total": total * len(apps)},
                   "counters": dict(counters)},
    }
    if corpus is not None:
        body["corpus"] = corpus
    return body


def history_of(*payloads):
    return [(f"BENCH_{p['date']}.json", p) for p in payloads]


# -- corpus shape -------------------------------------------------------------


def test_corpus_shape_digest_is_order_insensitive_but_content_sensitive():
    a = corpus_shape("registry", ["x", "y"])
    b = corpus_shape("registry", ["y", "x", "x"])
    assert a["digest"] == b["digest"]
    assert a["apps"] == 2
    assert corpus_shape("registry", ["x", "z"])["digest"] != a["digest"]
    # the generator config feeds the digest for generated corpora
    g = corpus_shape("generated", ["x", "y"], generator={"k": 1}, seed=7)
    assert g["digest"] != a["digest"]
    assert g["seed"] == 7


# -- history directory --------------------------------------------------------


def test_append_history_suffixes_same_day_collisions(tmp_path):
    directory = str(tmp_path / "hist")
    first = append_history(payload(), directory)
    second = append_history(payload(total=2.0), directory)
    third = append_history(payload(total=3.0), directory)
    assert first.endswith("BENCH_2026-01-01.json")
    assert second.endswith("BENCH_2026-01-01-2.json")
    assert third.endswith("BENCH_2026-01-01-3.json")


def test_load_history_orders_by_date_then_append_order(tmp_path):
    directory = str(tmp_path)
    append_history(payload(date="2026-01-02", total=2.0), directory)
    append_history(payload(date="2026-01-01", total=1.0), directory)
    append_history(payload(date="2026-01-02", total=3.0), directory)
    names = [name for name, _ in load_history(directory)]
    # lexicographically "-2" sorts before ".json", so the loader must
    # order by (date, name length, name) to keep append order
    assert names == ["BENCH_2026-01-01.json", "BENCH_2026-01-02.json",
                     "BENCH_2026-01-02-2.json"]
    walls = [p["totals"]["timings"]["total"]
             for _, p in load_history(directory)]
    assert walls == [1.0, 2.0, 3.0]


def test_load_history_is_strict_about_foreign_files(tmp_path):
    (tmp_path / "BENCH_bad.json").write_text("{ nope")
    with pytest.raises(ValueError, match="cannot parse BENCH_bad.json"):
        load_history(str(tmp_path))
    (tmp_path / "BENCH_bad.json").write_text('{"schema": 99}')
    with pytest.raises(ValueError, match="not a schema-1 bench payload"):
        load_history(str(tmp_path))
    # non-BENCH files are simply skipped, not errors
    (tmp_path / "BENCH_bad.json").unlink()
    (tmp_path / "notes.txt").write_text("hello")
    assert load_history(str(tmp_path)) == []


# -- comparability gate -------------------------------------------------------


def test_check_comparable_accepts_same_corpus_and_legacy_payloads():
    shape = corpus_shape("registry", ["alpha"])
    history = history_of(
        payload(date="2026-01-01"),                 # legacy: no corpus key
        payload(date="2026-01-02", corpus=shape),
        payload(date="2026-01-03", corpus=dict(shape)),
    )
    assert check_comparable(history) is None


def test_check_comparable_rejects_different_app_sets():
    history = history_of(
        payload(date="2026-01-01", apps=("alpha",)),
        payload(date="2026-01-02", apps=("alpha", "beta")),
    )
    error = check_comparable(history)
    assert "different corpora (app sets differ)" in error
    assert "BENCH_2026-01-01.json" in error
    assert "BENCH_2026-01-02.json" in error


def test_check_comparable_rejects_different_corpus_digests():
    """Same app names but different generator configs: only the shape
    metadata can tell them apart."""
    history = history_of(
        payload(date="2026-01-01",
                corpus=corpus_shape("generated", ["alpha"],
                                    generator={"k": 1}, seed=1)),
        payload(date="2026-01-02",
                corpus=corpus_shape("generated", ["alpha"],
                                    generator={"k": 2}, seed=1)),
    )
    assert "corpus digest" in check_comparable(history)


# -- drift gate ---------------------------------------------------------------


def test_monotone_counter_growth_is_drift():
    history = history_of(
        payload(date="2026-01-01", popped=40),
        payload(date="2026-01-02", popped=40),
        payload(date="2026-01-03", popped=45),
    )
    (drift,) = detect_drift(history, window=5)
    assert drift["kind"] == "counter"
    assert drift["name"] == "pointsto.worklist.popped"
    assert (drift["first"], drift["last"]) == (40, 45)


def test_a_single_dip_resets_the_counter_alarm():
    history = history_of(
        payload(date="2026-01-01", popped=40),
        payload(date="2026-01-02", popped=39),
        payload(date="2026-01-03", popped=45),
    )
    assert detect_drift(history, window=5) == []


def test_wall_time_drift_needs_monotone_growth_beyond_tolerance():
    slow = history_of(
        payload(date="2026-01-01", total=1.0),
        payload(date="2026-01-02", total=1.1),
        payload(date="2026-01-03", total=1.4),
    )
    (drift,) = detect_drift(slow, window=5, time_tolerance=0.25)
    assert drift["kind"] == "time"
    # +10% total growth is inside the default tolerance
    mild = history_of(
        payload(date="2026-01-01", total=1.0),
        payload(date="2026-01-02", total=1.05),
        payload(date="2026-01-03", total=1.1),
    )
    assert detect_drift(mild, window=5, time_tolerance=0.25) == []


def test_drift_looks_only_at_the_trailing_window():
    history = history_of(
        payload(date="2026-01-01", popped=10),
        payload(date="2026-01-02", popped=50),   # old spike, outside window
        payload(date="2026-01-03", popped=45),
        payload(date="2026-01-04", popped=45),
    )
    assert detect_drift(history, window=2) == []
    assert detect_drift(history[:3], window=2) == []


def test_render_trend_table_and_verdicts():
    history = history_of(
        payload(date="2026-01-01", popped=40),
        payload(date="2026-01-02", popped=45),
    )
    text = render_trend(history, detect_drift(history, window=5))
    assert "date" in text.splitlines()[0]
    assert "2026-01-01" in text and "2026-01-02" in text
    assert "DRIFT pointsto.worklist.popped: 40 -> 45" in text
    clean = render_trend(history, [])
    assert "no drift across the last 2 run(s)" in clean
    assert render_trend([], []) == "bench trend: no BENCH_*.json runs found"


def test_trend_rows_tolerate_missing_counters():
    body = payload(date="2026-01-01")
    del body["totals"]["counters"]["pointsto.passes"]
    (row,) = trend_rows(history_of(body))
    assert row["counters"]["pointsto.passes"] is None
    assert "-" in render_trend(history_of(body), [])


# -- CLI surface --------------------------------------------------------------


def test_cli_bench_history_and_trend_roundtrip(tmp_path, capsys):
    hist = tmp_path / "hist"
    out = tmp_path / "bench.json"
    assert main(["bench", "--apps", "todolist", "--jobs", "1",
                 "--out", str(out), "--history", str(hist)]) == 0
    err = capsys.readouterr().err
    assert "[bench] appended" in err
    written = json.loads(out.read_text())
    assert written["corpus"]["kind"] == "registry"
    assert written["corpus"]["apps"] == 1

    # one run is trivially drift-free
    assert main(["bench", "trend", str(hist)]) == 0
    trend_out = capsys.readouterr().out
    assert "no drift" in trend_out


def test_cli_bench_trend_exit_codes(tmp_path, capsys):
    directory = str(tmp_path / "hist")
    append_history(payload(date="2026-01-01", popped=40), directory)
    append_history(payload(date="2026-01-02", popped=45), directory)
    assert main(["bench", "trend", directory]) == 4
    assert "DRIFT" in capsys.readouterr().out

    # incomparable histories are a usage error, not a drift verdict
    append_history(payload(date="2026-01-03", apps=("alpha", "beta")),
                   directory)
    assert main(["bench", "trend", directory]) == 2
    assert "different corpora" in capsys.readouterr().err


def test_cli_bench_trend_rejects_bad_flags(tmp_path, capsys):
    assert main(["bench", "trend", str(tmp_path), "--window", "1"]) == 2
    assert "--window" in capsys.readouterr().err
    assert main(["bench", "trend", str(tmp_path),
                 "--time-tolerance", "-0.5"]) == 2
    assert "--time-tolerance" in capsys.readouterr().err


def test_cli_bench_trend_missing_directory_is_one_clean_line(tmp_path,
                                                             capsys):
    missing = str(tmp_path / "nope")
    assert main(["bench", "trend", missing]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"nadroid: error: bench trend: no such history directory "
        f"{missing} (create one with `bench --history {missing}`)\n"
    )


def test_cli_bench_trend_empty_directory_exits_2(tmp_path, capsys):
    empty = tmp_path / "hist"
    empty.mkdir()
    assert main(["bench", "trend", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one line, no traceback
    assert "no BENCH_*.json runs" in err
