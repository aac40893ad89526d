"""Table 3: comparison to the DEvA baseline over the train group.

Paper reference: of DEvA's 13 harmful warnings, nAdroid detects 12 (the
13th is the unmodeled Browser Fragment) and filters 11 as false; DEvA
misses nAdroid's cross-class/cross-thread true UAFs entirely.  Asserted
shape: nAdroid detects all but the Fragment case, filters the majority
(every onDestroy-style pair via MHB), and reports true UAFs DEvA cannot
see.
"""

import pytest

from repro.harness import render_table3, run_table3, summarize_table3


@pytest.fixture(scope="module")
def data():
    return run_table3()


def test_benchmark_table3(benchmark):
    result = benchmark(run_table3)
    assert result.rows


def test_nadroid_detects_all_but_fragment(data):
    summary = summarize_table3(data)
    assert summary["not_detected"] == 1  # the Browser Fragment case
    missing = [r for r in data.rows if not r.nadroid_detected]
    assert missing[0].app == "browser"
    assert "AccessibilityPreferencesFragment" in missing[0].deva_warning.use_method


def test_nadroid_filters_majority_of_deva_harmful(data):
    summary = summarize_table3(data)
    assert summary["nadroid_filtered"] > summary["agreed_harmful"]


def test_ondestroy_rows_filtered_by_mhb(data):
    ondestroy = [
        r for r in data.rows
        if r.deva_warning.free_method.endswith("onDestroy")
        and r.nadroid_detected
    ]
    assert ondestroy, "the Table 3 onDestroy pattern must appear"
    for row in ondestroy:
        assert row.nadroid_filtered, row.deva_warning
        assert "MHB" in row.filtered_by


def test_deva_misses_nadroid_true_uafs(data):
    missed = data.deva_missed
    # paper section 8.7: DEvA misses the Figure 1 bugs (cross-class /
    # cross-thread); at minimum ConnectBot and FireFox
    assert {"connectbot", "firefox"} <= set(missed)
    assert sum(missed.values()) >= 10


def test_table3_report(data, capsys):
    with capsys.disabled():
        print()
        print(render_table3(data))
