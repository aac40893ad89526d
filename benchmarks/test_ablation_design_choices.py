"""Ablations for the design choices DESIGN.md calls out.

* MHP at detection time (the paper turns it OFF, section 5)
* lockset-based suppression at detection time (OFF, section 5)
* thread-escape pre-filtering (Chord's, kept ON)
* single-looper atomicity assumption (section 8.1)
* per-filter leave-one-out over the sound filters
"""

import pytest

from repro.core import analyze_app, AnalysisConfig, analyze_module
from repro.corpus import app
from repro.filters.base import FilterOptions
from repro.race.detector import DetectorOptions

FIG1A = app("connectbot")


def run_connectbot(config=None):
    spec = FIG1A
    module = spec.compile()
    return analyze_module(module, spec.manifest_for(module), config)


def test_benchmark_default_configuration(benchmark):
    result = benchmark(run_connectbot)
    assert result.remaining()


def test_mhp_off_by_default_and_harmless_here():
    """Section 5: MHP adds little value for Android apps.  Turning our
    forest-structural MHP on must not lose any true warning (it only
    orders poster/postee pairs that PHB would prune anyway)."""
    base = run_connectbot()
    with_mhp = run_connectbot(
        AnalysisConfig(detector=DetectorOptions(use_mhp=True))
    )
    base_keys = {w.key for w in base.remaining()}
    mhp_keys = {w.key for w in with_mhp.remaining()}
    assert mhp_keys <= base_keys


def test_lockset_at_detection_time_would_hide_uafs():
    """Section 5: 'locks cannot prevent ordering violations'.  Respecting
    locks at detection time must never *add* warnings; and on a
    lock-protected UAF it wrongly removes a real one."""
    source = """
    class F { void use() { } }
    class A extends Activity {
      F f;
      void onResume() {
        f = new F();
        new Thread(new W(this)).start();
      }
      void onPause() {
        synchronized (this) { f.use(); }
      }
    }
    class W implements Runnable {
      A owner;
      W(A a) { owner = a; }
      public void run() {
        synchronized (owner) { owner.f = null; }
      }
    }
    """
    respecting = analyze_app(source, config=AnalysisConfig(
        detector=DetectorOptions(respect_locks=True)
    ))
    ignoring = analyze_app(source)
    ignored_fields = {w.fieldref.field_name for w in ignoring.remaining()}
    respected_fields = {w.fieldref.field_name for w in respecting.remaining()}
    assert "f" in ignored_fields, "the lock does not order the free"
    assert "f" not in respected_fields, \
        "lockset suppression hides the ordering violation (why the paper drops it)"


def test_escape_analysis_only_prunes_nonescaping():
    spec = app("firefox")
    module = spec.compile()
    with_escape = analyze_module(module, spec.manifest_for(module))
    module2 = spec.compile()
    without = analyze_module(
        module2, spec.manifest_for(module2),
        AnalysisConfig(detector=DetectorOptions(use_escape_analysis=False)),
    )
    assert {w.key for w in with_escape.warnings} <= {
        w.key for w in without.warnings
    }
    assert {w.fieldref.field_name for w in with_escape.remaining()} == {
        w.fieldref.field_name for w in without.remaining()
    }, "escape filtering must not change the surviving report here"


def test_single_looper_assumption_downgrades_ig_ia():
    """Section 8.1: without the one-looper-per-component assumption the IG
    and IA filters lose their atomicity premise for callback pairs."""
    source = """
    class F { void use() { } }
    class A extends Activity {
      F f;
      View b1;
      View b2;
      void onCreate(Bundle b) {
        b1.setOnClickListener(new OnClickListener() {
          public void onClick(View v) {
            if (f != null) { f.use(); }
          }
        });
        b2.setOnClickListener(new OnClickListener() {
          public void onClick(View v) { f = null; }
        });
      }
    }
    """
    assume = analyze_app(source)
    no_assume = analyze_app(source, config=AnalysisConfig(
        filters=FilterOptions(assume_single_looper=False)
    ))
    assert not [w for w in assume.remaining()
                if w.fieldref.field_name == "f"]
    assert [w for w in no_assume.remaining()
            if w.fieldref.field_name == "f"], \
        "without atomicity the guard no longer protects the pair"


@pytest.mark.parametrize("dropped", ["MHB", "IG", "IA"])
def test_leave_one_sound_filter_out(dropped):
    """Each sound filter is load-bearing: dropping it strictly increases
    the after-sound survivor count somewhere in the train group."""
    from repro.filters.base import FilterContext
    from repro.filters.pipeline import FilterPipeline
    from repro.filters.sound import SOUND_FILTERS
    from repro.filters.unsound import UNSOUND_FILTERS
    from repro.race.detector import detect_uaf_warnings

    spec = app("connectbot" if dropped != "IA" else "soundrecorder")
    module = spec.compile()
    result = analyze_module(module, spec.manifest_for(module))

    kept = [f for f in SOUND_FILTERS if f.name != dropped]
    warnings = detect_uaf_warnings(result.program, result.pointsto,
                                   lockset=result.lockset)
    ctx = FilterContext(result.program, result.pointsto, result.lockset)
    report = FilterPipeline(ctx, kept, UNSOUND_FILTERS).apply(warnings)
    assert report.after_sound > result.report.after_sound, (
        f"dropping {dropped} must leave more sound survivors"
    )
