"""End-to-end tests on the paper's Figure 1 harmful UAF examples.

These three patterns are the paper's motivating bugs; the pipeline must
detect each and keep it through all filters, with the right origin
category: (a) EC-PC, (b) PC-PC, (c) C-NT.
"""

import pytest

from repro import obs
from repro.core import analyze_app

# Figure 1(a): ConnectBot, single-threaded UAF between onServiceDisconnected
# (free) and onCreateContextMenu (use) -- no guard at all.
FIG1A = """
class TerminalManager { void createPortForward() { } }

class ConsoleActivity extends Activity {
  TerminalManager bound;

  void onStart() {
    super.onStart();
    bindService(new Intent("terminal"), new ServiceConnection() {
      public void onServiceConnected(ComponentName name, IBinder service) {
        bound = new TerminalManager();
      }
      public void onServiceDisconnected(ComponentName name) {
        bound = null;
      }
    }, 0);
  }

  void onCreateContextMenu(ContextMenu menu, View v, ContextMenuInfo menuInfo) {
    bound.createPortForward();
  }
}
"""

# Figure 1(b): ConnectBot, onClick null-checks hostBridge but defers the use
# to a posted Runnable; onServiceDisconnected may run in between.
FIG1B = """
class HostBridge { void dispatch() { } }

class TerminalView extends Activity {
  HostBridge hostBridge;
  Handler handler;

  void onCreate(Bundle b) {
    super.onCreate(b);
    handler = new Handler();
    bindService(new Intent("bridge"), new ServiceConnection() {
      public void onServiceConnected(ComponentName name, IBinder service) {
        hostBridge = new HostBridge();
      }
      public void onServiceDisconnected(ComponentName name) {
        hostBridge = null;
      }
    }, 0);
  }

  void onClick(View v) {
    if (hostBridge != null) {
      handler.post(new Runnable() {
        public void run() {
          hostBridge.dispatch();
        }
      });
    }
  }
}
"""

# Figure 1(c): FireFox, multi-threaded UAF: a background task frees jClient
# while onPause's if-guard lacks atomicity (no common lock).
FIG1C = """
class JavaClient { void abort() { } }

class GeckoApp extends Activity {
  JavaClient jClient;
  ExecutorService pool;

  void onResume() {
    super.onResume();
    jClient = new JavaClient();
    pool.execute(new Runnable() {
      public void run() {
        jClient = null;
      }
    });
  }

  void onPause() {
    super.onPause();
    if (jClient != null) {
      jClient.abort();
    }
  }
}
"""


def remaining_on_field(result, field_name):
    return [
        w for w in result.remaining() if w.fieldref.field_name == field_name
    ]


def test_fig1a_single_threaded_uaf_detected_and_survives():
    result = analyze_app(FIG1A)
    survivors = remaining_on_field(result, "bound")
    assert survivors, "Figure 1(a) UAF must survive all filters"
    assert any(w.pair_type() == "EC-PC" for w in survivors)
    assert any("onCreateContextMenu" in w.use_method for w in survivors)
    assert any("onServiceDisconnected" in w.free_method for w in survivors)


def test_fig1a_connected_disconnected_pair_pruned_by_mhb():
    result = analyze_app(FIG1A)
    # A use in onServiceConnected... there is none here, but the allocation
    # itself produces no warning; check instead that the surviving pairs
    # never blame onServiceConnected (connected MHB disconnected).
    for warning in result.remaining():
        assert "onServiceConnected" not in warning.use_method


def test_fig1b_deferred_use_in_posted_runnable_survives():
    result = analyze_app(FIG1B)
    survivors = remaining_on_field(result, "hostBridge")
    assert survivors, "Figure 1(b) UAF must survive all filters"
    run_use = [w for w in survivors if w.use_method.endswith(".run")]
    assert run_use, "the use inside the posted Runnable must be flagged"
    assert any(w.pair_type() == "PC-PC" for w in run_use)


def test_fig1b_guarded_check_in_onclick_is_not_flagged():
    result = analyze_app(FIG1B)
    # The null-check read inside onClick itself must be pruned (UR: the
    # value only feeds a null comparison).
    for warning in result.remaining():
        assert not warning.use_method.endswith(".onClick")


def test_fig1c_cross_thread_guard_is_not_trusted():
    result = analyze_app(FIG1C)
    survivors = remaining_on_field(result, "jClient")
    assert survivors, "Figure 1(c) UAF must survive: the guard lacks atomicity"
    assert any(w.pair_type() == "C-NT" for w in survivors)


_LOCKED_TEMPLATE = """
class Shared {{ Worker worker = new Worker(); }}
class SharedHolder {{ static Shared shared = new Shared(); }}
class A extends Activity {{
  void onResume() {{
    Shared s = SharedHolder.shared;
    new Thread(new Freer()).start();
    {use_body}
  }}
}}
class Freer implements Runnable {{
  public void run() {{
    Shared s = SharedHolder.shared;
    {free_body}
  }}
}}
class Worker {{ void work() {{ }} }}
"""


def test_fig1c_guard_with_common_lock_is_pruned():
    source = _LOCKED_TEMPLATE.format(
        use_body="synchronized (s) { if (s.worker != null) { s.worker.work(); } }",
        free_body="synchronized (s) { s.worker = null; }",
    )
    result = analyze_app(source)
    # guard + common lock: the IG filter is sound across threads
    assert not [
        w for w in result.remaining() if w.fieldref.field_name == "worker"
    ]


def test_fig1c_guard_without_lock_on_free_side_survives():
    source = _LOCKED_TEMPLATE.format(
        use_body="synchronized (s) { if (s.worker != null) { s.worker.work(); } }",
        free_body="s.worker = null;",
    )
    result = analyze_app(source)
    assert [
        w for w in result.remaining() if w.fieldref.field_name == "worker"
    ], "a lock held on one side only must not restore the guard's atomicity"


def test_stage_timings_recorded():
    recorder = obs.Recorder()
    with obs.use(recorder), obs.span("app:fig1a"):
        analyze_app(FIG1A)
    timings = recorder.snapshot().stage_seconds()
    assert set(timings) >= {"modeling", "detection", "filtering", "total"}
    assert timings["total"] > 0
