"""Simulator tests: interpretation, event delivery, and UAF triggering."""

import pytest

from repro.core import analyze_app
from repro.lowering import compile_app
from repro.runtime import (
    FifoScheduler,
    MAIN_THREAD,
    RandomScheduler,
    ScriptedScheduler,
    Simulator,
    validate_warning,
)
from repro.threadify import threadify


def build(source):
    module = compile_app(source, seal=False)
    program = threadify(module)
    return program


def simulate(source, scheduler=None, max_decisions=2000):
    program = build(source)
    sim = Simulator(program.module, program.manifest)
    sim.run(scheduler or FifoScheduler(), max_decisions=max_decisions)
    return sim


def test_lifecycle_callbacks_execute_in_automaton_order():
    sim = simulate(
        """
        class A extends Activity {
          static String log = "";
          void onCreate(Bundle b) { A.log = A.log + "C"; }
          void onStart() { A.log = A.log + "S"; }
          void onResume() { A.log = A.log + "R"; }
        }
        """
    )
    from repro.ir import FieldRef

    log = sim.heap.get_static(FieldRef("A", "log"))
    assert log.startswith("CSR")


def test_field_initializer_runs_at_construction():
    sim = simulate(
        """
        class A extends Activity {
          int counter = 41;
          void onCreate(Bundle b) { counter = counter + 1; }
        }
        """
    )
    from repro.ir import FieldRef

    obj = sim.components["A"]
    assert sim.heap.get_field(obj, FieldRef("A", "counter")) == 42


def test_posted_runnable_runs_on_main_looper():
    sim = simulate(
        """
        class A extends Activity {
          Handler handler;
          static boolean ran = false;
          void onCreate(Bundle b) {
            handler = new Handler();
            handler.post(new Runnable() {
              public void run() { A.ran = true; }
            });
          }
        }
        """
    )
    from repro.ir import FieldRef

    assert sim.heap.get_static(FieldRef("A", "ran")) is True


def test_thread_spawn_executes_runnable():
    sim = simulate(
        """
        class A extends Activity {
          static boolean ran = false;
          void onCreate(Bundle b) { new Thread(new W()).start(); }
        }
        class W implements Runnable {
          public void run() { A.ran = true; }
        }
        """
    )
    from repro.ir import FieldRef

    assert sim.heap.get_static(FieldRef("A", "ran")) is True


def test_asynctask_callbacks_obey_mhb_contract():
    sim = simulate(
        """
        class A extends Activity {
          static String log = "";
          void onCreate(Bundle b) { new T().execute(); }
        }
        class T extends AsyncTask {
          void onPreExecute() { A.log = A.log + "P"; }
          void doInBackground() { A.log = A.log + "B"; publishProgress(); }
          void onProgressUpdate() { A.log = A.log + "U"; }
          void onPostExecute() { A.log = A.log + "E"; }
        }
        """,
        scheduler=RandomScheduler(7),
    )
    from repro.ir import FieldRef

    log = sim.heap.get_static(FieldRef("A", "log"))
    assert log is not None and log != ""
    assert log.index("P") < log.index("B")
    if "U" in log:
        assert log.index("P") < log.index("U")
    if "E" in log:
        assert log.index("B") < log.index("E")


@pytest.mark.parametrize("seed", range(6))
def test_asynctask_contract_holds_under_many_schedules(seed):
    sim = simulate(
        """
        class A extends Activity {
          static String log = "";
          void onCreate(Bundle b) { new T().execute(); }
        }
        class T extends AsyncTask {
          void onPreExecute() { A.log = A.log + "P"; }
          void doInBackground() { A.log = A.log + "B"; }
          void onPostExecute() { A.log = A.log + "E"; }
        }
        """,
        scheduler=RandomScheduler(seed),
    )
    from repro.ir import FieldRef

    log = sim.heap.get_static(FieldRef("A", "log")) or ""
    if "B" in log:
        assert "P" in log and log.index("P") < log.index("B")
    if "E" in log:
        assert log.index("B") < log.index("E")


def test_null_dereference_raises_npe():
    sim = simulate(
        """
        class F { void use() { } }
        class A extends Activity {
          F f;
          void onCreate(Bundle b) { f.use(); }
        }
        """
    )
    assert sim.npe_events
    assert "call use on null" in sim.npe_events[0].detail


def test_finish_suppresses_ui_events():
    sim = simulate(
        """
        class A extends Activity {
          static int clicks = 0;
          void onCreate(Bundle b) { finish(); }
          void onClick(View v) { A.clicks = A.clicks + 1; }
        }
        """
    )
    from repro.ir import FieldRef

    # finish() in onCreate: the activity never becomes active, the UI
    # callback never fires.
    assert (sim.heap.get_static(FieldRef("A", "clicks")) or 0) == 0


def test_service_connection_contract():
    sim = simulate(
        """
        class A extends Activity {
          static String log = "";
          void onStart() {
            bindService(new Intent("s"), new ServiceConnection() {
              public void onServiceConnected(ComponentName n, IBinder s) {
                A.log = A.log + "C";
              }
              public void onServiceDisconnected(ComponentName n) {
                A.log = A.log + "D";
              }
            }, 0);
          }
        }
        """,
        scheduler=RandomScheduler(3),
    )
    from repro.ir import FieldRef

    log = sim.heap.get_static(FieldRef("A", "log")) or ""
    assert log in ("", "C", "CD"), f"disconnect before connect in {log!r}"


def test_scripted_scheduler_triggers_fig1a_uaf():
    source = """
    class TerminalManager { void createPortForward() { } }
    class ConsoleActivity extends Activity {
      TerminalManager bound;
      void onStart() {
        bindService(new Intent("terminal"), new ServiceConnection() {
          public void onServiceConnected(ComponentName name, IBinder service) {
            bound = new TerminalManager();
          }
          public void onServiceDisconnected(ComponentName name) {
            bound = null;
          }
        }, 0);
      }
      void onCreateContextMenu(ContextMenu menu, View v, ContextMenuInfo mi) {
        bound.createPortForward();
      }
    }
    """
    program = build(source)
    sim = Simulator(program.module, program.manifest)
    sim.run(ScriptedScheduler([
        "ConsoleActivity#onCreate",
        "ConsoleActivity#onStart",
        "onServiceConnected",
        "onServiceDisconnected",
        "ConsoleActivity#onCreateContextMenu",
    ]))
    assert sim.npe_events, "free-then-use schedule must raise the NPE"


def test_validator_confirms_fig1a_warning():
    source = """
    class TerminalManager { void createPortForward() { } }
    class ConsoleActivity extends Activity {
      TerminalManager bound;
      void onStart() {
        bindService(new Intent("terminal"), new ServiceConnection() {
          public void onServiceConnected(ComponentName name, IBinder service) {
            bound = new TerminalManager();
          }
          public void onServiceDisconnected(ComponentName name) {
            bound = null;
          }
        }, 0);
      }
      void onCreateContextMenu(ContextMenu menu, View v, ContextMenuInfo mi) {
        bound.createPortForward();
      }
    }
    """
    result = analyze_app(source)
    survivors = [w for w in result.remaining()
                 if w.fieldref.field_name == "bound"]
    assert survivors
    program = result.program

    def make_sim():
        return Simulator(program.module, program.manifest)

    validation = validate_warning(make_sim, survivors[0])
    assert validation.confirmed


def test_validator_rejects_guarded_same_looper_pattern():
    # Figure 4(b): the guard makes the pair benign; no schedule crashes.
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
    result = analyze_app(source)
    program = result.program

    def make_sim():
        return Simulator(program.module, program.manifest)

    assert result.warnings, "potential warning exists"
    validation = validate_warning(
        make_sim, result.warnings[0], random_attempts=25,
        systematic_branches=25,
    )
    assert not validation.confirmed


def test_an_unregistered_prefs_listener_never_fires():
    """``unregisterOnSharedPreferenceChangeListener`` before the free in
    ``onDestroy`` means no schedule can dereference the freed field."""
    program = build(
        """
        class Data { void touch() { } }
        class A extends Activity implements OnSharedPreferenceChangeListener {
          SharedPreferences prefs;
          Data data;
          void onCreate(Bundle b) {
            data = new Data();
            prefs.registerOnSharedPreferenceChangeListener(this);
          }
          public void onSharedPreferenceChanged(SharedPreferences p, String k) {
            data.touch();
          }
          void onDestroy() {
            prefs.unregisterOnSharedPreferenceChangeListener(this);
            data = null;
          }
        }
        """
    )
    fired = 0
    for seed in range(41):
        sim = Simulator(program.module, program.manifest)
        sim.run(RandomScheduler(seed), max_decisions=2000)
        assert not sim.npe_events, f"seed {seed}: {sim.npe_events[0]}"
        fired += any(line.endswith("#onSharedPreferenceChanged")
                     for line in sim.trace)
    assert fired, "the listener fires while it is registered"


def test_a_disabled_view_gates_only_the_callbacks_registered_on_it():
    """One object listens for clicks on a view and for location updates:
    disabling the view stops the clicks, not the location updates."""
    program = build(
        """
        class A extends Activity implements OnClickListener, LocationListener {
          View button;
          LocationManager lm;
          void onCreate(Bundle b) {
            button.setOnClickListener(this);
            lm.requestLocationUpdates("gps", 0, 0, this);
            button.setEnabled(false);
          }
          public void onClick(View v) { }
          public void onLocationChanged(Location location) { }
          public void onStatusChanged(String provider, int status) { }
          public void onProviderEnabled(String provider) { }
          public void onProviderDisabled(String provider) { }
        }
        """
    )
    sim = Simulator(program.module, program.manifest)
    for event in ("A#onCreate", "A#onStart", "A#onResume"):
        sim.apply(("event", event))
        while ("step", MAIN_THREAD) in sim.choices():
            sim.apply(("step", MAIN_THREAD))
    # listener events carry the listener's oid ("A@1#onClick"); the
    # activity's own UI callbacks ("A#onClick") are component events
    keys = {key for key, _, _ in sim.external_events() if "@" in key}
    assert any(key.endswith("#onLocationChanged") for key in keys)
    assert not any(key.endswith("#onClick") for key in keys)


def _listener_callbacks_after_resume(source):
    """The listener callbacks offered once the activity has resumed."""
    program = build(source)
    sim = Simulator(program.module, program.manifest)
    for event in ("A#onCreate", "A#onStart", "A#onResume"):
        sim.apply(("event", event))
        while ("step", MAIN_THREAD) in sim.choices():
            sim.apply(("step", MAIN_THREAD))
    return {key.split("#")[1] for key, _, _ in sim.external_events()
            if "@" in key}


def test_remove_updates_keeps_the_click_registration():
    """One object listens for clicks on a view and for location updates:
    ``removeUpdates`` stops the location updates, not the clicks."""
    assert _listener_callbacks_after_resume(
        """
        class A extends Activity implements OnClickListener, LocationListener {
          View button;
          LocationManager lm;
          void onCreate(Bundle b) {
            button.setOnClickListener(this);
            lm.requestLocationUpdates("gps", 0, 0, this);
            lm.removeUpdates(this);
          }
          public void onClick(View v) { }
          public void onLocationChanged(Location location) { }
          public void onStatusChanged(String provider, int status) { }
          public void onProviderEnabled(String provider) { }
          public void onProviderDisabled(String provider) { }
        }
        """
    ) == {"onClick"}


def test_unregister_content_observer_stops_on_change_only():
    assert _listener_callbacks_after_resume(
        """
        class Obs extends ContentObserver implements OnClickListener {
          public void onChange(boolean selfChange) { }
          public void onClick(View v) { }
        }
        class A extends Activity {
          View button;
          ContentResolver resolver;
          void onCreate(Bundle b) {
            Obs obs = new Obs();
            button.setOnClickListener(obs);
            resolver.registerContentObserver("content://x", obs);
            resolver.unregisterContentObserver(obs);
          }
        }
        """
    ) == {"onClick"}
