"""The API-table simulator against the reference runtime.

``reference_simulator.py`` runs on the hand-written intrinsic table
(``reference_intrinsics.py``) and its interpreter
(``reference_interpreter.py``).  The simulator now derives the intrinsic
of every ``API_TABLE`` row from the row itself.  On the registry apps
(with their manifests) and the generated apps of two seeds, both are
driven in lockstep under random, FIFO and targeted schedules: before
every decision they must offer the same choices, and at the end they
must agree on the trace, the exceptions, the step counts, the threads
and their frames, the event fire counts, the main queue, the hit
watchpoints, the framework-side state and the whole heap.

Listener anchors are compared by what they do, through the external
events each simulator offers: every registering row now anchors its
callbacks to the call's receiver, one anchor per callback, and only a
View anchor ever gates an event.
"""

import pytest

import reference_simulator
import reference_validator
from repro.android.api import API_TABLE
from repro.android.framework import shared_framework
from repro.core import analyze_module
from repro.corpus import all_apps
from repro.corpus.generator import GeneratorConfig, generate_corpus
from repro.ir import Invoke
from repro.lowering import lower_sources
from repro.runtime import (
    FifoScheduler,
    IntrinsicTable,
    RandomScheduler,
    SimulationError,
    Simulator,
)
from repro.runtime.validator import TargetedScheduler

MAX_DECISIONS = 800


def _frame(frame) -> tuple:
    return (frame.method.qualified_name, frame.block_label, frame.index,
            frame.locals, frame.result_target)


def snapshot(sim) -> dict:
    """Everything an execution leaves behind, in comparable form."""
    world, heap = sim.world, sim.heap
    return {
        "trace": sim.trace,
        "exceptions": [vars(exc) for exc in sim.exceptions],
        "steps": (sim.total_steps, sim.clock),
        "threads": [
            (tid, t.name, t.is_looper, t.steps, t.blocked_on_monitor,
             t.exception, t.waiting_on_frame is not None,
             [_frame(frame) for frame in t.frames])
            for tid, t in sim.threads.items()
        ],
        "fire_counts": world.fire_counts,
        "queue": [(t.receiver, t.method_name, t.args, t.poster)
                  for t in world.main_queue],
        "hit_watchpoints": sim.hit_watchpoints,
        "heap": (heap._next_oid, heap._fields, heap._statics, heap.monitors),
        "external_events": sim.external_events(),
        "world": (world.listeners, world.disabled_anchors, world.view_owner,
                  [(c.conn, c.connected, c.disconnected, c.active)
                   for c in world.connections],
                  world.activity_state, world.finished, world.cancelled_tasks),
        "components": sim.components,
        "async_completions": sim.async_completions,
    }


def _attempt(fn, *args):
    """``fn(*args)``, or the message of the SimulationError it raised."""
    try:
        return fn(*args), None
    except SimulationError as exc:
        return None, str(exc)


def assert_runs_agree(program, make_schedulers, watch=frozenset()):
    """Drive the reference and the current simulator in lockstep."""
    old, old_error = _attempt(reference_simulator.Simulator,
                              program.module, program.manifest)
    new, new_error = _attempt(Simulator, program.module, program.manifest)
    assert new_error == old_error
    if new is None:
        return
    old.watchpoints, new.watchpoints = set(watch), set(watch)
    old_scheduler, new_scheduler = make_schedulers()
    for _ in range(MAX_DECISIONS):
        options = new.choices()
        assert old.choices() == options
        choice = new_scheduler.choose(new, options)
        assert old_scheduler.choose(old, options) == choice
        if choice is None:
            break
        _, new_error = _attempt(new.apply, choice)
        _, old_error = _attempt(old.apply, choice)
        assert new_error == old_error
        if new_error is not None:
            break
    assert snapshot(new) == snapshot(old)


def schedules(result, random_seeds):
    """(label, scheduler-pair factory, watchpoints) for one analyzed app."""
    runs = [(f"random:{seed}",
             lambda seed=seed: (RandomScheduler(seed), RandomScheduler(seed)),
             ()) for seed in random_seeds]
    runs.append(("fifo", lambda: (FifoScheduler(), FifoScheduler()), ()))
    for warning in result.remaining():
        def targeted(seed, warning=warning):
            args = (seed, {warning.use_uid}, {warning.free_uid})
            hints = dict(use_hint=warning.use_method,
                         free_hint=warning.free_method)
            return (reference_validator.TargetedScheduler(*args, **hints),
                    TargetedScheduler(*args, **hints))
        for seed in (0, 1):
            runs.append((f"targeted:{warning.key}:{seed}",
                         lambda seed=seed, targeted=targeted: targeted(seed),
                         {warning.free_uid}))
    return runs


def assert_app_agrees(result, random_seeds):
    for label, make_schedulers, watch in schedules(result, random_seeds):
        try:
            assert_runs_agree(result.program, make_schedulers, watch)
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from exc


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.name)
def test_registry_apps_simulate_identically(app):
    module = app.compile()
    result = analyze_module(module, app.manifest_for(module))
    assert_app_agrees(result, range(10))


@pytest.mark.parametrize("seed", [42, 1234])
def test_generated_apps_simulate_identically(seed):
    for gen in generate_corpus(GeneratorConfig(seed=seed, count=200)):
        module = lower_sources(gen.source, module_name=gen.name, seal=False)
        try:
            assert_app_agrees(analyze_module(module), range(3))
        except AssertionError as exc:
            raise AssertionError(f"{gen.name}: {exc}") from exc


#: One call of every simulated ``API_TABLE`` row, with every return value
#: kept in a field, so the heap comparison sees what each intrinsic returns.
#: Each listener object is registered on one receiver only: the reference
#: simulator kept one anchor per listener object, not one per callback.
PROBE = """
class Work implements Runnable {
  public void run() { Probe.ran = Probe.ran + 1; }
}
class Tick extends TimerTask {
  public void run() { Probe.ran = Probe.ran + 1; }
}
class Task extends AsyncTask {
  void onPreExecute() { Probe.ran = Probe.ran + 1; }
  void doInBackground() { publishProgress(); }
  void onProgressUpdate() { Probe.ran = Probe.ran + 1; }
  void onPostExecute() { Probe.ran = Probe.ran + 1; }
  void onCancelled() { Probe.ran = Probe.ran + 1; }
}
class H extends Handler {
  void handleMessage(Message msg) { Probe.ran = Probe.ran + 1; }
}
class Conn implements ServiceConnection {
  public void onServiceConnected(ComponentName name, IBinder service) { }
  public void onServiceDisconnected(ComponentName name) { }
}
class Rcv extends BroadcastReceiver {
  void onReceive(Context context, Intent intent) { }
}
class Ear implements OnClickListener, OnLongClickListener, OnTouchListener,
    OnItemClickListener, LocationListener, SensorEventListener,
    OnCompletionListener, OnSharedPreferenceChangeListener {
  public void onClick(View v) { }
  public boolean onLongClick(View v) { return true; }
  public boolean onTouch(View v, MotionEvent event) { return true; }
  public void onItemClick(ListView parent, View view, int position) { }
  public void onLocationChanged(Location location) { }
  public void onStatusChanged(String provider, int status) { }
  public void onProviderEnabled(String provider) { }
  public void onProviderDisabled(String provider) { }
  public void onSensorChanged(SensorEvent event) { }
  public void onAccuracyChanged(Sensor sensor, int accuracy) { }
  public void onCompletion(MediaPlayer mp) { }
  public void onSharedPreferenceChanged(SharedPreferences prefs, String key) { }
}
class Probe extends Activity {
  static int ran;
  Handler plain; View view; ListView list; ExecutorService pool;
  Timer timer; LocationManager lm; SensorManager sm; MediaPlayer mp;
  SharedPreferences prefs;
  Work work; H h; Task task; Conn conn; Rcv rcv;
  Ear clicks; Ear items; Ear places; Ear sensors; Ear songs; Ear settings;
  boolean posted; boolean delayed; boolean viewPosted; boolean viewDelayed;
  boolean sent; boolean sentDelayed; boolean sentEmpty; boolean bound;
  boolean sensed; boolean unposted; boolean cancelled;
  Object submitted; AsyncTask executed;

  void onCreate(Bundle b) {
    work = new Work();
    h = new H();
    task = new Task();
    conn = new Conn();
    rcv = new Rcv();
    clicks = new Ear();
    items = new Ear();
    places = new Ear();
    sensors = new Ear();
    songs = new Ear();
    settings = new Ear();
    posted = plain.post(work);
    delayed = plain.postDelayed(work, 5);
    viewPosted = view.post(work);
    viewDelayed = view.postDelayed(work, 5);
    runOnUiThread(work);
    sent = h.sendMessage(new Message());
    sentDelayed = h.sendMessageDelayed(null, 5);
    sentEmpty = h.sendEmptyMessage(3);
    Thread thread = new Thread(work);
    thread.start();
    pool.execute(work);
    submitted = pool.submit(work);
    timer.schedule(new Tick(), 5);
    executed = task.execute();
    bound = bindService(new Intent("svc"), conn, 0);
    registerReceiver(rcv, new IntentFilter("tick"));
    view.setOnClickListener(clicks);
    view.setOnLongClickListener(clicks);
    view.setOnTouchListener(clicks);
    list.setOnItemClickListener(items);
    lm.requestLocationUpdates("gps", 0, 0, places);
    sensed = sm.registerListener(sensors, null, 0);
    mp.setOnCompletionListener(songs);
    prefs.registerOnSharedPreferenceChangeListener(settings);
  }

  void onPause() {
    view.setEnabled(false);
    unposted = view.removeCallbacks(work);
    plain.removeCallbacks(work);
    plain.removeCallbacksAndMessages(null);
    h.removeMessages(3);
    cancelled = task.cancel(true);
    timer.cancel();
  }

  void onStop() {
    unbindService(conn);
    unregisterReceiver(rcv);
    lm.removeUpdates(places);
    sm.unregisterListener(sensors);
    prefs.unregisterOnSharedPreferenceChangeListener(settings);
    finish();
  }
}
"""


def test_every_simulated_api_row_runs_identically():
    module = lower_sources(PROBE, module_name="probe", seal=False)
    result = analyze_module(module)
    program = result.program
    framework = shared_framework()
    called = {
        (program.module.resolve_method(instr.methodref.class_name,
                                       instr.methodref.method_name)
         .class_name, instr.methodref.method_name)
        for method in program.module.methods()
        if method.class_name in ("Probe", "Task")
        for instr in method.instructions() if isinstance(instr, Invoke)
    }
    simulated = {key for key in API_TABLE
                 if IntrinsicTable().lookup(*key, framework) is not None}
    assert simulated <= called
    assert_app_agrees(result, range(20))
