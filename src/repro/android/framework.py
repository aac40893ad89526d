"""Stub model of the Android framework class library.

The corpus applications extend and call into a faithful-in-shape subset of
the Android API.  Each framework class is materialized as an IR
:class:`~repro.ir.ClassDef` whose methods have empty bodies; their real
semantics live in :mod:`repro.android.api` -- which calls register
callbacks, post events, spawn threads or cancel pending work.  The
threadifier and the filters read that table, and so does
:mod:`repro.runtime.intrinsics`, which executes it for the dynamic
validator.

Three questions about an app module are answered here once, for the
threadifier and the simulator alike: which component fields the runtime
provides (:func:`provided_fields`), which callbacks a component declares
(:func:`declared_callbacks`), and whether a call reaches app code rather
than a framework stub (:func:`app_override`).

The set is the transitive closure of what the 27 corpus apps and the
paper's examples (Figures 1, 3 and 4) need.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    AbstractSet, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from ..ir import (
    ClassDef,
    Field,
    FieldRef,
    IRBuilder,
    Method,
    Module,
    Parameter,
    parse_type,
    verify_module,
)

# (name, params as "Type name", return type, is_static)
_MethodSpec = Tuple[str, Sequence[str], str, bool]


def _m(name: str, params: Sequence[str] = (), ret: str = "void",
       static: bool = False) -> _MethodSpec:
    return (name, tuple(params), ret, static)


#: class name -> (super, interfaces, fields, methods)
FRAMEWORK_SPEC: Dict[str, dict] = {
    "Object": dict(methods=[_m("equals", ["Object other"], "boolean"),
                            _m("hashCode", [], "int"),
                            _m("toString", [], "String")]),
    # -- core app components -------------------------------------------------
    "Context": dict(super="Object", methods=[
        _m("bindService", ["Intent intent", "ServiceConnection conn", "int flags"],
           "boolean"),
        _m("unbindService", ["ServiceConnection conn"]),
        _m("registerReceiver", ["BroadcastReceiver receiver", "IntentFilter filter"]),
        _m("unregisterReceiver", ["BroadcastReceiver receiver"]),
        _m("startService", ["Intent intent"], "ComponentName"),
        _m("stopService", ["Intent intent"], "boolean"),
        _m("startActivity", ["Intent intent"]),
        _m("sendBroadcast", ["Intent intent"]),
        _m("sendOrderedBroadcast", ["Intent intent",
                                    "BroadcastReceiver resultReceiver"]),
        _m("getSystemService", ["String name"], "Object"),
        _m("getApplicationContext", [], "Context"),
    ]),
    "Activity": dict(super="Context", methods=[
        _m("onCreate", ["Bundle savedInstanceState"]),
        _m("onStart"), _m("onRestart"), _m("onResume"), _m("onPause"),
        _m("onStop"), _m("onDestroy"),
        _m("onActivityResult", ["int requestCode", "int resultCode", "Intent data"]),
        _m("onRetainNonConfigurationInstance", [], "Object"),
        _m("onSaveInstanceState", ["Bundle outState"]),
        _m("onRestoreInstanceState", ["Bundle savedInstanceState"]),
        _m("onNewIntent", ["Intent intent"]),
        _m("onLowMemory"),
        _m("onConfigurationChanged", ["Object newConfig"]),
        _m("onCreateContextMenu",
           ["ContextMenu menu", "View v", "ContextMenuInfo menuInfo"]),
        _m("onContextItemSelected", ["MenuItem item"], "boolean"),
        _m("onCreateOptionsMenu", ["Menu menu"], "boolean"),
        _m("onOptionsItemSelected", ["MenuItem item"], "boolean"),
        _m("onKeyDown", ["int keyCode", "KeyEvent event"], "boolean"),
        _m("onBackPressed"),
        _m("setContentView", ["int layout"]),
        _m("findViewById", ["int id"], "View"),
        _m("finish"),
        _m("isFinishing", [], "boolean"),
        _m("runOnUiThread", ["Runnable action"]),
        _m("getIntent", [], "Intent"),
        _m("setResult", ["int resultCode"]),
        _m("setTitle", ["String title"]),
        _m("invalidateOptionsMenu"),
        _m("getFragmentManager", [], "FragmentManager"),
    ]),
    "Service": dict(super="Context", methods=[
        _m("onCreate"), _m("onDestroy"),
        _m("onBind", ["Intent intent"], "IBinder"),
        _m("onUnbind", ["Intent intent"], "boolean"),
        _m("onRebind", ["Intent intent"]),
        _m("onStartCommand", ["Intent intent", "int flags", "int startId"], "int"),
        _m("onTaskRemoved", ["Intent rootIntent"]),
        _m("onTimeout", ["int startId"]),
        _m("startForeground", ["int id", "Notification notification"]),
        _m("stopForeground", ["boolean removeNotification"]),
        _m("onLowMemory"),
        _m("stopSelf"),
    ]),
    "BroadcastReceiver": dict(super="Object", methods=[
        _m("onReceive", ["Context context", "Intent intent"]),
    ]),
    "Application": dict(super="Context", methods=[
        _m("onCreate"), _m("onTerminate"), _m("onLowMemory"),
    ]),
    "Fragment": dict(super="Object", methods=[
        # Fragment callbacks are modeled by the threadifier only when the
        # fragment reaches the screen through a FragmentTransaction
        # ``add``/``replace``; fragments wired up any other way stay
        # invisible -- reproducing the paper's stated implementation
        # limitation (section 8.1, Table 3 Browser row).
        _m("onAttach", ["Activity activity"]),
        _m("onCreate", ["Bundle savedInstanceState"]),
        _m("onStart"), _m("onResume"), _m("onPause"), _m("onStop"),
        _m("onDestroy"), _m("onDetach"),
        _m("getActivity", [], "Activity"),
    ]),
    "FragmentManager": dict(super="Object", methods=[
        _m("beginTransaction", [], "FragmentTransaction"),
    ]),
    "FragmentTransaction": dict(super="Object", methods=[
        _m("add", ["int containerId", "Fragment fragment"], "FragmentTransaction"),
        _m("replace", ["int containerId", "Fragment fragment"],
           "FragmentTransaction"),
        _m("remove", ["Fragment fragment"], "FragmentTransaction"),
        _m("commit", [], "int"),
    ]),
    # -- event plumbing --------------------------------------------------------
    "Runnable": dict(interface=True, methods=[_m("run")]),
    "Thread": dict(super="Object", interfaces=["Runnable"], fields=["Runnable $task"],
                   methods=[
        _m("<init>", ["Runnable task"]),
        _m("run"), _m("start"), _m("join"), _m("interrupt"),
        _m("isAlive", [], "boolean"),
        _m("sleep", ["int millis"], "void", True),
        _m("currentThread", [], "Thread", True),
    ]),
    "Handler": dict(super="Object", methods=[
        _m("post", ["Runnable r"], "boolean"),
        _m("postDelayed", ["Runnable r", "int delayMillis"], "boolean"),
        _m("sendMessage", ["Message msg"], "boolean"),
        _m("sendEmptyMessage", ["int what"], "boolean"),
        _m("sendMessageDelayed", ["Message msg", "int delayMillis"], "boolean"),
        _m("handleMessage", ["Message msg"]),
        _m("removeCallbacks", ["Runnable r"]),
        _m("removeCallbacksAndMessages", ["Object token"]),
        _m("removeMessages", ["int what"]),
        _m("obtainMessage", ["int what"], "Message"),
        _m("getLooper", [], "Looper"),
    ]),
    "Looper": dict(super="Object", methods=[
        _m("getMainLooper", [], "Looper", True),
        _m("myLooper", [], "Looper", True),
        _m("quit"),
    ]),
    "Message": dict(super="Object", fields=["int what", "Object obj"], methods=[
        _m("obtain", [], "Message", True),
    ]),
    "AsyncTask": dict(super="Object", methods=[
        _m("execute", [], "AsyncTask"),
        _m("cancel", ["boolean mayInterrupt"], "boolean"),
        _m("isCancelled", [], "boolean"),
        _m("publishProgress"),
        _m("onPreExecute"),
        _m("doInBackground"),
        _m("onProgressUpdate"),
        _m("onPostExecute"),
        _m("onCancelled"),
    ]),
    "ExecutorService": dict(super="Object", methods=[
        _m("execute", ["Runnable command"]),
        _m("submit", ["Runnable task"], "Object"),
        _m("shutdown"),
    ]),
    "Executors": dict(super="Object", methods=[
        _m("newSingleThreadExecutor", [], "ExecutorService", True),
        _m("newFixedThreadPool", ["int nThreads"], "ExecutorService", True),
        _m("newCachedThreadPool", [], "ExecutorService", True),
    ]),
    "Timer": dict(super="Object", methods=[
        _m("schedule", ["TimerTask task", "int delay"]),
        _m("cancel"),
    ]),
    "TimerTask": dict(super="Object", interfaces=["Runnable"], methods=[
        _m("run"), _m("cancel", [], "boolean"),
    ]),
    # -- UI ----------------------------------------------------------------------
    "View": dict(super="Object", methods=[
        _m("setOnClickListener", ["OnClickListener l"]),
        _m("setOnLongClickListener", ["OnLongClickListener l"]),
        _m("setOnTouchListener", ["OnTouchListener l"]),
        _m("post", ["Runnable action"], "boolean"),
        _m("postDelayed", ["Runnable action", "int delayMillis"], "boolean"),
        _m("removeCallbacks", ["Runnable action"], "boolean"),
        _m("setVisibility", ["int visibility"]),
        _m("setEnabled", ["boolean enabled"]),
        _m("isEnabled", [], "boolean"),
        _m("findViewById", ["int id"], "View"),
        _m("invalidate"),
        _m("getContext", [], "Context"),
    ]),
    "TextView": dict(super="View", methods=[
        _m("setText", ["String text"]),
        _m("getText", [], "String"),
    ]),
    "Button": dict(super="TextView", methods=[]),
    "EditText": dict(super="TextView", methods=[]),
    "ListView": dict(super="View", methods=[
        _m("setAdapter", ["Adapter adapter"]),
        _m("setOnItemClickListener", ["OnItemClickListener l"]),
    ]),
    "WebView": dict(super="View", methods=[
        _m("loadUrl", ["String url"]),
        _m("stopLoading"),
        _m("destroy"),
    ]),
    "Adapter": dict(super="Object", methods=[
        _m("notifyDataSetChanged"),
        _m("getCount", [], "int"),
        _m("changeCursor", ["Cursor cursor"]),
    ]),
    "OnClickListener": dict(interface=True, methods=[_m("onClick", ["View v"])]),
    "OnLongClickListener": dict(interface=True, methods=[
        _m("onLongClick", ["View v"], "boolean"),
    ]),
    "OnTouchListener": dict(interface=True, methods=[
        _m("onTouch", ["View v", "MotionEvent event"], "boolean"),
    ]),
    "OnItemClickListener": dict(interface=True, methods=[
        _m("onItemClick", ["ListView parent", "View view", "int position"]),
    ]),
    "Menu": dict(super="Object", methods=[_m("add", ["String title"], "MenuItem")]),
    "ContextMenu": dict(super="Menu", methods=[
        _m("setHeaderTitle", ["String title"]),
    ]),
    "ContextMenuInfo": dict(super="Object", methods=[]),
    "MenuItem": dict(super="Object", methods=[
        _m("getItemId", [], "int"),
        _m("setEnabled", ["boolean enabled"], "MenuItem"),
    ]),
    "MotionEvent": dict(super="Object", methods=[_m("getAction", [], "int")]),
    "KeyEvent": dict(super="Object", methods=[_m("getKeyCode", [], "int")]),
    "Dialog": dict(super="Object", methods=[
        _m("show"), _m("dismiss"), _m("cancel"),
        _m("setTitle", ["String title"]),
        _m("isShowing", [], "boolean"),
    ]),
    "ProgressDialog": dict(super="Dialog", methods=[
        _m("setMessage", ["String message"]),
        _m("setProgress", ["int value"]),
    ]),
    "Toast": dict(super="Object", methods=[
        _m("makeText", ["Context context", "String text", "int duration"],
           "Toast", True),
        _m("show"),
    ]),
    # -- system services and data ------------------------------------------------
    "Intent": dict(super="Object", methods=[
        _m("<init>", ["String action"]),
        _m("putExtra", ["String name", "String value"], "Intent"),
        _m("getStringExtra", ["String name"], "String"),
        _m("getAction", [], "String"),
        _m("setAction", ["String action"], "Intent"),
    ]),
    "IntentFilter": dict(super="Object", methods=[
        _m("<init>", ["String action"]),
        _m("addAction", ["String action"]),
    ]),
    "Bundle": dict(super="Object", methods=[
        _m("putString", ["String key", "String value"]),
        _m("getString", ["String key"], "String"),
        _m("containsKey", ["String key"], "boolean"),
    ]),
    "ComponentName": dict(super="Object", methods=[
        _m("getClassName", [], "String"),
    ]),
    "IBinder": dict(interface=True, methods=[_m("isBinderAlive", [], "boolean")]),
    "Binder": dict(super="Object", interfaces=["IBinder"], methods=[]),
    "ServiceConnection": dict(interface=True, methods=[
        _m("onServiceConnected", ["ComponentName name", "IBinder service"]),
        _m("onServiceDisconnected", ["ComponentName name"]),
    ]),
    "LocationManager": dict(super="Object", methods=[
        _m("requestLocationUpdates",
           ["String provider", "int minTime", "int minDistance",
            "LocationListener listener"]),
        _m("removeUpdates", ["LocationListener listener"]),
        _m("getLastKnownLocation", ["String provider"], "Location"),
    ]),
    "LocationListener": dict(interface=True, methods=[
        _m("onLocationChanged", ["Location location"]),
        _m("onStatusChanged", ["String provider", "int status"]),
        _m("onProviderEnabled", ["String provider"]),
        _m("onProviderDisabled", ["String provider"]),
    ]),
    "Location": dict(super="Object", methods=[
        _m("getProvider", [], "String"),
        _m("getTime", [], "long"),
    ]),
    "SensorManager": dict(super="Object", methods=[
        _m("registerListener",
           ["SensorEventListener listener", "Sensor sensor", "int rate"], "boolean"),
        _m("unregisterListener", ["SensorEventListener listener"]),
        _m("getDefaultSensor", ["int type"], "Sensor"),
    ]),
    "Sensor": dict(super="Object", methods=[]),
    "SensorEventListener": dict(interface=True, methods=[
        _m("onSensorChanged", ["SensorEvent event"]),
        _m("onAccuracyChanged", ["Sensor sensor", "int accuracy"]),
    ]),
    "SensorEvent": dict(super="Object", methods=[]),
    "MediaPlayer": dict(super="Object", methods=[
        _m("setDataSource", ["String path"]),
        _m("prepare"), _m("start"), _m("pause"), _m("stop"),
        _m("release"), _m("reset"),
        _m("isPlaying", [], "boolean"),
        _m("seekTo", ["int msec"]),
        _m("setOnCompletionListener", ["OnCompletionListener listener"]),
    ]),
    "OnCompletionListener": dict(interface=True, methods=[
        _m("onCompletion", ["MediaPlayer mp"]),
    ]),
    "Camera": dict(super="Object", methods=[
        _m("open", [], "Camera", True),
        _m("release"), _m("startPreview"), _m("stopPreview"),
        _m("takePicture"),
    ]),
    "SQLiteDatabase": dict(super="Object", methods=[
        _m("execSQL", ["String sql"]),
        _m("query", ["String table"], "Cursor"),
        _m("insert", ["String table", "String values"], "long"),
        _m("delete", ["String table", "String where"], "int"),
        _m("close"),
        _m("isOpen", [], "boolean"),
        _m("beginTransaction"), _m("endTransaction"),
    ]),
    "SQLiteOpenHelper": dict(super="Object", methods=[
        _m("getWritableDatabase", [], "SQLiteDatabase"),
        _m("getReadableDatabase", [], "SQLiteDatabase"),
        _m("close"),
    ]),
    "Cursor": dict(super="Object", methods=[
        _m("moveToFirst", [], "boolean"),
        _m("moveToNext", [], "boolean"),
        _m("getString", ["int column"], "String"),
        _m("getInt", ["int column"], "int"),
        _m("getCount", [], "int"),
        _m("close"),
        _m("isClosed", [], "boolean"),
        _m("requery", [], "boolean"),
    ]),
    "SharedPreferences": dict(super="Object", methods=[
        _m("getString", ["String key", "String def"], "String"),
        _m("getBoolean", ["String key", "boolean def"], "boolean"),
        _m("edit", [], "SharedPreferencesEditor"),
        _m("registerOnSharedPreferenceChangeListener",
           ["OnSharedPreferenceChangeListener listener"]),
        _m("unregisterOnSharedPreferenceChangeListener",
           ["OnSharedPreferenceChangeListener listener"]),
    ]),
    "SharedPreferencesEditor": dict(super="Object", methods=[
        _m("putString", ["String key", "String value"], "SharedPreferencesEditor"),
        _m("commit", [], "boolean"),
        _m("apply"),
    ]),
    "OnSharedPreferenceChangeListener": dict(interface=True, methods=[
        _m("onSharedPreferenceChanged", ["SharedPreferences prefs", "String key"]),
    ]),
    # ContentObserver is intentionally NOT modeled by the threadifier or
    # the API table: it reproduces the paper's "unanalyzed code" false-
    # negative source (section 8.6, the IBinder-through-the-framework case
    # in Mms) -- the runtime delivers onChange, the static analysis cannot
    # see it.
    "ContentResolver": dict(super="Object", methods=[
        _m("registerContentObserver", ["String uri", "ContentObserver observer"]),
        _m("unregisterContentObserver", ["ContentObserver observer"]),
        _m("query", ["String uri"], "Cursor"),
    ]),
    "ContentObserver": dict(super="Object", methods=[
        _m("onChange", ["boolean selfChange"]),
    ]),
    "PowerManager": dict(super="Object", methods=[
        _m("newWakeLock", ["int flags", "String tag"], "WakeLock"),
    ]),
    "WakeLock": dict(super="Object", methods=[
        _m("acquire"), _m("release"),
        _m("isHeld", [], "boolean"),
    ]),
    "NotificationManager": dict(super="Object", methods=[
        _m("notify", ["int id", "Notification notification"]),
        _m("cancel", ["int id"]),
    ]),
    "Notification": dict(super="Object", methods=[]),
    "Log": dict(super="Object", methods=[
        _m("d", ["String tag", "String msg"], "int", True),
        _m("i", ["String tag", "String msg"], "int", True),
        _m("w", ["String tag", "String msg"], "int", True),
        _m("e", ["String tag", "String msg"], "int", True),
    ]),
    "System": dict(super="Object", methods=[
        _m("currentTimeMillis", [], "long", True),
        _m("gc", [], "void", True),
    ]),
    "StringUtils": dict(super="Object", methods=[
        _m("isEmpty", ["String s"], "boolean", True),
        _m("equals", ["String a", "String b"], "boolean", True),
        _m("valueOf", ["int value"], "String", True),
    ]),
}


#: Names of all framework classes (used by the verifier and the threadifier
#: to distinguish application code from library code).
FRAMEWORK_CLASS_NAMES: Set[str] = set(FRAMEWORK_SPEC)


#: Concrete stand-in used when a framework method returns an interface type.
_INTERFACE_DEFAULTS = {"IBinder": "Binder"}


def concrete_return_class(type_name: str) -> Optional[str]:
    """The framework class a stub should allocate for its return value.

    Framework methods that hand the application environment objects
    (``findViewById``, ``Executors.newFixedThreadPool``, ``getWritable-
    Database``, ...) must return *something* for the points-to analysis to
    dispatch later calls on; the stub allocates a fresh instance of the
    declared (or a default concrete) class.
    """
    name = _INTERFACE_DEFAULTS.get(type_name, type_name)
    spec = FRAMEWORK_SPEC.get(name)
    if spec is None or spec.get("interface", False):
        return None
    return name


def build_framework_classes() -> List[ClassDef]:
    """Materialize the framework spec as IR class definitions.

    Non-void reference-returning methods get ``return new T()`` bodies so
    environment-provided objects exist in the heap abstraction; everything
    else gets an empty body.
    """
    classes: List[ClassDef] = []
    for name, spec in FRAMEWORK_SPEC.items():
        cls = ClassDef(
            name,
            super_name=spec.get("super"),
            interfaces=list(spec.get("interfaces", [])),
            is_interface=spec.get("interface", False),
        )
        for field_spec in spec.get("fields", []):
            type_name, field_name = field_spec.rsplit(" ", 1)
            cls.add_field(Field(field_name, parse_type(type_name)))
        for mname, params, ret, static in spec.get("methods", []):
            method = Method(
                name,
                mname,
                params=[
                    Parameter(p.rsplit(" ", 1)[1], parse_type(p.rsplit(" ", 1)[0]))
                    for p in params
                ],
                return_type=parse_type(ret),
                is_static=static,
            )
            if not cls.is_interface:
                builder = IRBuilder(method)
                ret_type = method.return_type
                if ret_type.is_reference():
                    ret_class = concrete_return_class(ret_type.name)
                    if ret_class is not None:
                        obj = builder.new(ret_class)
                        builder.ret(obj)
                builder.finish()
            cls.add_method(method)
        classes.append(cls)
    return classes


def framework_module(rewrite: Optional[Callable[[Module], None]] = None) \
        -> Module:
    """The framework stubs as a module of their own: built, optionally
    rewritten in place by ``rewrite``, verified and sealed."""
    module = Module("android")
    for cls in build_framework_classes():
        module.add_class(cls)
    if rewrite is not None:
        rewrite(module)
    problems = verify_module(module, known_external=FRAMEWORK_CLASS_NAMES)
    if problems:
        raise RuntimeError("framework stubs failed IR verification:\n  "
                           + "\n  ".join(problems))
    return module.seal()


@lru_cache(maxsize=None)
def shared_framework() -> Module:
    """The framework stubs, built, verified and sealed once per process
    on first use -- a precomputed summary every app module shares as its
    prelude and never writes into."""
    return framework_module()


def install_framework(module: Module) -> Module:
    """Add the framework stubs to an empty module (before lowering app
    sources): the shared classes of :func:`shared_framework`, not a copy."""
    module.set_prelude(shared_framework())
    return module


def is_framework_class(name: str) -> bool:
    return name in FRAMEWORK_CLASS_NAMES


def app_override(module: Module, class_name: str,
                 method_name: str) -> Optional[Method]:
    """The app method a call of ``method_name`` on ``class_name`` runs, or
    ``None`` when it resolves to a framework stub or to nothing."""
    resolved = module.resolve_method(class_name, method_name)
    if resolved is None or is_framework_class(resolved.class_name):
        return None
    return resolved


def provided_fields(module: Module,
                    class_name: str) -> List[Tuple[FieldRef, str]]:
    """Environment injection: the framework-typed instance fields of an app
    component (``Handler handler;``, ``ExecutorService pool;``) that the
    Android runtime provides, each with the concrete class it provides.
    App-typed fields are never provided -- their values must flow from
    real application code -- and a field shadowed by a subclass field of
    the same name is skipped."""
    provided: List[Tuple[FieldRef, str]] = []
    seen: Set[str] = set()
    for owner in [class_name, *module.superclasses(class_name)]:
        cls = module.lookup_class(owner)
        if cls is None or is_framework_class(owner):
            break
        for field_obj in cls.fields.values():
            if field_obj.name in seen or field_obj.is_static:
                continue
            seen.add(field_obj.name)
            if not field_obj.type.is_reference() \
                    or not is_framework_class(field_obj.type.name):
                continue
            concrete = concrete_return_class(field_obj.type.name)
            if concrete is not None:
                provided.append((FieldRef(owner, field_obj.name), concrete))
    return provided


def declared_callbacks(module: Module, class_name: str,
                       names: AbstractSet[str]) -> List[str]:
    """The methods in ``names`` that an app component declares itself or
    inherits from an app superclass -- the callbacks that run while the
    component is active -- each once, in first-declared order."""
    found: List[str] = []
    for owner in [class_name, *module.superclasses(class_name)]:
        if is_framework_class(owner):
            break
        cls = module.lookup_class(owner)
        if cls is None:
            continue
        found.extend(name for name in cls.methods
                     if name in names and name not in found)
    return found
