"""Semantic table of concurrency-relevant Android APIs.

The threadifier, the filters and the simulator's intrinsic table all need
to know what a framework call *means*: does it post a callback, spawn a
thread, register a listener, or cancel pending work?  This module is the
single source of truth, mirroring the roles of FlowDroid's listener-
callback list and nAdroid's modified dummy-main generator (paper
sections 4 and 8.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, auto
from typing import Any, Dict, Mapping, Optional, Tuple

from ..ir import Module


class ApiKind(Enum):
    """What a framework call does, from the concurrency model's viewpoint."""

    POST_RUNNABLE = auto()       #: enqueue arg Runnable.run on the caller's looper
    SEND_MESSAGE = auto()        #: enqueue receiver Handler.handleMessage
    SPAWN_THREAD = auto()        #: start a native thread
    ASYNCTASK_EXECUTE = auto()   #: start an AsyncTask (doInBackground + PCs)
    ASYNCTASK_PUBLISH = auto()   #: publishProgress -> onProgressUpdate PC
    BIND_SERVICE = auto()        #: register onServiceConnected/Disconnected PCs
    REGISTER_RECEIVER = auto()   #: register onReceive PC
    REGISTER_FRAGMENT = auto()   #: FragmentTransaction.add/replace -> fragment PCs
    SEND_ORDERED_BROADCAST = auto()  #: post result receiver's onReceive PC
    REGISTER_LISTENER = auto()   #: register UI/system entry callbacks
    CANCEL_FINISH = auto()       #: Activity.finish -- no further UI callbacks
    CANCEL_UNBIND = auto()       #: unbindService
    CANCEL_UNREGISTER = auto()   #: unregisterReceiver / removeUpdates / …
    CANCEL_REMOVE_POSTS = auto() #: Handler.removeCallbacks*/removeMessages
    CANCEL_ASYNCTASK = auto()    #: AsyncTask.cancel


@dataclass(frozen=True)
class ApiSpec:
    """One concurrency-relevant framework method.

    ``callback_arg`` is the argument index carrying the callback object
    (``None`` means the receiver itself, e.g. ``Thread.start``);
    ``callbacks`` names the methods that the framework will subsequently
    invoke on that object -- or, for ``CANCEL_UNREGISTER``, the methods it
    stops invoking (derived below from the registrations it undoes).
    """

    kind: ApiKind
    callback_arg: Optional[int] = None
    callbacks: Tuple[str, ...] = ()


#: (declaring class, method name) -> spec.  Lookups walk the supertype chain
#: so calls through subclasses (e.g. a user Activity) resolve here.
API_TABLE: Dict[Tuple[str, str], ApiSpec] = {
    # -- posting to a looper ---------------------------------------------------
    ("Handler", "post"): ApiSpec(ApiKind.POST_RUNNABLE, 0, ("run",)),
    ("Handler", "postDelayed"): ApiSpec(ApiKind.POST_RUNNABLE, 0, ("run",)),
    ("View", "post"): ApiSpec(ApiKind.POST_RUNNABLE, 0, ("run",)),
    ("View", "postDelayed"): ApiSpec(ApiKind.POST_RUNNABLE, 0, ("run",)),
    ("Activity", "runOnUiThread"): ApiSpec(ApiKind.POST_RUNNABLE, 0, ("run",)),
    ("Handler", "sendMessage"): ApiSpec(ApiKind.SEND_MESSAGE, None, ("handleMessage",)),
    ("Handler", "sendMessageDelayed"): ApiSpec(
        ApiKind.SEND_MESSAGE, None, ("handleMessage",)),
    ("Handler", "sendEmptyMessage"): ApiSpec(
        ApiKind.SEND_MESSAGE, None, ("handleMessage",)),
    # -- threads ---------------------------------------------------------------
    ("Thread", "start"): ApiSpec(ApiKind.SPAWN_THREAD, None, ("run",)),
    ("ExecutorService", "execute"): ApiSpec(ApiKind.SPAWN_THREAD, 0, ("run",)),
    ("ExecutorService", "submit"): ApiSpec(ApiKind.SPAWN_THREAD, 0, ("run",)),
    ("Timer", "schedule"): ApiSpec(ApiKind.SPAWN_THREAD, 0, ("run",)),
    # -- AsyncTask ----------------------------------------------------------------
    ("AsyncTask", "execute"): ApiSpec(
        ApiKind.ASYNCTASK_EXECUTE, None,
        ("onPreExecute", "doInBackground", "onProgressUpdate", "onPostExecute"),
    ),
    ("AsyncTask", "publishProgress"): ApiSpec(
        ApiKind.ASYNCTASK_PUBLISH, None, ("onProgressUpdate",)),
    # -- services and receivers ------------------------------------------------------
    ("Context", "bindService"): ApiSpec(
        ApiKind.BIND_SERVICE, 1, ("onServiceConnected", "onServiceDisconnected")),
    ("Context", "registerReceiver"): ApiSpec(
        ApiKind.REGISTER_RECEIVER, 0, ("onReceive",)),
    ("Context", "sendOrderedBroadcast"): ApiSpec(
        ApiKind.SEND_ORDERED_BROADCAST, 1, ("onReceive",)),
    # -- fragments (transaction commit drives the fragment lifecycle) ------------------
    ("FragmentTransaction", "add"): ApiSpec(
        ApiKind.REGISTER_FRAGMENT, 1,
        ("onAttach", "onCreate", "onStart", "onResume",
         "onPause", "onStop", "onDestroy", "onDetach"),
    ),
    ("FragmentTransaction", "replace"): ApiSpec(
        ApiKind.REGISTER_FRAGMENT, 1,
        ("onAttach", "onCreate", "onStart", "onResume",
         "onPause", "onStop", "onDestroy", "onDetach"),
    ),
    # -- imperative listener registration (entry callbacks, Fig. 3(b)) -----------------
    ("View", "setOnClickListener"): ApiSpec(
        ApiKind.REGISTER_LISTENER, 0, ("onClick",)),
    ("View", "setOnLongClickListener"): ApiSpec(
        ApiKind.REGISTER_LISTENER, 0, ("onLongClick",)),
    ("View", "setOnTouchListener"): ApiSpec(
        ApiKind.REGISTER_LISTENER, 0, ("onTouch",)),
    ("ListView", "setOnItemClickListener"): ApiSpec(
        ApiKind.REGISTER_LISTENER, 0, ("onItemClick",)),
    ("LocationManager", "requestLocationUpdates"): ApiSpec(
        ApiKind.REGISTER_LISTENER, 3,
        ("onLocationChanged", "onStatusChanged",
         "onProviderEnabled", "onProviderDisabled"),
    ),
    ("SensorManager", "registerListener"): ApiSpec(
        ApiKind.REGISTER_LISTENER, 0, ("onSensorChanged", "onAccuracyChanged")),
    ("MediaPlayer", "setOnCompletionListener"): ApiSpec(
        ApiKind.REGISTER_LISTENER, 0, ("onCompletion",)),
    ("SharedPreferences", "registerOnSharedPreferenceChangeListener"): ApiSpec(
        ApiKind.REGISTER_LISTENER, 0, ("onSharedPreferenceChanged",)),
    # -- cancellation (Cancel-Happens-Before sources, section 6.2.1) -------------------
    ("Activity", "finish"): ApiSpec(ApiKind.CANCEL_FINISH),
    ("Context", "unbindService"): ApiSpec(ApiKind.CANCEL_UNBIND, 0),
    ("Context", "unregisterReceiver"): ApiSpec(ApiKind.CANCEL_UNREGISTER, 0),
    ("LocationManager", "removeUpdates"): ApiSpec(ApiKind.CANCEL_UNREGISTER, 0),
    ("SensorManager", "unregisterListener"): ApiSpec(ApiKind.CANCEL_UNREGISTER, 0),
    ("SharedPreferences", "unregisterOnSharedPreferenceChangeListener"): ApiSpec(
        ApiKind.CANCEL_UNREGISTER, 0),
    ("Handler", "removeCallbacks"): ApiSpec(ApiKind.CANCEL_REMOVE_POSTS, 0),
    ("Handler", "removeCallbacksAndMessages"): ApiSpec(ApiKind.CANCEL_REMOVE_POSTS),
    ("Handler", "removeMessages"): ApiSpec(ApiKind.CANCEL_REMOVE_POSTS),
    ("View", "removeCallbacks"): ApiSpec(ApiKind.CANCEL_REMOVE_POSTS, 0),
    ("AsyncTask", "cancel"): ApiSpec(ApiKind.CANCEL_ASYNCTASK),
    ("Timer", "cancel"): ApiSpec(ApiKind.CANCEL_REMOVE_POSTS),
}


def _derive_unregistered_callbacks() -> None:
    """A ``CANCEL_UNREGISTER`` row undoes the receiver and listener
    registrations declared on its own class (``removeUpdates`` undoes
    ``requestLocationUpdates``), so its callbacks are theirs."""
    registered: Dict[str, Tuple[str, ...]] = {}
    for (class_name, _), spec in API_TABLE.items():
        if spec.kind in (ApiKind.REGISTER_RECEIVER, ApiKind.REGISTER_LISTENER):
            registered[class_name] = registered.get(class_name, ()) \
                + spec.callbacks
    for key, spec in API_TABLE.items():
        if spec.kind is ApiKind.CANCEL_UNREGISTER:
            API_TABLE[key] = replace(spec, callbacks=registered[key[0]])


_derive_unregistered_callbacks()

CANCEL_KINDS = {
    ApiKind.CANCEL_FINISH,
    ApiKind.CANCEL_UNBIND,
    ApiKind.CANCEL_UNREGISTER,
    ApiKind.CANCEL_REMOVE_POSTS,
    ApiKind.CANCEL_ASYNCTASK,
}

POSTING_KINDS = {
    ApiKind.POST_RUNNABLE,
    ApiKind.SEND_MESSAGE,
    ApiKind.ASYNCTASK_PUBLISH,
}


def lookup_in_supertypes(table: Mapping[Tuple[str, str], Any], module: Module,
                         class_name: str, method_name: str) -> Any:
    """The entry of ``table`` for ``class_name.method_name`` or, failing
    that, for the same method on the first of its supertypes (in sorted
    order) that has one; ``None`` if there is none."""
    for name in [class_name, *sorted(module.supertypes(class_name))]:
        entry = table.get((name, method_name))
        if entry is not None:
            return entry
    return None


def lookup_api(
    module: Module, class_name: str, method_name: str
) -> Optional[ApiSpec]:
    """Resolve a call site ``class_name.method_name`` against the API
    table; its declared class is usually an app subclass
    (``MyActivity.runOnUiThread``)."""
    return lookup_in_supertypes(API_TABLE, module, class_name, method_name)
