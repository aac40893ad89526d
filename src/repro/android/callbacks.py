"""Catalog of Android entry-callback names and categories.

This is the analogue of the FlowDroid listener-callback list the paper uses
to identify entry points (section 8.1).  A method of an application class
is an *entry callback* (EC) when it overrides one of these framework
callbacks; posted callbacks (PCs) are discovered from registration calls
via :mod:`repro.android.api`.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Dict, FrozenSet


class CallbackCategory(Enum):
    """Reporting categories used by section 7 of the paper."""

    LIFECYCLE = auto()       #: Activity/Service/Application lifecycle (EC)
    UI = auto()              #: user-interaction callbacks (EC)
    SYSTEM = auto()          #: sensor / system event callbacks (EC)
    POSTED_RUNNABLE = auto() #: Runnable.run posted to a looper (PC)
    HANDLER_MESSAGE = auto() #: Handler.handleMessage (PC)
    SERVICE_CONN = auto()    #: onServiceConnected/Disconnected (PC)
    RECEIVER = auto()        #: onReceive from registerReceiver (PC)
    ASYNC_PRE = auto()       #: AsyncTask.onPreExecute (PC)
    ASYNC_PROGRESS = auto()  #: AsyncTask.onProgressUpdate (PC)
    ASYNC_POST = auto()      #: AsyncTask.onPostExecute (PC)
    FRAGMENT = auto()        #: Fragment lifecycle via a committed transaction (PC)
    RECEIVER_RESULT = auto() #: result receiver of sendOrderedBroadcast (PC)


ACTIVITY_LIFECYCLE: FrozenSet[str] = frozenset({
    "onCreate", "onStart", "onRestart", "onResume",
    "onPause", "onStop", "onDestroy",
})

SERVICE_LIFECYCLE: FrozenSet[str] = frozenset({
    "onCreate", "onStartCommand", "onBind", "onUnbind", "onRebind",
    "onTaskRemoved", "onTimeout", "onDestroy",
})

#: Fragment lifecycle callbacks delivered after a committed transaction.
FRAGMENT_LIFECYCLE: FrozenSet[str] = frozenset({
    "onAttach", "onCreate", "onStart", "onResume",
    "onPause", "onStop", "onDestroy", "onDetach",
})

APPLICATION_LIFECYCLE: FrozenSet[str] = frozenset({
    "onCreate", "onTerminate", "onLowMemory",
})

#: UI-interaction entry callbacks declared on Activity (menu/key handling)
#: or registered through setOn*Listener APIs.
UI_CALLBACKS: FrozenSet[str] = frozenset({
    "onClick", "onLongClick", "onTouch", "onItemClick",
    "onCreateContextMenu", "onContextItemSelected",
    "onCreateOptionsMenu", "onOptionsItemSelected",
    "onKeyDown", "onBackPressed", "onMenuItemClick",
})

#: System/sensor entry callbacks.
SYSTEM_CALLBACKS: FrozenSet[str] = frozenset({
    "onLocationChanged", "onStatusChanged",
    "onProviderEnabled", "onProviderDisabled",
    "onSensorChanged", "onAccuracyChanged",
    "onActivityResult", "onRetainNonConfigurationInstance",
    "onSaveInstanceState", "onRestoreInstanceState",
    "onNewIntent", "onConfigurationChanged", "onLowMemory",
    "onCompletion", "onSharedPreferenceChanged",
})

#: Activity methods that are entry callbacks when overridden by an app class.
ACTIVITY_ENTRY_CALLBACKS: FrozenSet[str] = (
    ACTIVITY_LIFECYCLE
    | UI_CALLBACKS
    | SYSTEM_CALLBACKS
)

#: Categorize a PC by the API that posts it.
PC_CATEGORY_BY_CALLBACK: Dict[str, CallbackCategory] = {
    "run": CallbackCategory.POSTED_RUNNABLE,
    "handleMessage": CallbackCategory.HANDLER_MESSAGE,
    "onServiceConnected": CallbackCategory.SERVICE_CONN,
    "onServiceDisconnected": CallbackCategory.SERVICE_CONN,
    "onReceive": CallbackCategory.RECEIVER,
    "onPreExecute": CallbackCategory.ASYNC_PRE,
    "onProgressUpdate": CallbackCategory.ASYNC_PROGRESS,
    "onPostExecute": CallbackCategory.ASYNC_POST,
}


def categorize_entry_callback(method_name: str, component_kind: str) -> CallbackCategory:
    """Category of an entry callback given its name and owning component kind."""
    if component_kind == "activity" and method_name in ACTIVITY_LIFECYCLE:
        return CallbackCategory.LIFECYCLE
    if component_kind == "service" and method_name in SERVICE_LIFECYCLE:
        return CallbackCategory.LIFECYCLE
    if component_kind == "application" and method_name in APPLICATION_LIFECYCLE:
        return CallbackCategory.LIFECYCLE
    if method_name in UI_CALLBACKS:
        return CallbackCategory.UI
    return CallbackCategory.SYSTEM
