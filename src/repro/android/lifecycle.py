"""The Activity lifecycle automaton and the sound MHB relation tables.

The lifecycle automaton (paper section 2.1 / 6.1.1) drives two consumers:

* the **MHB-Lifecycle filter**: statically sound must-happens-before edges
  (``onCreate`` precedes everything; everything precedes ``onDestroy``;
  *no* MHB among onResume/onPause/... because of back edges), and
* the **runtime scheduler**, which only fires lifecycle callbacks along
  legal automaton paths when exploring schedules.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

#: Legal lifecycle transitions of an Activity instance, including the back
#: edges (onPause -> onResume, onStop -> onRestart -> onStart) that make
#: most pairwise orders statically circular.
ACTIVITY_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "<launch>": ("onCreate",),
    "onCreate": ("onStart",),
    "onStart": ("onResume",),
    "onRestart": ("onStart",),
    "onResume": ("onPause",),
    "onPause": ("onResume", "onStop"),
    "onStop": ("onRestart", "onDestroy"),
    "onDestroy": (),
}

#: States in which UI and system callbacks may fire (activity is at least
#: started).  Used by the runtime scheduler.
ACTIVE_STATES: FrozenSet[str] = frozenset({"onStart", "onResume", "onPause"})

#: Service lifecycle including the foreground-service callbacks:
#: ``onTaskRemoved`` (the user swiped the task away) and ``onTimeout``
#: (the short-service time limit expired) both fire after the service has
#: been started and before ``onDestroy`` -- but in no fixed order relative
#: to each other, which is exactly the ordering gap the generator's
#: foreground-service patterns exercise.
SERVICE_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "<launch>": ("onCreate",),
    "onCreate": ("onStartCommand", "onBind"),
    "onStartCommand": ("onStartCommand", "onTaskRemoved", "onTimeout",
                       "onDestroy"),
    "onTaskRemoved": ("onDestroy",),
    "onTimeout": ("onDestroy",),
    "onBind": ("onUnbind",),
    "onUnbind": ("onRebind", "onDestroy"),
    "onRebind": ("onUnbind",),
    "onDestroy": (),
}

#: Fragment transaction lifecycle (FragmentTransaction.add/replace ...
#: commit): attach/create run once up front, destroy/detach once at the
#: end, and the started/resumed states cycle -- mirroring the Activity
#: automaton one level down.  Consumed by the MHB-Fragment filter via
#: :data:`FRAGMENT_MHB`.
FRAGMENT_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "<launch>": ("onAttach",),
    "onAttach": ("onCreate",),
    "onCreate": ("onStart",),
    "onStart": ("onResume",),
    "onResume": ("onPause",),
    "onPause": ("onResume", "onStop"),
    "onStop": ("onStart", "onDestroy"),
    "onDestroy": ("onDetach",),
    "onDetach": (),
}


def _reachable(transitions: Dict[str, Tuple[str, ...]], start: str) -> Set[str]:
    seen: Set[str] = set()
    work: List[str] = [start]
    while work:
        state = work.pop()
        for succ in transitions.get(state, ()):
            if succ not in seen:
                seen.add(succ)
                work.append(succ)
    return seen


def sound_mhb_pairs(transitions: Dict[str, Tuple[str, ...]]) -> Set[Tuple[str, str]]:
    """Statically sound must-happens-before pairs ``(a, b)`` (a before b).

    ``a`` MHB ``b`` holds iff ``b`` is reachable from ``a`` but ``a`` is not
    reachable from ``b`` *and neither participates in a cycle through the
    other* -- i.e. the relation survives every back edge.  For the Activity
    automaton this yields exactly the paper's claim: ``onCreate`` precedes
    everything, everything precedes ``onDestroy``, and no MHB exists among
    the resumable states.
    """
    states = [s for s in transitions if s != "<launch>"]
    reach = {s: _reachable(transitions, s) for s in states}
    pairs: Set[Tuple[str, str]] = set()
    for a in states:
        for b in states:
            if a == b:
                continue
            if b in reach[a] and a not in reach[b]:
                # a cannot re-run after b has run: a must not be reachable
                # from any state on a cycle containing b... the reach check
                # above already encodes this for our DAG-with-back-edges
                # automata because re-running `a` would require b -> a.
                pairs.add((a, b))
    return pairs


#: Sound MHB pairs among Activity lifecycle callbacks.
ACTIVITY_MHB: FrozenSet[Tuple[str, str]] = frozenset(
    sound_mhb_pairs(ACTIVITY_TRANSITIONS)
)

#: Sound MHB pairs among Service lifecycle callbacks.
SERVICE_MHB: FrozenSet[Tuple[str, str]] = frozenset(
    sound_mhb_pairs(SERVICE_TRANSITIONS)
)

#: Sound MHB pairs among Fragment lifecycle callbacks (MHB-Fragment).
FRAGMENT_MHB: FrozenSet[Tuple[str, str]] = frozenset(
    sound_mhb_pairs(FRAGMENT_TRANSITIONS)
)


def activity_mhb(first: str, second: str, ui_callbacks: FrozenSet[str]) -> bool:
    """Does ``first`` must-happen-before ``second`` for one Activity?

    Extends the automaton pairs with the paper's rule for non-lifecycle
    callbacks: every UI/system callback happens after ``onCreate`` and
    before ``onDestroy``.
    """
    if (first, second) in ACTIVITY_MHB:
        return True
    if first == "onCreate" and second in ui_callbacks:
        return True
    if second == "onDestroy" and first in ui_callbacks:
        return True
    return False


#: AsyncTask MHB edges (section 6.1.1, MHB-AsyncTask).
ASYNCTASK_MHB: FrozenSet[Tuple[str, str]] = frozenset({
    ("onPreExecute", "doInBackground"),
    ("onPreExecute", "onProgressUpdate"),
    ("onPreExecute", "onPostExecute"),
    ("doInBackground", "onPostExecute"),
    ("onProgressUpdate", "onPostExecute"),
})

#: Service-connection MHB (section 6.1.1, MHB-Service).
SERVICE_CONNECTION_MHB: FrozenSet[Tuple[str, str]] = frozenset({
    ("onServiceConnected", "onServiceDisconnected"),
})

#: Ordered-broadcast MHB: every dynamically registered receiver handles an
#: ordered broadcast *before* the result receiver passed to
#: ``sendOrderedBroadcast`` runs (Android delivers the result receiver
#: last).  Encoded as a category-level contract: a registered receiver's
#: ``onReceive`` must-happen-before a result receiver's ``onReceive``.
ORDERED_BROADCAST_MHB: FrozenSet[Tuple[str, str]] = frozenset({
    ("onReceive", "onReceive"),
})
