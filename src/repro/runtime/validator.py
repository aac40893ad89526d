"""Dynamic validation of static UAF warnings (paper section 7 / 8.4).

The paper's authors confirmed warnings manually, perturbing schedules with
timers and spin loops.  We automate the same idea: search the simulator's
schedule space for an execution that raises a NullPointerException
involving the warning's field.

Two strategies, combined by :func:`validate_warning`:

* **random search** -- seeded random schedules (cheap, surprisingly
  effective for event-order bugs);
* **bounded systematic search** -- depth-first over schedule prefixes with
  branching restricted to *interesting* points (events, dispatches, and
  steps about to touch the racy field), a CHESS-style preemption bounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from ..ir import GetField, GetStatic, Instruction, Invoke, PutField, PutStatic
from ..race.warnings import UafWarning
from .simulator import RandomScheduler, Simulator


@dataclass
class ValidationResult:
    """Outcome of the schedule search for one warning."""

    confirmed: bool
    schedules_tried: int
    trace: List[str] = field(default_factory=list)
    exception: Optional[str] = None

    def __bool__(self) -> bool:
        return self.confirmed


def _touches_field(instr: Optional[Instruction], field_names: Set[str]) -> bool:
    if isinstance(instr, (GetField, PutField, GetStatic, PutStatic)):
        return instr.fieldref.field_name in field_names
    if isinstance(instr, Invoke):
        return True  # calls can dispatch callbacks / post events
    return False


def _null_base_from_field(sim: Simulator, uid: int,
                          field_names: Set[str]) -> bool:
    """Does the faulting instruction's null base value trace back to one of
    the warning's fields within its method?"""
    from ..ir import Assign, Local

    instr = sim.module.instruction_at(uid)
    base = getattr(instr, "base", None)
    if not isinstance(base, Local):
        return False
    method = sim.module.method_of(uid)
    worklist = [base.name]
    seen: Set[str] = set()
    while worklist:
        name = worklist.pop()
        if name in seen:
            continue
        seen.add(name)
        for candidate in method.instructions():
            if candidate.target_local() != name:
                continue
            if isinstance(candidate, (GetField, GetStatic)):
                if candidate.fieldref.field_name in field_names:
                    return True
            elif isinstance(candidate, Assign) and isinstance(
                candidate.source, Local
            ):
                worklist.append(candidate.source.name)
    return False


def _npe_matches(sim: Simulator, field_names: Set[str]) -> bool:
    for exc in sim.npe_events:
        if _null_base_from_field(sim, exc.uid, field_names):
            return True
    return False


class TargetedScheduler:
    """Directed race construction (CHESS-style).

    Stalls any thread whose *next* instruction is the warning's use until
    the free instruction has executed (tracked via a simulator
    watchpoint), and prefers stepping a thread that is about to execute
    the free.  Event/dispatch choices are randomized so the surrounding
    callback order is still explored.
    """

    def __init__(self, seed: int, use_uids: Set[int], free_uids: Set[int],
                 use_hint: str = "", free_hint: str = "") -> None:
        import random

        self._rng = random.Random(seed)
        self.use_uids = use_uids
        self.free_uids = free_uids
        #: hints are "Class.method" of the callbacks containing use/free
        self.use_hint = use_hint
        self.free_hint = free_hint

    @staticmethod
    def _matches_hint(event_key: str, hint: str) -> bool:
        """Does an event key ("Cls#cb" or "Cls@oid#cb") match "Cls.cb"?"""
        if not hint or "." not in hint:
            return False
        cls, callback = hint.rsplit(".", 1)
        if not event_key.endswith(f"#{callback}"):
            return False
        head = event_key.rsplit("#", 1)[0]
        return head == cls or head.startswith(f"{cls}@")

    def _next_uid(self, sim: Simulator, choice) -> Optional[int]:
        if choice[0] != "step":
            return None
        thread = sim.threads[choice[1]]
        if not thread.frames:
            return None
        instr = thread.top().current_instruction()
        return instr.uid if instr is not None else None

    def choose(self, sim: Simulator, options):
        if not options:
            return None
        free_done = bool(self.free_uids & sim.hit_watchpoints)
        if free_done:
            hinted = [
                c for c in options
                if c[0] == "event" and self._matches_hint(c[1], self.use_hint)
            ]
            if hinted:
                return hinted[0]
            return self._rng.choice(options)
        next_uids = {id(c): self._next_uid(sim, c) for c in options}
        about_to_free = [c for c in options
                         if next_uids[id(c)] in self.free_uids]
        use_stalled = any(next_uids[id(c)] in self.use_uids for c in options)
        if use_stalled and about_to_free:
            # a thread is parked right at the use: fire the free now
            return about_to_free[0]
        # steer the event order toward the callback containing the free --
        # but only sometimes: firing it too eagerly can waste its repeat
        # budget before the free's enabling conditions hold
        hinted = [
            c for c in options
            if c[0] == "event" and self._matches_hint(c[1], self.free_hint)
        ]
        if hinted and self._rng.random() < 0.5:
            return self._rng.choice(hinted)
        # hold the use and the free instructions back; everything else
        # (including dispatching the use's own callback, which is what
        # parks a thread at the use) makes progress
        allowed = [
            c for c in options
            if next_uids[id(c)] not in self.use_uids
            and next_uids[id(c)] not in self.free_uids
        ]
        if allowed:
            return self._rng.choice(allowed)
        if about_to_free:
            return about_to_free[0]
        return self._rng.choice(options)


def _random_search(
    make_sim: Callable[[], Simulator],
    field_names: Set[str],
    attempts: int,
    max_decisions: int,
    warning: Optional[UafWarning] = None,
) -> Optional[ValidationResult]:
    for seed in range(attempts):
        sim = make_sim()
        if warning is not None:
            # alternate plain-random and targeted schedules
            sim.watchpoints = {warning.free_uid}
            scheduler = (
                TargetedScheduler(
                    seed, {warning.use_uid}, {warning.free_uid},
                    use_hint=warning.use_method,
                    free_hint=warning.free_method,
                )
                if seed % 2 else RandomScheduler(seed)
            )
        else:
            scheduler = RandomScheduler(seed)
        sim.run(scheduler, max_decisions=max_decisions)
        if _npe_matches(sim, field_names):
            return ValidationResult(
                confirmed=True,
                schedules_tried=seed + 1,
                trace=list(sim.trace),
                exception=str(sim.npe_events[0]),
            )
    return None


def _systematic_search(
    base_sim: Simulator,
    field_names: Set[str],
    max_branches: int,
    max_decisions: int,
) -> Tuple[bool, int, Optional[Simulator]]:
    """Bounded DFS; branch only at interesting points."""
    explored = 0
    stack: List[Simulator] = [base_sim]
    while stack and explored < max_branches:
        sim = stack.pop()
        # run deterministically until an interesting branch point
        for _ in range(max_decisions):
            if _npe_matches(sim, field_names):
                return True, explored, sim
            options = sim.choices()
            if not options:
                break
            interesting = [
                c for c in options
                if c[0] in ("dispatch", "event")
                or (
                    c[0] == "step"
                    and _touches_field(
                        sim.threads[c[1]].top().current_instruction()
                        if sim.threads[c[1]].frames else None,
                        field_names,
                    )
                )
            ]
            if len(interesting) > 1 and explored < max_branches:
                explored += 1
                # fork: explore every interesting option
                for choice in interesting[1:]:
                    fork = sim.fork()
                    fork.apply(choice)
                    stack.append(fork)
                sim.apply(interesting[0])
            else:
                # deterministic progress: prefer plain steps
                plain = [c for c in options if c[0] == "step"]
                sim.apply(plain[0] if plain else options[0])
        if _npe_matches(sim, field_names):
            return True, explored, sim
    return False, explored, None


def validate_warning(
    make_sim: Callable[[], Simulator],
    warning: UafWarning,
    random_attempts: int = 60,
    systematic_branches: int = 40,
    max_decisions: int = 1500,
) -> ValidationResult:
    """Search for a schedule that makes the warning's UAF fire."""
    field_names = {warning.fieldref.field_name}

    result = _random_search(make_sim, field_names, random_attempts,
                            max_decisions, warning)
    if result is not None:
        return result

    found, explored, sim = _systematic_search(
        make_sim(), field_names, systematic_branches, max_decisions
    )
    if found and sim is not None:
        return ValidationResult(
            confirmed=True,
            schedules_tried=random_attempts + explored,
            trace=list(sim.trace),
            exception=str(sim.npe_events[0]),
        )
    return ValidationResult(
        confirmed=False,
        schedules_tried=random_attempts + explored,
    )
