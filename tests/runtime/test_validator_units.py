"""Validator unit tests: hint matching, targeted scheduling, results."""

from pathlib import Path

import pytest

from repro.core import analyze_app
from repro.runtime import (
    FifoScheduler,
    RandomScheduler,
    Simulator,
    validate_warning,
    ValidationResult,
)
from repro.runtime.validator import TargetedScheduler


def test_hint_matching_exact_component_events():
    match = TargetedScheduler._matches_hint
    assert match("A#onPause", "A.onPause")
    assert match("A@17#onClick", "A.onClick")
    assert not match("A#onPause", "A.onResume")
    assert not match("AB#onPause", "A.onPause")
    assert not match("A#onPause", "")
    assert not match("A#onPause", "garbage-without-dot")


def test_validation_result_truthiness():
    assert ValidationResult(confirmed=True, schedules_tried=1)
    assert not ValidationResult(confirmed=False, schedules_tried=9)


# the Figure 4(d) back-button bug: onPause frees, onResume does NOT
# restore, the next click crashes
SAME_LOOPER_BUG = """
class F { void use() { } }
class A extends Activity {
  F f;
  void onCreate(Bundle b) { f = new F(); }
  void onClick(View v) { f.use(); }
  void onPause() { f = null; }
}
"""


def make_factory(source):
    result = analyze_app(source)
    program = result.program

    def make_sim():
        return Simulator(program.module, program.manifest)

    return result, make_sim


def test_validator_confirms_same_looper_order_bug():
    result, make_sim = make_factory(SAME_LOOPER_BUG)
    target = [w for w in result.remaining()
              if w.fieldref.field_name == "f"]
    assert target
    verdict = validate_warning(make_sim, target[0], random_attempts=30,
                               systematic_branches=10, max_decisions=600)
    assert verdict.confirmed
    assert verdict.trace, "a confirming run must carry its event trace"
    assert "NullPointerException" in (verdict.exception or "")


def test_validator_rejects_flag_guarded_free():
    source = """
    class F { void use() { } }
    class A extends Activity {
      F f;
      boolean never;
      void onCreate(Bundle b) { f = new F(); }
      void onClick(View v) { f.use(); }
      void onStop() {
        if (never) { f = null; }
      }
    }
    """
    result, make_sim = make_factory(source)
    target = [w for w in result.remaining()
              if w.fieldref.field_name == "f"]
    assert target, "statically the pair survives (path-insensitivity)"
    verdict = validate_warning(make_sim, target[0], random_attempts=20,
                               systematic_branches=10, max_decisions=600)
    assert not verdict.confirmed


def test_validator_matches_npe_to_the_right_field():
    # two fields crash; validating the `safe` warning must not be satisfied
    # by the `other` field's NPE
    source = """
    class F { void use() { } }
    class A extends Activity {
      F other;
      F safe;
      boolean never;
      void onCreate(Bundle b) { safe = new F(); }
      void onResume() { other.use(); }
      void onClick(View v) { safe.use(); }
      void onStop() {
        if (never) { safe = null; }
      }
    }
    """
    result, make_sim = make_factory(source)
    safe_warnings = [w for w in result.remaining()
                     if w.fieldref.field_name == "safe"]
    assert safe_warnings
    verdict = validate_warning(make_sim, safe_warnings[0],
                               random_attempts=20, systematic_branches=8,
                               max_decisions=600)
    assert not verdict.confirmed, \
        "the ever-present `other` NPE must not confirm the `safe` warning"


QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.mjava"


def test_a_fork_records_its_exceptions_on_itself():
    result, make_sim = make_factory(QUICKSTART.read_text())
    fresh = make_sim().run(RandomScheduler(0))
    sim = make_sim()
    fork = sim.fork().run(RandomScheduler(0))
    assert fork.npe_events and fork.exceptions == fresh.exceptions
    assert sim.exceptions == [] and sim.trace == [] and sim.total_steps == 0


def test_a_fork_shares_the_program_and_copies_the_state():
    result, make_sim = make_factory(QUICKSTART.read_text())
    sim = make_sim()
    while not any(thread.frames for thread in sim.threads.values()):
        sim.apply(FifoScheduler().choose(sim, sim.choices()))
    fork = sim.fork()
    assert fork.module is sim.module
    assert fork.intrinsics is sim.intrinsics
    for tid, thread in sim.threads.items():
        copied = fork.threads[tid]
        assert copied is not thread
        assert all(a.method is b.method and a is not b
                   for a, b in zip(copied.frames, thread.frames))
    assert fork.heap is not sim.heap and fork.world is not sim.world
    assert fork.interpreter.heap is fork.heap


def test_validation_leaves_the_program_unchanged():
    result, make_sim = make_factory(QUICKSTART.read_text())
    module = result.program.module

    def instructions():
        return [(instr.uid, repr(instr))
                for method in module.methods()
                for instr in method.instructions()]

    before = instructions()
    for warning in result.remaining():
        # no random attempts: every verdict comes from the forking search
        validate_warning(make_sim, warning, random_attempts=0,
                         systematic_branches=10, max_decisions=600)
    assert instructions() == before
