"""Race-layer unit tests: event extraction, pair classification, warning
bookkeeping, detector options."""

import pytest

from repro.core import analyze_app
from repro.lowering import compile_app
from repro.race import collect_access_events, classify_pair, FREE, USE
from repro.threadify import threadify, ThreadKind


def program_for(source):
    return threadify(compile_app(source, seal=False))


def test_events_extracted_with_kinds():
    program = program_for(
        """
        class F { }
        class A extends Activity {
          F f;
          void onCreate(Bundle b) { f = null; }
          void onResume() { F x = f; }
        }
        """
    )
    events = collect_access_events(program)
    kinds = {(e.kind, e.fieldref.field_name) for e in events}
    assert (FREE, "f") in kinds
    assert (USE, "f") in kinds


def test_non_null_store_is_not_a_free():
    program = program_for(
        """
        class F { }
        class A extends Activity {
          F f;
          void onCreate(Bundle b) { f = new F(); }
        }
        """
    )
    events = collect_access_events(program)
    assert not [e for e in events if e.kind == FREE]


def test_synthetic_fields_excluded():
    program = program_for(
        """
        class A extends Activity {
          Handler h;
          void onCreate(Bundle b) {
            h = new Handler();
            h.post(new Runnable() { public void run() { } });
          }
        }
        """
    )
    events = collect_access_events(program)
    assert not [e for e in events if e.fieldref.field_name.startswith("$")]


def test_events_attributed_to_every_owning_node():
    program = program_for(
        """
        class F { }
        class A extends Activity {
          F f;
          void helper() { F x = f; }
          void onResume() { helper(); }
          void onPause() { helper(); }
        }
        """
    )
    events = [e for e in collect_access_events(program)
              if e.method_qname == "A.helper"]
    assert len({e.node_id for e in events}) == 2


def test_classify_pair_categories():
    program = program_for(
        """
        class W implements Runnable { public void run() { } }
        class A extends Activity {
          Handler h;
          void onCreate(Bundle b) {
            h = new Handler();
            h.post(new Runnable() { public void run() { } });
            new Thread(new W()).start();
          }
          void onPause() { }
        }
        """
    )
    forest = program.forest
    on_create = next(n for n in forest if n.method_name == "onCreate")
    on_pause = next(n for n in forest if n.method_name == "onPause")
    postee = next(n for n in forest if n.kind is ThreadKind.POSTED_CALLBACK)
    worker = next(n for n in forest if n.kind is ThreadKind.NATIVE_THREAD)

    assert classify_pair(forest, on_create, on_pause) == "EC-EC"
    assert classify_pair(forest, on_create, postee) == "EC-PC"
    assert classify_pair(forest, postee, postee) == "PC-PC"
    assert classify_pair(forest, on_create, worker) == "C-RT"
    assert classify_pair(forest, on_pause, worker) == "C-NT"
    assert classify_pair(forest, worker, worker) == "T-T"


UAF_APP = """
class F { void use() { } }
class A extends Activity {
  F f;
  void onResume() { f.use(); }
  void onStop() { f = null; }
}
"""


def test_warning_key_is_instruction_pair():
    result = analyze_app(UAF_APP)
    assert len(result.warnings) == 1
    warning = result.warnings[0]
    assert warning.use_method == "A.onResume"
    assert warning.free_method == "A.onStop"
    assert warning.key == (warning.use_uid, warning.free_uid)


def test_describe_contains_lineage():
    result = analyze_app(UAF_APP)
    text = result.warnings[0].describe()
    assert "main -> A.onResume" in text
    assert "main -> A.onStop" in text


def test_same_node_accesses_never_pair():
    result = analyze_app(
        """
        class F { void use() { } }
        class A extends Activity {
          F f;
          void onResume() { f.use(); f = null; }
        }
        """
    )
    assert not result.warnings


def test_static_field_pairs_by_name():
    result = analyze_app(
        """
        class F { void use() { } }
        class Holder2 { static F f; }
        class A extends Activity {
          void onCreate(Bundle b) { Holder2.f = new F(); }
          void onResume() { Holder2.f.use(); }
          void onStop() { Holder2.f = null; }
        }
        """
    )
    assert [w for w in result.warnings if w.fieldref.field_name == "f"]
