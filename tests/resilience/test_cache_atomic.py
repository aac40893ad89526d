"""Atomic cache publication: a writer killed mid-store leaves no torn entry.

``ResultCache.store`` spools to a same-directory ``.tmp`` sibling,
fsyncs, and ``os.replace``s into place.  These tests SIGKILL a real
writer process *inside* the store (after partial bytes hit the spool
file, before the rename) and assert the contract: readers see either
nothing or the old complete entry -- never a truncated ``<key>.json``
-- and the orphaned spool file is swept by ``prune``.
"""

import io
import json
import multiprocessing
import os
import signal
from pathlib import Path

from repro.corpus import all_apps
from repro.runner import CACHE_SCHEMA, ResultCache
from repro.runner.runner import execute_app_task_observed

KEY = "ab" + "0" * 62
PAYLOAD = {"data": {"rows": list(range(200))}, "obs": None}


def _fork():
    return multiprocessing.get_context("fork")


def _killed_writer(root: str) -> None:
    """Child: start a store, die by SIGKILL once partial bytes are on
    disk, just before the rename would publish them (patching the
    module's ``json.dumps`` and ``os.replace`` seams; the fork dies, so
    the patches never leak anywhere)."""
    from repro.runner import cache as cache_mod

    def torn_dumps(obj, **kwargs):
        return '{"schema": 999, "data": "tr'

    def die(*args):
        os.kill(os.getpid(), signal.SIGKILL)

    cache_mod.json = type(
        "_TornJson", (), {
            "dumps": staticmethod(torn_dumps),
            "load": staticmethod(json.load),
        },
    )
    os.replace = die
    ResultCache(Path(root)).store(KEY, PAYLOAD)


def _run_killed_writer(root: Path) -> None:
    proc = _fork().Process(target=_killed_writer, args=(str(root),))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == -signal.SIGKILL


def test_killed_writer_publishes_nothing(tmp_path):
    _run_killed_writer(tmp_path)
    # no torn <key>.json was published ...
    assert not list(tmp_path.glob("*/*.json"))
    # ... so the lookup is a clean miss, not a quarantine
    cache = ResultCache(tmp_path)
    assert cache.lookup(KEY) is None
    assert cache.corrupt == 0
    # the partial bytes sit in an orphaned spool file ...
    orphans = list(tmp_path.glob("*/*.tmp"))
    assert len(orphans) == 1
    # ... which prune sweeps
    assert cache.prune() == 1
    assert not list(tmp_path.glob("*/*.tmp"))
    # and a fresh store at the same key publishes normally afterwards
    cache.store(KEY, PAYLOAD)
    entry = cache.lookup(KEY)
    assert entry is not None and entry["data"] == PAYLOAD["data"]


def test_killed_rewriter_preserves_the_old_entry(tmp_path):
    old = ResultCache(tmp_path)
    old.store(KEY, {"data": {"generation": 1}, "obs": None})
    _run_killed_writer(tmp_path)
    # the complete old entry survives the torn rewrite untouched
    fresh = ResultCache(tmp_path)
    entry = fresh.lookup(KEY)
    assert entry is not None and entry["data"] == {"generation": 1}
    assert fresh.corrupt == 0
    # exactly the one orphaned spool file to sweep
    assert fresh.prune() == 1


def test_failed_dump_cleans_up_its_spool_file(tmp_path):
    """A store that *raises* (full disk, unserializable payload) unlinks
    its spool file on the way out instead of orphaning it."""
    cache = ResultCache(tmp_path)
    try:
        cache.store(KEY, {"data": object()})  # not JSON-serializable
    except TypeError:
        pass
    else:  # pragma: no cover - the store must raise
        raise AssertionError("store of an unserializable payload passed")
    assert not list(tmp_path.glob("*/*"))
    assert cache.stores == 0


def test_store_writes_the_bytes_of_the_streaming_encoder(tmp_path):
    """The one-call ``json.dumps`` store publishes, for every registry
    app's envelope, exactly the bytes the earlier streaming
    ``json.dump`` writer did."""
    cache = ResultCache(tmp_path)
    for index, spec in enumerate(all_apps()):
        envelope = execute_app_task_observed("table1", spec.name,
                                             {"validate": False})
        key = f"{index:02d}" + "0" * 62
        cache.store(key, envelope)
        reference = io.StringIO()
        json.dump({"schema": CACHE_SCHEMA, **envelope}, reference,
                  separators=(",", ":"))
        assert cache.path_for(key).read_bytes() \
            == reference.getvalue().encode("utf-8"), spec.name
    assert cache.stores == len(all_apps()) == 27
