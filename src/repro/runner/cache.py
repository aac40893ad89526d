"""Content-addressed on-disk result cache for corpus analyses.

A cache entry is keyed by the SHA-256 of everything that determines the
analysis outcome:

* the task kind (``table1``, ``figure5``, ...),
* the app's *source text* (the injected variant for Table 2), so editing
  a corpus app re-analyzes exactly that app,
* the :class:`repro.core.AnalysisConfig` fingerprint plus any
  task-specific parameters (``validate``, ``random_attempts``),
* the ``repro`` package version and a cache schema version, so analyzer
  changes shipped with a release never resurface stale results.

Entries are JSON files under ``<root>/<key[:2]>/<key>.json`` (two-level
fan-out keeps directories small on big corpora).  Reads tolerate missing
or corrupt files -- both count as a miss -- and writes go through a
same-directory temp file + ``os.replace`` so concurrent runs never
observe a half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Optional

from .. import __version__

#: bump when the payload layout changes without a package version bump
#: (2: entries became ``{"data": ..., "obs": ...}`` envelopes carrying the
#: per-app metrics snapshot alongside the task payload; 3: occurrences
#: carry provenance -- filter witnesses, lineage chains, alias witnesses
#: -- and every stored envelope is stamped with its schema so stale
#: entries read back as misses instead of half-empty explanations;
#: 4: snapshots gained hotspot attribution metrics and optional
#: ``mem.*.peak_kb`` gauges, which must replay on hits; 5: task
#: payloads no longer copy the stage seconds -- they are read off the
#: snapshot's span tree only)
CACHE_SCHEMA = 5


def default_cache_dir() -> Path:
    """``$NADROID_CACHE_DIR`` when set, else ``~/.cache/nadroid``."""
    env = os.environ.get("NADROID_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nadroid"


def cache_key(kind: str, source: str, fingerprint: Dict[str, Any]) -> str:
    """Content hash identifying one (task, app source, config) analysis."""
    payload = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "kind": kind,
        "source_sha": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        "fingerprint": fingerprint,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of content-addressed JSON results, with hit counters.

    The counters total the cache's whole lifetime.  A run that shares
    the cache with concurrent runs (the daemon) counts its own share by
    passing a ``tally`` to :meth:`lookup` and :meth:`store`.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: entries quarantined as ``<key>.json.corrupt`` (undecodable JSON)
        self.corrupt = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> bool:
        """Rename an undecodable entry to ``<key>.json.corrupt``.

        Without this a truncated write (power loss, full disk) would
        silently re-miss on every run forever; quarantined files keep
        the evidence around for inspection and are swept by
        ``repro cache prune``.
        """
        try:
            os.replace(path, path.with_suffix(".json.corrupt"))
        except OSError:
            return False
        return True

    def _count(self, what: str, tally: Optional[Counter]) -> None:
        """Bump one of the cache-lifetime counters and, when given, the
        caller's own ``tally`` (a run's share of the traffic)."""
        setattr(self, what, getattr(self, what) + 1)
        if tally is not None:
            tally[what] += 1

    def lookup(self, key: str,
               tally: Optional[Counter] = None) -> Optional[Dict[str, Any]]:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            self._count("misses", tally)
            return None
        except ValueError:
            # The file exists but is not JSON: quarantine, then miss.
            if self._quarantine(path):
                self._count("corrupt", tally)
            self._count("misses", tally)
            return None
        # Stale-schema hygiene: an entry written by an older payload
        # layout (e.g. schema 2, before provenance witnesses) replays as
        # a miss and gets transparently re-analyzed, never an error.
        # Entries normally differ by key too (the schema participates in
        # the hash), but a shared cache dir may hold hand-migrated or
        # corrupted entries at the new key.
        if payload.get("schema") != CACHE_SCHEMA:
            self._count("misses", tally)
            return None
        self._count("hits", tally)
        return payload

    def prune(self, everything: bool = False) -> int:
        """Delete quarantined ``.json.corrupt`` files and orphaned
        ``.tmp`` spool files (a writer killed mid-store leaves its temp
        sibling behind; harmless -- lookups never see it -- but a
        daemon-lifetime cache would accumulate them forever); with
        ``everything``, delete regular entries too.  Returns the number
        of files removed."""
        patterns = ["*/*.json.corrupt", "*/*.tmp"]
        if everything:
            patterns.append("*/*.json")
        removed = 0
        for pattern in patterns:
            for path in sorted(self.root.glob(pattern)):
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
        return removed

    def store(self, key: str, payload: Dict[str, Any],
              tally: Optional[Counter] = None) -> None:
        """Atomically publish one entry.

        The payload is spooled to a same-directory ``.tmp`` sibling,
        fsync'd, and ``os.replace``'d into place, so a writer killed at
        *any* instant (timeout watchdog, ``kill`` fault action, SIGINT
        on a daemon) can never leave a torn ``<key>.json`` behind --
        readers see either the old entry or the complete new one.
        ``tests/resilience/test_cache_atomic.py`` kills a writer
        mid-store to pin this.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # one C-encoder call: json.dump would take the pure-Python
        # iterencode path, several times slower on a report envelope
        text = json.dumps({"schema": CACHE_SCHEMA, **payload},
                          separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                # without the fsync a rename can outlive its data on a
                # power loss, materializing exactly the torn entry the
                # tmp+replace dance exists to prevent
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._count("stores", tally)
