"""Disk-backed result store with atomic publication and TTL eviction.

Completed job payloads are keyed by the job's idempotency key
(:func:`repro.service.jobs.job_key`) and published with the shared
temp-file + ``os.replace`` helper (:mod:`repro.atomicio`), so concurrent
scheduler workers - or several service processes sharing one store
directory - never expose a torn file.  Re-publishing a key is harmless:
results are pure functions of their key, so the last writer rewrites
identical content.

A scheduler with a store also retires each finished job's record,
less its result, to ``records/<job id>.json`` (:meth:`put_record` /
:meth:`get_record`), so its in-memory job table holds only live jobs; a
done record reads its result back from ``<key>.json`` with
:meth:`peek`.  Records share the envelope, the TTL and the eviction
protocol of results.

Entries expire ``ttl_seconds`` after they were stored.  Expiry is
enforced lazily on :meth:`get` (an expired file is deleted and reported
as a miss) and in bulk by :meth:`evict_expired`, which the scheduler
calls opportunistically and on shutdown.  The clock is injectable so
eviction is testable without sleeping.

Eviction must not race concurrent writers: between an evictor's read
(which saw an expired record) and its delete, a writer may republish a
*fresh* record onto the same path via ``os.replace`` - a plain
``os.remove`` would then destroy the fresh result.  Eviction therefore
uses rename-and-sweep: the record is atomically renamed to a unique
``.tomb`` file, re-read there, and only deleted if the captured content
really is expired or corrupt; a captured fresh record is renamed back
(restoring it is safe - results are pure functions of their key, so
any concurrent republication holds identical content).  Tombstones
orphaned by a crash between rename and verdict are swept by
:meth:`evict_expired` with the same fresh-restore/expired-delete rule.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro.atomicio import atomic_write_json

#: Default time-to-live of a stored result: one day.
DEFAULT_TTL_SECONDS = 24 * 3600.0

_KEY_CHARS = frozenset("0123456789abcdef")

#: Subdirectory of retired job records, created on the first write.
RECORDS_DIR = "records"


class ResultStore:
    """Directory of ``<key>.json`` result records with a TTL, plus
    ``records/<job id>.json`` finished job records under the same TTL."""

    def __init__(self, directory: str,
                 ttl_seconds: Optional[float] = DEFAULT_TTL_SECONDS,
                 clock: Callable[[], float] = time.time) -> None:
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.directory = directory
        self.ttl_seconds = ttl_seconds
        self.clock = clock
        self.puts = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.records_directory = os.path.join(directory, RECORDS_DIR)
        os.makedirs(directory, exist_ok=True)

    # -- paths -----------------------------------------------------------

    def _path(self, key: str) -> str:
        if not key or not set(key) <= _KEY_CHARS:
            raise ValueError(f"malformed result key {key!r}")
        return os.path.join(self.directory, f"{key}.json")

    def _record_path(self, job_id: str) -> str:
        # Job ids are ``j`` + 12 hex digits (jobs.new_job_id).
        if (len(job_id) != 13 or job_id[0] != "j"
                or not set(job_id[1:]) <= _KEY_CHARS):
            raise ValueError(f"malformed job id {job_id!r}")
        return os.path.join(self.records_directory, f"{job_id}.json")

    def keys(self) -> List[str]:
        return _names(self.directory)

    def __len__(self) -> int:
        return len(self.keys())

    # -- access ----------------------------------------------------------

    def put(self, key: str, payload: Dict) -> None:
        """Publish ``payload`` under ``key`` (atomic, last writer wins)."""
        record = {"key": key, "stored_at": self.clock(),
                  "payload": payload}
        atomic_write_json(self._path(key), record)
        self.puts += 1

    def get(self, key: str) -> Optional[Dict]:
        """The stored payload, or None on a miss / expiry / corruption."""
        path = self._path(key)
        record = self._read(path)
        if record is None:
            self.misses += 1
            return None
        if self._expired(record):
            if not self._evict(path):
                # The rename-and-sweep re-read captured a *fresh*
                # record: a writer republished the key after our stale
                # read.  Serve the restored record.
                record = self._read(path)
                if record is not None and not self._expired(record):
                    self.hits += 1
                    return record["payload"]
            self.misses += 1
            return None
        self.hits += 1
        return record["payload"]

    def peek(self, key: str) -> Optional[Dict]:
        """The stored payload, or None, without counting a hit or miss
        or evicting: how a retired job record reads its result back."""
        record = self._read(self._path(key))
        if record is None or self._expired(record):
            return None
        return record["payload"]

    def put_record(self, job_id: str, record: Dict) -> None:
        """Retire a finished job's record (atomic, last writer wins)."""
        atomic_write_json(self._record_path(job_id),
                          {"key": job_id, "stored_at": self.clock(),
                           "payload": record})

    def get_record(self, job_id: str) -> Optional[Dict]:
        """A retired job record, or None when unknown, expired or
        corrupt (the bulk sweep deletes the file)."""
        record = self._read(self._record_path(job_id))
        if record is None or self._expired(record):
            return None
        return record["payload"]

    def evict_expired(self) -> int:
        """Delete every expired or corrupt result and job record (and
        sweep orphaned tombstones); returns how many were evicted."""
        evicted = 0
        for directory, path_of in ((self.directory, self._path),
                                   (self.records_directory,
                                    self._record_path)):
            evicted += self._sweep_tombstones(directory, path_of)
            for key in _names(directory):
                path = path_of(key)
                record = self._read(path)
                if record is None or self._expired(record):
                    if self._evict(path):
                        evicted += 1
        return evicted

    def stats(self) -> Dict[str, float]:
        return {"entries": len(self), "puts": self.puts, "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}

    # -- internals -------------------------------------------------------

    def _evict(self, path: str) -> bool:
        """Retire an apparently expired/corrupt record at ``path``.

        Rename-and-sweep: atomically capture the record under a unique
        tombstone name, re-read it *there*, and only delete if the
        captured content really is expired or corrupt.  A writer that
        republished a fresh record between the caller's stale read and
        the rename is detected by the re-read and the record is renamed
        back.  Returns True when a record was evicted.
        """
        handle, tomb = tempfile.mkstemp(
            dir=os.path.dirname(path),
            prefix=os.path.basename(path) + ".", suffix=".tomb")
        os.close(handle)
        try:
            os.replace(path, tomb)
        except OSError:
            self._remove(tomb)  # raced another evictor: already gone
            return False
        record = self._read(tomb)
        if record is not None and not self._expired(record):
            # Fresh republication captured mid-eviction: restore it.
            # (Identical keys hold identical content, so renaming over
            # any even-newer copy is harmless.)
            os.replace(tomb, path)
            return False
        self._remove(tomb)
        self.evictions += 1
        return True

    def _sweep_tombstones(self, directory: str,
                          path_of: Callable[[str], str]) -> int:
        """Resolve tombstones in ``directory`` orphaned by a crash
        mid-eviction: restore the fresh ones (to ``path_of(key)``),
        delete the expired/corrupt ones.  Returns how many were deleted
        (counted as evictions)."""
        deleted = 0
        for name in _listdir(directory):
            if not name.endswith(".tomb"):
                continue
            tomb = os.path.join(directory, name)
            record = self._read(tomb)
            key = record.get("key") if record is not None else None
            if record is not None and not self._expired(record) \
                    and isinstance(key, str):
                try:
                    os.replace(tomb, path_of(key))
                except (OSError, ValueError):
                    self._remove(tomb)
                continue
            self._remove(tomb)
            deleted += 1
        self.evictions += deleted
        return deleted

    def _expired(self, record: Dict) -> bool:
        if self.ttl_seconds is None:
            return False
        stored_at = record.get("stored_at")
        if not isinstance(stored_at, (int, float)):
            return True  # unreadable provenance: treat as expired
        return self.clock() - stored_at > self.ttl_seconds

    @staticmethod
    def _read(path: str) -> Optional[Dict]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or "payload" not in record:
            return None
        return record

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass  # raced with another evictor: already gone


def _listdir(directory: str) -> List[str]:
    """Sorted entries of ``directory``; none before its first write."""
    try:
        return sorted(os.listdir(directory))
    except FileNotFoundError:
        return []


def _names(directory: str) -> List[str]:
    """The keys of the ``<key>.json`` records in ``directory``."""
    return [name[:-len(".json")] for name in _listdir(directory)
            if name.endswith(".json")]
