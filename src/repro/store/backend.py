"""Storage backends and the active-store runtime.

Three interchangeable backends hold content-addressed artifacts
(``key -> bytes``):

- :class:`SQLiteStore` — a single-file sqlite database in WAL mode, the
  default for local cross-process sharing (campaign workers, repeated
  CLI runs, CI jobs on the same runner);
- :class:`FileStore` — one file per artifact under a fan-out directory,
  for network filesystems where sqlite locking is unreliable;
- :class:`RemoteStore` — a thin HTTP client against ``repro serve``
  (:mod:`repro.store.serve`), for fleet-wide sharing.

One store is *active* per process (:func:`active_store`); it is either
set explicitly (:func:`set_active_store`, the CLI ``--store`` flag) or
picked up from the ``REPRO_STORE`` environment variable on first use.
Every consumer treats the store as a cache: a ``None`` active store or
any backend error degrades to computing from scratch, never to a wrong
answer.

Handles are *resettable*: :func:`reset_handles` closes open connections
(and runs registered reset hooks) without deactivating the store, so
``clear_all_caches()`` can return the process to a cache-cold state
while warm persistent artifacts stay on disk — exactly what the
``--warm`` benchmark mode measures.
"""

from __future__ import annotations

import os
import pickle
import random
import sqlite3
import tempfile
import threading
import time
import urllib.error
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "BaseStore",
    "SQLiteStore",
    "FileStore",
    "MemoryStore",
    "RemoteStore",
    "with_retries",
    "store_from_spec",
    "active_store",
    "set_active_store",
    "reset_handles",
    "register_reset_hook",
    "record_event",
    "stats",
    "reset_stats",
    "dumps",
    "loads",
    "try_loads",
]

_PICKLE_PROTOCOL = 4

#: transport-level failures worth retrying.  ``HTTPError`` subclasses
#: ``URLError`` but carries a definitive server answer (404, 400, ...)
#: — :func:`with_retries` always re-raises it immediately.
RETRYABLE_ERRORS = (urllib.error.URLError, OSError, TimeoutError)


def with_retries(fn: Callable[[], Any], retries: int = 3,
                 backoff: float = 0.1,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None) -> Any:
    """Call ``fn``, retrying transport errors with exponential backoff
    and full jitter (delay uniformly drawn from ``[0, backoff * 2^n]``,
    so a fleet of workers hammering a briefly-down server decorrelates
    instead of stampeding).  HTTP *status* errors are definitive server
    answers, not transport failures, and re-raise immediately; after
    ``retries`` failed retries the last transport error propagates.
    ``sleep``/``rng`` are injectable so tests need no wall-clock time.
    """
    uniform = rng.uniform if rng is not None else random.uniform
    attempt = 0
    while True:
        try:
            return fn()
        except urllib.error.HTTPError:
            raise
        except RETRYABLE_ERRORS:
            if attempt >= retries:
                raise
            sleep(uniform(0.0, backoff * (2 ** attempt)))
            attempt += 1


def dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)


def loads(payload: bytes) -> Any:
    return pickle.loads(payload)


def try_loads(payload: Optional[bytes]) -> Any:
    """Decode a stored payload, or return ``None`` for a miss (``None``
    payload) and for a payload that does not decode (truncated, damaged,
    or written by an incompatible build).  A failed decode counts as a
    ``corrupt`` event; callers treat it as a miss, recompute, and
    overwrite the entry."""
    if payload is None:
        return None
    try:
        return loads(payload)
    except Exception:  # damaged pickles raise many unrelated types
        record_event("corrupt")
        return None


class BaseStore:
    """Common counter bookkeeping; subclasses implement ``_get``/``_put``."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0

    def get(self, key: str) -> Optional[bytes]:
        try:
            payload = self._get(key)
        except Exception:
            self.errors += 1
            return None
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, key: str, payload: bytes, kind: str = "") -> None:
        try:
            self._put(key, payload, kind)
        except Exception:
            self.errors += 1
            return
        self.puts += 1

    def _get(self, key: str) -> Optional[bytes]:  # pragma: no cover
        raise NotImplementedError

    def _put(self, key: str, payload: bytes, kind: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any open OS handles; the next access reopens them."""

    def close(self) -> None:
        self.reset()

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
        }


class SQLiteStore(BaseStore):
    """Artifacts in one sqlite file (WAL mode, safe for concurrent
    processes on a local filesystem)."""

    def __init__(self, path: Union[str, os.PathLike]):
        super().__init__()
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None

    def _connection(self) -> sqlite3.Connection:
        conn = self._conn
        if conn is None:
            conn = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS artifacts ("
                " key TEXT PRIMARY KEY,"
                " kind TEXT NOT NULL DEFAULT '',"
                " payload BLOB NOT NULL)"
            )
            conn.commit()
            self._conn = conn
        return conn

    def _get(self, key: str) -> Optional[bytes]:
        with self._lock:
            row = self._connection().execute(
                "SELECT payload FROM artifacts WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else bytes(row[0])

    def _put(self, key: str, payload: bytes, kind: str) -> None:
        with self._lock:
            conn = self._connection()
            conn.execute(
                "INSERT OR REPLACE INTO artifacts (key, kind, payload) "
                "VALUES (?, ?, ?)",
                (key, kind, payload),
            )
            conn.commit()

    def reset(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                finally:
                    self._conn = None

    @property
    def is_open(self) -> bool:
        return self._conn is not None

    def __repr__(self) -> str:
        return f"SQLiteStore({self.path!r})"


class FileStore(BaseStore):
    """One file per artifact under ``root/<key[:2]>/<key>`` with atomic
    (write-then-rename) puts."""

    def __init__(self, root: Union[str, os.PathLike]):
        super().__init__()
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key)

    def _get(self, key: str) -> Optional[bytes]:
        try:
            with open(self._path(key), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def _put(self, key: str, payload: bytes, kind: str) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:
        return f"FileStore({self.root!r})"


class MemoryStore(BaseStore):
    """In-process dict store — tests and ephemeral warm runs."""

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[str, bytes] = {}

    def _get(self, key: str) -> Optional[bytes]:
        return self._data.get(key)

    def _put(self, key: str, payload: bytes, kind: str) -> None:
        self._data[key] = payload

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"MemoryStore({len(self._data)} artifacts)"


class RemoteStore(BaseStore):
    """HTTP client for a ``repro serve`` front end.

    Transient transport errors (dropped connection, refused socket,
    timeout) retry in place with exponential backoff + jitter before
    being counted as a failure, so a server restart mid-campaign is a
    hiccup, not a miss storm.  Network failures that survive the
    retries degrade to cache misses; after ``max_failures`` consecutive
    ones the store goes dormant (every call is a miss) instead of
    stalling verification on a dead server.  ``timeout`` bounds each
    individual attempt — connect and read — so a black-holed server
    cannot hang a campaign.
    """

    def __init__(self, base_url: str, timeout: float = 5.0,
                 max_failures: int = 3, retries: int = 2,
                 backoff: float = 0.1):
        super().__init__()
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_failures = max_failures
        self.retries = retries
        self.backoff = backoff
        self._failures = 0

    def _url(self, key: str) -> str:
        return f"{self.base_url}/a/{key}"

    @property
    def dormant(self) -> bool:
        return self._failures >= self.max_failures

    def _get(self, key: str) -> Optional[bytes]:
        if self.dormant:
            return None
        import urllib.request  # the HTTP client loads only for remote stores

        def attempt() -> bytes:
            with urllib.request.urlopen(
                self._url(key), timeout=self.timeout
            ) as response:
                return response.read()

        try:
            payload = with_retries(
                attempt, retries=self.retries, backoff=self.backoff
            )
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                self._failures = 0
                return None
            self._failures += 1
            return None
        except RETRYABLE_ERRORS:
            self._failures += 1
            return None
        self._failures = 0
        return payload

    def _put(self, key: str, payload: bytes, kind: str) -> None:
        if self.dormant:
            return
        import urllib.request

        request = urllib.request.Request(
            self._url(key), data=payload, method="PUT",
            headers={"Content-Type": "application/octet-stream",
                     "X-Repro-Kind": kind},
        )

        def attempt() -> None:
            with urllib.request.urlopen(request, timeout=self.timeout):
                pass

        try:
            with_retries(attempt, retries=self.retries, backoff=self.backoff)
        except urllib.error.HTTPError:
            self._failures += 1
            return
        except RETRYABLE_ERRORS:
            self._failures += 1
            return
        self._failures = 0

    def __repr__(self) -> str:
        return f"RemoteStore({self.base_url!r})"


def store_from_spec(spec: Union[str, os.PathLike, BaseStore]) -> BaseStore:
    """Resolve a user-facing store spec: an http(s) URL, a ``.sqlite`` /
    ``.db`` path, ``:memory:``, or a directory (file store)."""
    if isinstance(spec, BaseStore):
        return spec
    text = os.fspath(spec)
    if text.startswith("http://") or text.startswith("https://"):
        return RemoteStore(text)
    if text == ":memory:":
        return MemoryStore()
    if text.endswith((".sqlite", ".sqlite3", ".db")):
        return SQLiteStore(text)
    return FileStore(text)


# -- active store runtime ------------------------------------------------------

_ACTIVE: Optional[BaseStore] = None
_ENV_RESOLVED = False
_RESET_HOOKS: List[Callable[[], None]] = []

#: high-level event counters maintained by the store consumers (graph
#: loads, reassemblies, verdict replays, ...), merged into :func:`stats`
EVENTS: Dict[str, int] = {}


def record_event(name: str, count: int = 1) -> None:
    EVENTS[name] = EVENTS.get(name, 0) + count


def active_store() -> Optional[BaseStore]:
    """The process-wide store, resolving ``REPRO_STORE`` on first call."""
    global _ACTIVE, _ENV_RESOLVED
    if _ACTIVE is None and not _ENV_RESOLVED:
        _ENV_RESOLVED = True
        spec = os.environ.get("REPRO_STORE")
        if spec:
            _ACTIVE = store_from_spec(spec)
    return _ACTIVE


def active_spec() -> Optional[str]:
    """A spec string that reconstructs the active store in another
    process, or ``None`` when no store is active or it is inherently
    process-local (:class:`MemoryStore`).  Campaign worker pools use
    this to share the parent's certificate store."""
    store = active_store()
    if isinstance(store, SQLiteStore):
        return store.path
    if isinstance(store, FileStore):
        return store.root
    if isinstance(store, RemoteStore):
        return store.base_url
    return None


def set_active_store(
    spec: Optional[Union[str, os.PathLike, BaseStore]]
) -> Optional[BaseStore]:
    """Install (or with ``None`` deactivate) the process-wide store.

    Returns the installed store.  The previous store's handles are
    closed; explicit installation also stops further ``REPRO_STORE``
    resolution for this process.
    """
    global _ACTIVE, _ENV_RESOLVED
    previous = _ACTIVE
    _ENV_RESOLVED = True
    _ACTIVE = None if spec is None else store_from_spec(spec)
    if previous is not None and previous is not _ACTIVE:
        previous.close()
    reset_handles()
    return _ACTIVE


def register_reset_hook(hook: Callable[[], None]) -> None:
    """Run ``hook`` whenever handles are reset (used by in-process memos
    layered over the store, e.g. predicate read-frame caches)."""
    _RESET_HOOKS.append(hook)


def reset_handles() -> None:
    """Close the active store's OS handles and drain in-process memos
    layered on top of it.  The store stays active — persistent artifacts
    survive, which is the whole point of ``--warm`` benchmarking."""
    store = _ACTIVE
    if store is not None:
        store.reset()
    for hook in _RESET_HOOKS:
        hook()


def stats() -> Dict[str, int]:
    """Counters of the active store merged with high-level events.

    A payload the store returned but the decoders rejected (a
    ``corrupt`` event) served nothing, so it counts as a miss, not a
    hit."""
    merged: Dict[str, int] = dict(EVENTS)
    store = _ACTIVE
    if store is not None:
        merged.update(store.counters())
        rejected = min(merged.get("corrupt", 0), merged["hits"])
        merged["hits"] -= rejected
        merged["misses"] += rejected
    else:
        merged.update(hits=0, misses=0, puts=0, errors=0)
    return merged


def reset_stats() -> None:
    EVENTS.clear()
    store = _ACTIVE
    if store is not None:
        store.hits = store.misses = store.puts = store.errors = 0
