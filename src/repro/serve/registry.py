"""Thread-safe registry of named serving models with atomic hot-swap.

A serving process holds several fitted models at once (one per benchmark,
per tenant, or per refresh generation — Scardina's per-partition ensembles
are the extreme case).  The registry maps names to immutable
:class:`ModelRecord` snapshots.  Publishing a new model under an existing
name is an atomic pointer swap: in-flight readers keep the record they
already resolved, new readers see the new version, and nobody ever sees a
half-updated model.  Swap listeners let dependents (the estimate cache)
invalidate exactly when the served model changes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ModelNotFoundError

SwapListener = Callable[[str, "ModelRecord | None"], None]


@dataclass(frozen=True)
class ModelRecord:
    """One published model version.  Records are immutable; a republish
    creates a new record rather than mutating the old one."""

    name: str
    model: object
    version: int
    published_at: float
    metadata: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return type(self.model).__name__

    def describe(self) -> dict:
        """JSON-ready summary (``GET /v1/models`` rows); metadata is copied
        so serialization never iterates a dict a caller could hold."""
        return {
            "name": self.name,
            "version": self.version,
            "kind": self.kind,
            "published_at": self.published_at,
            "metadata": dict(self.metadata),
        }


class ModelRegistry:
    """Named model versions with lock-free reads and serialized writes.

    Reads (:meth:`get`, :meth:`record`) take no lock: they resolve through
    a single dict lookup, atomic under CPython, against records that never
    mutate.  Writes (:meth:`publish`, :meth:`unpublish`) serialize on a
    lock so versions are monotone per name and listeners observe swaps in
    order.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._records: dict[str, ModelRecord] = {}
        self._next_version: dict[str, int] = {}
        self._listeners: list[SwapListener] = []
        self._swap_count = 0

    # -- reads (lock-free) -----------------------------------------------------

    def record(self, name: str) -> ModelRecord:
        """The published :class:`ModelRecord` snapshot for ``name``
        (raises :class:`~repro.errors.ModelNotFoundError` otherwise)."""
        try:
            return self._records[name]
        except KeyError:
            raise ModelNotFoundError(
                f"no model named {name!r} is published; "
                f"available: {sorted(self._records)}") from None

    def get(self, name: str):
        """The published model object for ``name`` (see :meth:`record`)."""
        return self.record(name).model

    def names(self) -> list[str]:
        """Sorted names of every published model."""
        return sorted(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def swap_count(self) -> int:
        """Total publishes + unpublishes (monotone; cache-staleness probe)."""
        return self._swap_count

    def is_current(self, record: ModelRecord) -> bool:
        """Whether ``record`` is still the published version of its name
        (lock-free; used to drop cache writes computed against a model
        that was hot-swapped mid-request)."""
        return self._records.get(record.name) is record

    def describe(self) -> list[dict]:
        """JSON-ready summaries of every published model, sorted by name
        (the ``models`` section of ``GET /v1/stats``)."""
        # one atomic read of the records dict — indexing a names()
        # snapshot would race a concurrent unpublish
        records = list(self._records.values())
        return [r.describe() for r in sorted(records, key=lambda r: r.name)]

    def records(self) -> list[ModelRecord]:
        """One atomic snapshot of every published record, sorted by name
        (lock-free, same single-read discipline as :meth:`describe`);
        what scrape-time metrics collectors iterate."""
        records = list(self._records.values())
        return sorted(records, key=lambda r: r.name)

    # -- writes (serialized) ---------------------------------------------------

    def publish(self, name: str, model, metadata: dict | None = None
                ) -> ModelRecord:
        """Publish ``model`` under ``name``, replacing any current version.

        The swap itself is a single dict assignment, so concurrent readers
        see either the old record or the new one — never an intermediate.
        """
        with self._lock:
            version = self._next_version.get(name, 0) + 1
            self._next_version[name] = version
            record = ModelRecord(name=name, model=model, version=version,
                                 published_at=time.time(),
                                 metadata=dict(metadata or {}))
            self._records[name] = record
            self._swap_count += 1
            listeners = list(self._listeners)
        for listener in listeners:
            listener(name, record)
        return record

    def unpublish(self, name: str) -> ModelRecord:
        """Remove a model from serving; returns the retired record."""
        with self._lock:
            record = self.record(name)
            del self._records[name]
            self._swap_count += 1
            listeners = list(self._listeners)
        for listener in listeners:
            listener(name, None)
        return record

    def add_swap_listener(self, listener: SwapListener) -> None:
        """Call ``listener(name, record_or_None)`` after every swap."""
        with self._lock:
            self._listeners.append(listener)
