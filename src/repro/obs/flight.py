"""Flight recorder: bounded worst-offender debug bundles.

Histograms say the p99 q-error is bad; the flight recorder keeps the
actual requests that made it bad.  A :class:`FlightRecorder` maintains
one bounded ring per offense *kind* (``qerror`` and ``latency`` in the
serving layer), each a min-heap keyed by score, so only the worst
``capacity`` bundles per kind survive and memory stays O(capacity).

Bundles are whatever dict the host assembles — the service captures the
request SQL, model/version, estimate vs truth, per-shard attribution,
the span tree, and cache counters.  Because assembling that is not
free, callers should gate on :meth:`FlightRecorder.admits` first and
only build the bundle for a keeper.

Served via ``GET /v1/debug/bundles`` and the ``repro debug-bundle``
CLI.
"""

from __future__ import annotations

import heapq
import itertools
import threading

#: Worst offenders kept per kind.
DEFAULT_CAPACITY = 16


class FlightRecorder:
    """Bounded per-kind rings of the worst-scoring debug bundles."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._heaps: dict[str, list] = {}
        self._seen: dict[str, int] = {}
        self._seq = itertools.count()

    def admits(self, kind: str, score: float) -> bool:
        """Whether a bundle scoring ``score`` would be kept right now —
        the cheap pre-check before assembling an expensive bundle."""
        with self._lock:
            heap = self._heaps.get(kind)
            if heap is None or len(heap) < self.capacity:
                return True
            return float(score) > heap[0][0]

    def record(self, kind: str, score: float, bundle: dict) -> bool:
        """Offer one bundle; returns whether it displaced into the
        ring (the lowest-scoring entry falls out at capacity)."""
        score = float(score)
        entry = (score, next(self._seq), dict(bundle))
        with self._lock:
            heap = self._heaps.setdefault(kind, [])
            self._seen[kind] = self._seen.get(kind, 0) + 1
            if len(heap) < self.capacity:
                heapq.heappush(heap, entry)
                return True
            if score <= heap[0][0]:
                return False
            heapq.heapreplace(heap, entry)
            return True

    def bundles(self, kind: str | None = None,
                limit: int | None = None) -> list[dict]:
        """Kept bundles, worst first; ``kind=None`` spans all kinds."""
        with self._lock:
            kinds = ([kind] if kind is not None
                     else sorted(self._heaps))
            entries = []
            for k in kinds:
                entries.extend((score, seq, k, bundle)
                               for score, seq, bundle
                               in self._heaps.get(k, ()))
        entries.sort(key=lambda e: (-e[0], e[1]))
        if limit is not None:
            entries = entries[:limit]
        return [{"kind": k, "score": score, "bundle": dict(bundle)}
                for score, _seq, k, bundle in entries]

    def describe(self) -> dict:
        """Per-kind kept/offered counts and the admission floor."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "kinds": {
                    k: {
                        "kept": len(heap),
                        "offered": self._seen.get(k, 0),
                        "floor": (heap[0][0]
                                  if len(heap) >= self.capacity
                                  else None),
                    }
                    for k, heap in sorted(self._heaps.items())
                },
            }
