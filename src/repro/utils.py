"""Small shared utilities: RNG handling, timers, size measurement."""

from __future__ import annotations

import pickle
import sys
import time
from dataclasses import dataclass

import numpy as np


def resolve_rng(seed_or_rng) -> np.random.Generator:
    """Return a numpy Generator from a seed, a Generator, or None."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass
class Timer:
    """Context manager measuring wall-clock seconds into ``elapsed``."""

    elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


def restore_state(obj, state: dict) -> None:
    """Install unpickled ``state`` as pickle's default does, interning the
    attribute names.  Classes whose ``__setstate__`` rebuilds derived
    state call this, so their instances share name strings and a reloaded
    model re-pickles to the bytes (and ``pickled_size_bytes``) it had."""
    for name, value in state.items():
        obj.__dict__[sys.intern(name)] = value


def pickled_size_bytes(obj) -> int:
    """Model-size metric used across the evaluation: pickled byte size.

    The paper reports "model size (MB)"; pickling is the closest uniform
    measure for heterogeneous python/numpy models.
    """
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def value_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (unique_values, counts) for an integer/str array, sorted by value."""
    return np.unique(values, return_counts=True)


def safe_div(a, b, default: float = 0.0):
    """Elementwise a/b with 0-denominator entries replaced by ``default``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.full(np.broadcast(a, b).shape, default, dtype=float)
    np.divide(a, b, out=out, where=b != 0)
    return out


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Render an ASCII table (used by the benchmark harness reports)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
