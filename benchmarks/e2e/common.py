"""What both drivers share: the failure type and segment preparation."""

from __future__ import annotations

import gc
from typing import Optional

from repro.api import cache_info, clear_caches


class CheckFailed(Exception):
    """A correctness gate did not hold; the run exits non-zero."""


def prepare_segment() -> None:
    """Make segments do identical work: cold condition caches, no garbage."""
    clear_caches()
    gc.collect()


def condition_cache_hit_ratio() -> Optional[float]:
    """Hits over lookups of the condition-algebra caches since the last
    :func:`prepare_segment` (None when nothing was looked up)."""
    hits = misses = 0
    for name, info in cache_info().items():
        if name in ("and", "or", "invert", "substitute"):
            hits += info.hits
            misses += info.misses
    return hits / (hits + misses) if hits + misses else None
