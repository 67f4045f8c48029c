"""Worker-count control for grid evaluations and ``simulate``'s CSV formatters.

The ``COHERELAB_THREADS`` environment variable caps parallelism; ``0`` or
an unset variable selects an automatic cap.  Results are always assembled
in input order, so parallel evaluation never changes output bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ValidationError

ENV_VAR = "COHERELAB_THREADS"

_T = TypeVar("_T")
_R = TypeVar("_R")


def thread_count() -> int:
    raw = os.environ.get(ENV_VAR, "0").strip() or "0"
    try:
        requested = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if requested < 0:
        raise ValidationError(f"{ENV_VAR} must be >= 0, got {requested}")
    if requested == 0:
        return min(os.cpu_count() or 1, 8)
    return requested


def map_ordered(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """Apply ``fn`` to every item, preserving order; threads when it pays."""
    seq: Sequence[_T] = list(items)
    workers = thread_count()
    if workers <= 1 or len(seq) < 4:
        return [fn(item) for item in seq]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))
