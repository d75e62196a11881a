"""Bookkeeping shared by the SSL methods.

The experiment harness (Tables 4-7) calls ``fit(graph, seed)`` for
node-level methods or ``fit_graphs(dataset, seed)`` for graph-level ones,
as :class:`repro.engine.Method` defines them, and receives an
:class:`~repro.engine.EmbeddingResult`, re-exported here.
"""

from __future__ import annotations

import time

from ..engine import EmbeddingResult

__all__ = ["EmbeddingResult", "Stopwatch"]


class Stopwatch:
    """Tiny context manager measuring wall-clock seconds."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
