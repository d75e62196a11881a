"""Disk cache for pretrained embeddings, safe under concurrent writers.

Tables 4 and 6 and Figure 1 all evaluate the *same* frozen embeddings, and
re-running the bench suite should not retrain every method.  Embeddings are
stored as ``.npz`` files keyed by (method, dataset, seed, profile) under
``.cache/embeddings`` in the repository root (override with
``REPRO_CACHE_DIR``; disable with ``REPRO_NO_CACHE=1``).

Entry filenames carry a short stable hash of the raw key next to the
readable slug, so keys that slug identically (``a-b`` vs ``a_b``) can never
collide on one file.

Concurrency (``repro.parallel`` runs cells in worker processes):

* **Publication** stays write-then-rename, with first-writer-wins on the
  final rename — a concurrent writer that loses the race discards its
  temporary file instead of replacing an identical published entry.
* **Duplicate compute** is prevented by an in-flight sentinel: the first
  process to miss creates ``<entry>.npz.lock`` with ``O_EXCL`` and
  computes; others poll, read the entry the moment it is published, and
  break the sentinel only once it is older than
  ``REPRO_CACHE_LOCK_TIMEOUT`` seconds (default 600 — a crashed holder
  must not wedge the suite forever).

Cache lookups report through telemetry: ``cache.hit`` / ``cache.miss``
counters on the active :class:`~repro.obs.recorder.MetricsRecorder`,
rendered by ``repro runs show``.
"""

from __future__ import annotations

import hashlib
import os
import time
import zipfile
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..engine import EmbeddingResult
from ..obs.hooks import emit_counter

_POLL_SECONDS = 0.05


def cache_directory() -> Optional[Path]:
    """The cache root, or ``None`` when caching is disabled."""
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path(__file__).resolve().parents[3] / ".cache" / "embeddings"


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in text)


def entry_path(directory: Path, key: str) -> Path:
    """The cache file for ``key``: readable slug + stable key hash.

    The hash disambiguates keys the slug maps to the same text (``a-b``
    and ``a_b`` both slug to ``a-b``-ish names only one character apart in
    intent but identical on disk without it).
    """
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:10]
    return directory / f"{_slug(key)}-{digest}.npz"


def _lock_timeout_seconds() -> float:
    return float(os.environ.get("REPRO_CACHE_LOCK_TIMEOUT", "600"))


def _load_entry(path: Path) -> Optional[EmbeddingResult]:
    """Read one cache entry; corrupt entries are deleted and miss."""
    if not path.exists():
        return None
    try:
        # Our own handle: np.load leaves the file it opens unclosed when a
        # truncated archive fails to parse.
        with open(path, "rb") as handle, np.load(handle) as payload:
            return EmbeddingResult(
                embeddings=payload["embeddings"],
                train_seconds=float(payload["train_seconds"]),
                loss_history=list(payload["loss_history"]),
            )
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        path.unlink(missing_ok=True)  # corrupt entry: recompute
        return None


def _publish_entry(path: Path, result: EmbeddingResult) -> None:
    """Write-then-rename with first-writer-wins on the rename.

    The pid-suffixed temporary name keeps two writers (possible only after
    a stale sentinel was broken) from clobbering each other's partial
    file; whoever renames first wins and the loser just discards.
    """
    partial = Path(f"{path}.{os.getpid()}.tmp")
    with open(partial, "wb") as handle:  # file object: numpy won't rename it
        np.savez(  # plain, like checkpoints: embeddings barely compress
            handle,
            embeddings=result.embeddings,
            train_seconds=np.float64(result.train_seconds),
            loss_history=np.asarray(result.loss_history, dtype=np.float64),
        )
    if path.exists():
        partial.unlink(missing_ok=True)
    else:
        os.replace(partial, path)


def cached_fit(
    key: str,
    fit: Callable[[], EmbeddingResult],
) -> EmbeddingResult:
    """Return cached embeddings for ``key`` or compute-and-store them.

    The cached payload keeps the embeddings, wall-clock seconds and loss
    history, which is everything the table runners consume.  When several
    processes miss on the same key at once, exactly one computes (sentinel
    holder) and the rest wait for the published entry.
    """
    directory = cache_directory()
    if directory is None:
        return fit()
    directory.mkdir(parents=True, exist_ok=True)
    path = entry_path(directory, key)
    cached = _load_entry(path)
    if cached is not None:
        emit_counter("cache.hit")
        return cached
    emit_counter("cache.miss")

    lock = Path(f"{path}.lock")
    while True:
        try:
            descriptor = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            # Another process is computing this key.  Read the entry the
            # moment it lands (the holder publishes before unlinking the
            # sentinel), and break sentinels whose holder has died.
            cached = _load_entry(path)
            if cached is not None:
                return cached
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                continue  # released between open() and stat(): retry now
            if age > _lock_timeout_seconds():
                lock.unlink(missing_ok=True)
                continue
            time.sleep(_POLL_SECONDS)
            continue
        try:
            os.write(descriptor, f"{os.getpid()}\n".encode())
        finally:
            os.close(descriptor)
        try:
            # Double-check: the previous holder may have published while we
            # were racing for the sentinel.
            cached = _load_entry(path)
            if cached is not None:
                return cached
            result = fit()
            _publish_entry(path, result)
            return result
        finally:
            lock.unlink(missing_ok=True)


def clear_cache() -> int:
    """Delete every cached entry; returns the number of entries removed."""
    directory = cache_directory()
    if directory is None or not directory.exists():
        return 0
    removed = 0
    for path in directory.glob("*.npz"):
        path.unlink()
        removed += 1
    for litter in directory.glob("*.npz.*"):  # stale .lock / .tmp files
        litter.unlink(missing_ok=True)
    return removed
