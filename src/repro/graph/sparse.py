"""Sparse adjacency utilities shared by the GNN layers and augmentations.

The construction helpers here sit on the hot training path: every encoder
forward needs a structure operand derived from the adjacency, and every
``spmm`` backward needs its transpose.  Two mechanisms keep that cheap:

* All diagonal surgery works on COO triplets directly (no LIL round trips,
  which dominated the seed implementation's cost).
* :func:`memoized_on_matrix` caches derived matrices (normalised operands,
  CSR transposes, edge arrays) keyed on the *identity* of the source
  adjacency, with weakref-based eviction, so one adjacency trained for many
  epochs is normalised exactly once.  The incidence matrix of a read-only
  index array (:func:`cached_incidence`) is cached the same way, keyed on
  the array.  :class:`cache_disabled` restores the build-every-call
  behaviour for benchmarking.
* Constructors that provably produce symmetric matrices tag their result
  (:func:`mark_symmetric`), and :func:`cached_transpose` returns a tagged
  matrix *itself* instead of materialising a transpose: a canonical-form
  symmetric CSR has bit-identical ``indptr``/``indices``/``data`` to its
  transpose, so ``spmm``'s backward can reuse the forward operand directly.

Float data follows the process dtype policy (:mod:`repro.nn.dtype`):
``float64`` by default, with float32 inputs preserved rather than silently
up-cast.
"""

from __future__ import annotations

import functools
import threading
import weakref
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..nn.dtype import as_float_array, default_dtype, resolve_dtype


def to_csr(matrix: sp.spmatrix, dtype=None) -> sp.csr_matrix:
    """Coerce any scipy sparse format to canonical CSR with float data.

    Without an explicit ``dtype`` the data follows the policy in
    :mod:`repro.nn.dtype`, except that a float input *narrower* than the
    policy keeps its dtype (never silently widen — mirroring
    :func:`repro.nn.dtype.as_float_array`).
    """
    target = resolve_dtype(dtype)
    if target is None:
        policy = default_dtype()
        current = getattr(matrix, "dtype", None)
        keep = (
            current is not None
            and current.kind == "f"
            and current.itemsize <= policy.itemsize
        )
        target = current if keep else policy
    csr = sp.csr_matrix(matrix, dtype=target)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    if is_marked_symmetric(matrix):
        mark_symmetric(csr)
    return csr


# ---------------------------------------------------------------------------
# Symmetry tagging (training-time transpose skip)
# ---------------------------------------------------------------------------
def mark_symmetric(matrix: sp.spmatrix) -> sp.spmatrix:
    """Tag ``matrix`` as symmetric so backward passes can skip its transpose.

    Only constructors that *guarantee* symmetry may call this (symmetrize,
    diagonal surgery on a tagged input, symmetric normalisation, block
    diagonals of tagged blocks).  scipy operations on a tagged matrix
    (slicing, ``.T``, arithmetic) return fresh objects without the tag, so
    the mark cannot leak onto derived matrices that lose symmetry.
    """
    matrix._repro_symmetric = True
    return matrix


def is_marked_symmetric(matrix) -> bool:
    """Whether ``matrix`` was tagged by a symmetry-preserving constructor."""
    return bool(getattr(matrix, "_repro_symmetric", False))


# ---------------------------------------------------------------------------
# Identity-keyed derived-matrix cache
# ---------------------------------------------------------------------------
class _MatrixCache:
    """Cache of values derived from scipy matrices, keyed by matrix identity.

    Entries are evicted when the source matrix is garbage collected (via a
    weakref callback) or when the cache exceeds ``max_entries`` (oldest
    first), so short-lived corrupted/augmented adjacencies cannot leak.
    """

    def __init__(self, max_entries: int = 64) -> None:
        self._entries: Dict[Tuple[int, Hashable], object] = {}
        self._refs: Dict[int, weakref.ref] = {}
        # Reentrant: evicting an entry can drop the last reference to a
        # matrix that is itself the source of other entries, firing the
        # weakref callback (and hence _evict_id) while the lock is held.
        self._lock = threading.RLock()
        self.max_entries = max_entries

    def _evict_id(self, matrix_id: int) -> None:
        with self._lock:
            self._refs.pop(matrix_id, None)
            for key in [k for k in self._entries if k[0] == matrix_id]:
                self._entries.pop(key, None)

    def get(self, matrix: sp.spmatrix, key: Hashable) -> Optional[object]:
        with self._lock:
            return self._entries.get((id(matrix), key))

    def put(self, matrix: sp.spmatrix, key: Hashable, value: object) -> None:
        matrix_id = id(matrix)
        with self._lock:
            if matrix_id not in self._refs:
                callback = lambda _ref, mid=matrix_id: self._evict_id(mid)  # noqa: E731
                self._refs[matrix_id] = weakref.ref(matrix, callback)
            self._entries[(matrix_id, key)] = value
            while len(self._entries) > self.max_entries:
                oldest = next(iter(self._entries))
                self._entries.pop(oldest)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._refs.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_derived_cache = _MatrixCache()
_cache_enabled = True


def cache_info() -> Dict[str, int]:
    """Size of the derived-matrix cache (diagnostics/tests)."""
    return {"entries": len(_derived_cache)}


def clear_cache() -> None:
    """Drop every cached derived matrix."""
    _derived_cache.clear()


def cache_is_enabled() -> bool:
    return _cache_enabled


class cache_disabled:
    """Context manager that bypasses the derived-matrix cache.

    Used by the perf-regression benchmark to time the build-every-call
    (pre-cache) behaviour against the cached path on identical workloads.
    """

    def __enter__(self) -> "cache_disabled":
        global _cache_enabled
        self._previous = _cache_enabled
        _cache_enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _cache_enabled
        _cache_enabled = self._previous


def memoized_on_matrix(
    matrix: sp.spmatrix, key: Hashable, builder: Callable[[], object]
) -> object:
    """Return ``builder()``, cached against ``matrix``'s identity under ``key``."""
    if not _cache_enabled:
        return builder()
    value = _derived_cache.get(matrix, key)
    if value is None:
        value = builder()
        _derived_cache.put(matrix, key, value)
    return value


def cached_transpose(matrix: sp.spmatrix) -> sp.csr_matrix:
    """``matrix.T`` as CSR, built once per source matrix.

    ``spmm``'s backward multiplies by the transpose; materialising it once
    (instead of per backward call) keeps the fused forward+backward path
    free of repeated CSC→CSR conversions.  For matrices tagged symmetric
    the transpose is the matrix itself: canonical CSR of a symmetric matrix
    has bit-identical ``indptr``/``indices``/``data`` to its transpose, so
    nothing is built or cached at all.
    """
    if is_marked_symmetric(matrix):
        return matrix
    return memoized_on_matrix(
        matrix, "transpose-csr", lambda: to_csr(matrix.T, dtype=matrix.dtype)
    )


class Incidence:
    """The 0/1 incidence of an integer index array; see :func:`cached_incidence`.

    ``distinct`` needs only the count of each id, so a gather whose ids
    are distinct (its backward assigns) never pays for the CSR
    constructor: ``matrix`` is built on first use.  Nothing here refers
    to ``ids`` itself, which would keep a memoized array alive.
    """

    def __init__(self, ids: np.ndarray, num_rows: int, dtype) -> None:
        flat = ids.reshape(-1).astype(np.int64, copy=False)
        negative = flat.size > 0 and int(flat.min()) < 0
        rows = np.where(flat < 0, flat + num_rows, flat) if negative else flat
        self._counts = np.bincount(rows, minlength=num_rows)
        # The positions stably sorted by id: each id's run, in position order.
        self.order = np.argsort(rows, kind="stable")
        self._dtype = dtype
        # Every id is non-negative and occurs at most once.
        self.distinct = flat.size == 0 or (not negative and int(self._counts.max()) <= 1)

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (
                np.ones(self.order.size, dtype=self._dtype),
                self.order,
                np.concatenate(([0], np.cumsum(self._counts))),
            ),
            shape=(self._counts.size, self.order.size),
        )

    def sum_rows(self, values: np.ndarray) -> np.ndarray:
        """Rows of ``values`` summed per id: ``matrix @ values`` on the leading axis."""
        flat = values.reshape(values.shape[0], int(np.prod(values.shape[1:])))
        return (self.matrix @ flat).reshape((self.matrix.shape[0],) + values.shape[1:])


def csr_row_slots(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where the stored entries of ``rows`` sit in a CSR matrix, row by row.

    Returns ``(row_ids, slots)``: ``slots`` lists the ``indices``/``data``
    positions of every entry of ``rows[0]``, then of ``rows[1]``, and so
    on, each row in stored order, and ``row_ids[k]`` is the position in
    ``rows`` of the row that owns ``slots[k]``.  One ragged gather, with
    no Python loop over the rows.
    """
    starts = indptr[rows]
    degrees = indptr[rows + 1] - starts
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    row_ids = np.repeat(np.arange(rows.size), degrees)
    slots = starts[row_ids] + (np.arange(int(offsets[-1])) - offsets[row_ids])
    return row_ids, slots


def cached_incidence(ids: np.ndarray, num_rows: int, dtype) -> Incidence:
    """The ``num_rows x ids.size`` 0/1 incidence of an integer array.

    Row ``s`` of ``matrix`` lists, in ascending order, the flat positions
    ``p`` with ``ids.flat[p] == s``; negative ids wrap, as in numpy
    indexing.  So :meth:`Incidence.sum_rows` (``matrix @ values``) sums
    the rows of ``values`` that share an id in position order, bit for bit
    what ``np.add.at`` computes: scipy's CSR product adds each row's
    entries in stored order.  ``order`` (the matrix's ``indices``) groups
    the positions by id for a sorted ``reduceat``.  The data has
    ``dtype``, the dtype of the values it will multiply; wider 1.0 entries
    would widen the product.

    A read-only ``ids`` is memoized on its identity, so an edge array
    pays for its incidence once; its values must not change while it
    lives.  A writeable one may change between calls and is built afresh
    each time.
    """
    dtype = np.dtype(dtype)
    if ids.flags.writeable:
        return Incidence(ids, num_rows, dtype)
    return memoized_on_matrix(
        ids, ("incidence", num_rows, dtype.str), lambda: Incidence(ids, num_rows, dtype)
    )


# ---------------------------------------------------------------------------
# Diagonal surgery (COO-based, no LIL round trips)
# ---------------------------------------------------------------------------
def remove_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return the adjacency with a zeroed diagonal.

    Diagonal surgery preserves symmetry, so a symmetry mark on the input
    carries over to the result.
    """
    coo = sp.coo_matrix(adjacency)
    off_diagonal = coo.row != coo.col
    result = to_csr(
        sp.coo_matrix(
            (
                as_float_array(coo.data[off_diagonal]),
                (coo.row[off_diagonal], coo.col[off_diagonal]),
            ),
            shape=coo.shape,
        )
    )
    if is_marked_symmetric(adjacency):
        mark_symmetric(result)
    return result


def add_self_loops(adjacency: sp.spmatrix, weight: float = 1.0) -> sp.csr_matrix:
    """Return ``A + weight * I`` (existing diagonal is replaced)."""
    coo = sp.coo_matrix(adjacency)
    off_diagonal = coo.row != coo.col
    n = coo.shape[0]
    diagonal = np.arange(n)
    rows = np.concatenate([coo.row[off_diagonal], diagonal])
    cols = np.concatenate([coo.col[off_diagonal], diagonal])
    off_data = as_float_array(coo.data[off_diagonal])
    data = np.concatenate([off_data, np.full(n, float(weight), dtype=off_data.dtype)])
    result = to_csr(sp.coo_matrix((data, (rows, cols)), shape=coo.shape))
    if is_marked_symmetric(adjacency):
        mark_symmetric(result)
    return result


def symmetrize(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Make the adjacency symmetric by taking the elementwise maximum."""
    adjacency = to_csr(adjacency)
    return mark_symmetric(to_csr(adjacency.maximum(adjacency.T)))


def normalized_adjacency(
    adjacency: sp.spmatrix,
    self_loops: bool = True,
    mode: str = "symmetric",
) -> sp.csr_matrix:
    """GCN-style normalisation ``D^-1/2 (A + I) D^-1/2`` (or ``D^-1 A``).

    Parameters
    ----------
    adjacency:
        Unnormalised (binary) adjacency.
    self_loops:
        Whether to add the renormalisation-trick self loops first.
    mode:
        ``"symmetric"`` for GCN or ``"row"`` for mean aggregation (SAGE-style).
    """
    matrix = add_self_loops(adjacency) if self_loops else to_csr(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    # Scale the COO triplets directly: equivalent to D^-1/2 A D^-1/2 (or
    # D^-1 A) without materialising diagonal matrices or re-running spgemm.
    coo = matrix.tocoo(copy=True)
    if mode == "symmetric":
        inv_sqrt = np.zeros_like(degrees)
        nonzero = degrees > 0
        inv_sqrt[nonzero] = degrees[nonzero] ** -0.5
        coo.data *= inv_sqrt[coo.row] * inv_sqrt[coo.col]
        result = to_csr(coo)
        # D^-1/2 A D^-1/2 is symmetric exactly when A is.
        if is_marked_symmetric(matrix):
            mark_symmetric(result)
        return result
    if mode == "row":
        inv = np.zeros_like(degrees)
        nonzero = degrees > 0
        inv[nonzero] = 1.0 / degrees[nonzero]
        coo.data *= inv[coo.row]
        return to_csr(coo)
    raise ValueError(f"unknown normalisation mode {mode!r}; use 'symmetric' or 'row'")


def edge_array(adjacency: sp.spmatrix, directed: bool = False) -> np.ndarray:
    """Return edges as an ``(E, 2)`` int array.

    With ``directed=False`` each undirected edge appears once, as ``(u, v)``
    with ``u < v``.
    """
    coo = sp.coo_matrix(adjacency)
    rows, cols = coo.row, coo.col
    if directed:
        return np.stack([rows, cols], axis=1)
    mask = rows < cols
    return np.stack([rows[mask], cols[mask]], axis=1)


def adjacency_from_edges(
    edges: np.ndarray, num_nodes: int, symmetric: bool = True
) -> sp.csr_matrix:
    """Build a binary adjacency from an ``(E, 2)`` edge array."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    data = np.ones(len(edges))
    matrix = sp.coo_matrix(
        (data, (edges[:, 0], edges[:, 1])), shape=(num_nodes, num_nodes)
    )
    matrix = to_csr(matrix)
    if symmetric:
        matrix = symmetrize(matrix)
    matrix.data[:] = 1.0
    return matrix


def k_hop_neighbors(adjacency: sp.spmatrix, node: int, k: int) -> np.ndarray:
    """Nodes at *exactly* ``k`` hops from ``node`` (breadth-first)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    adjacency = to_csr(adjacency)
    frontier = {node}
    seen = {node}
    for _ in range(k):
        next_frontier = set()
        for u in frontier:
            next_frontier.update(adjacency.indices[adjacency.indptr[u]:adjacency.indptr[u + 1]])
        frontier = next_frontier - seen
        seen |= frontier
    return np.array(sorted(frontier), dtype=np.int64)


def ppr_diffusion(
    adjacency: sp.spmatrix,
    alpha: float = 0.2,
    top_k: Optional[int] = None,
) -> sp.csr_matrix:
    """Personalised-PageRank diffusion matrix (MVGRL's structural view).

    Computes ``alpha (I - (1 - alpha) D^-1/2 A D^-1/2)^-1`` densely (the
    graphs in this repo are small), optionally sparsified to the ``top_k``
    strongest entries per row.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    norm = normalized_adjacency(adjacency, self_loops=True).toarray()
    n = norm.shape[0]
    diffusion = alpha * np.linalg.inv(np.eye(n) - (1.0 - alpha) * norm)
    if top_k is not None and top_k < n:
        keep = np.argsort(diffusion, axis=1)[:, -top_k:]
        sparse = np.zeros_like(diffusion)
        rows = np.repeat(np.arange(n), top_k)
        sparse[rows, keep.ravel()] = diffusion[rows, keep.ravel()]
        diffusion = sparse
    return to_csr(sp.csr_matrix(diffusion))
