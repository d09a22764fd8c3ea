"""Array-backed HAC kernel: GIL-free agglomeration over dense blocks.

The pure-Python agglomeration in :mod:`repro.core.clustering` is exact and
the permanent reference implementation, but every merge step is a
Python-level loop, and every seeded repair pays a Python-level sweep over
all component edges to derive its starting distances.  This module is the hot-path replacement for large components:

- :func:`agglomerate_square` runs the merge loop over a dense
  ``float64`` distance matrix with vectorized Lance–Williams updates and
  nearest-neighbour maintenance;
- :func:`seed_matrix` derives the inter-cluster linkage distances of an
  arbitrary seed partition by segmented ``max``/``min`` reductions over a
  component's cached distance block
  (:meth:`~repro.core.correlation.CorrelationMatrix.
  component_distance_block`) instead of a per-edge Python sweep.

**Determinism contract.**  The kernel produces merges *bit-identical* to
the pure-Python path — same merge pairs, same order, same recorded
distances — including under distance ties.  This holds because:

- every pairwise distance is computed with the same IEEE-754 double
  operations in both paths (``1.0 / (common/|A| + common/|B|)``);
- ``complete``/``single`` Lance–Williams updates are pure ``max``/``min``
  *selections* over those values — no arithmetic, no rounding — with the
  missing-pair-is-infinite convention mapped onto ``inf`` entries;
- tie-breaks match the heap's ``(distance, id, id)`` ordering exactly:
  cluster ids are min-member ranks (row indices of the seeds sorted by
  smallest key), a merged cluster keeps the smaller row, and
  ``numpy.argmin`` returns the *first* minimum — the lexicographically
  smallest ``(distance, id_a, id_b)`` candidate, which is precisely what
  the reference heap pops.

**Bounded runs.**  :func:`agglomerate_square` stops at the first merge
above ``max_distance``.  Complete and single linkage are monotone — no
merge is ever cheaper than the one before it — so that merge ends the
prefix a cut at ``max_distance`` reads, and the bounded run's merges are
exactly the full run's merges at or below the bound.

``average`` linkage is *not* offered: its Lance–Williams update does
float arithmetic whose rounding differs between a seeded and a
from-scratch path, and this repository refuses ulp drift (see
:mod:`repro.core.dendro_repair`); average always takes the Python path.

numpy is a **soft dependency** (``pip install repro-ocasta[fast]``):
without it every entry point below either reports the kernel unavailable
(``kernel="auto"`` falls back to Python silently) or raises a clear error
(``kernel="numpy"`` was explicitly requested).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

from repro.core.dendrogram import Merge

try:  # soft dependency: the pure-Python path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via tests' import guard
    _np = None

#: Pick the kernel per component: numpy when available and the component
#: is at least :data:`KERNEL_SIZE_THRESHOLD` keys, Python otherwise.
KERNEL_AUTO = "auto"
#: Always use the numpy kernel (raises when numpy is not installed).
KERNEL_NUMPY = "numpy"
#: Always use the pure-Python reference implementation.
KERNEL_PYTHON = "python"
#: The kernel names the clustering functions' ``kernel=`` accepts.
KERNEL_NAMES = (KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON)

#: Component size (in keys) at which ``kernel="auto"`` switches from the
#: pure-Python heap to the numpy kernel.  Below this the dense block's
#: allocation and the numpy call overhead outweigh the vectorized loop;
#: above it the kernel wins and keeps winning quadratically
#: (``benchmarks/bench_kernel.py`` measures the crossover).
KERNEL_SIZE_THRESHOLD = 48

#: Linkages the kernel implements (``average`` is Python-only by design).
KERNEL_LINKAGES = ("complete", "single")


def numpy_available() -> bool:
    """Whether the numpy kernel can run in this interpreter."""
    return _np is not None


def check_kernel(kernel: str) -> str:
    """Validate a kernel name (returns it unchanged).

    ``"numpy"`` additionally requires numpy to be importable — asking for
    the fast path explicitly on a box that cannot run it is a
    configuration error, not something to paper over silently.
    """
    if kernel not in KERNEL_NAMES:
        raise ValueError(f"unknown kernel {kernel!r}; options: {KERNEL_NAMES}")
    if kernel == KERNEL_NUMPY and _np is None:
        raise RuntimeError(
            "kernel='numpy' requested but numpy is not installed; "
            "install the fast extra (pip install repro-ocasta[fast]) or "
            "use kernel='auto'/'python'"
        )
    return kernel


def resolve_kernel(kernel: str, linkage: str, size: int) -> str:
    """The concrete kernel (``numpy`` or ``python``) for one agglomeration.

    ``size`` is the component's key count.  ``average`` linkage always
    resolves to Python (the kernel would not be bit-identical, see the
    module docstring); ``auto`` resolves to numpy only above
    :data:`KERNEL_SIZE_THRESHOLD` and when numpy is importable.
    """
    check_kernel(kernel)
    if kernel == KERNEL_PYTHON or linkage not in KERNEL_LINKAGES:
        return KERNEL_PYTHON
    if kernel == KERNEL_NUMPY:
        return KERNEL_NUMPY
    if _np is None or size < KERNEL_SIZE_THRESHOLD:
        return KERNEL_PYTHON
    return KERNEL_NUMPY


def require_numpy():
    """The numpy module, or a clear error when the soft dep is absent."""
    if _np is None:
        raise RuntimeError(
            "this code path needs numpy, which is not installed; "
            "install the fast extra (pip install repro-ocasta[fast])"
        )
    return _np


class DistanceBlock:
    """Dense pairwise distances of one component's keys.

    ``keys`` are the component's keys in sorted order; ``square`` is the
    symmetric ``(n, n)`` ``float64`` matrix of clustering distances with
    ``inf`` on the diagonal and wherever a pair never co-modified (the
    sparse matrix's missing-entry convention).  The array is **owned by
    the cache** (:meth:`~repro.core.correlation.CorrelationMatrix.
    component_distance_block`) and must not be mutated by consumers —
    the kernel copies before agglomerating.
    """

    __slots__ = ("keys", "index", "square")

    def __init__(self, keys: Sequence[str], square) -> None:
        self.keys = tuple(keys)
        self.index = {key: i for i, key in enumerate(self.keys)}
        self.square = square

    def positions(self, cluster) -> "_np.ndarray":
        """Row indices of a key set, sorted (for segmented reductions)."""
        np = require_numpy()
        return np.fromiter(
            (self.index[key] for key in sorted(cluster)),
            dtype=np.intp,
            count=len(cluster),
        )


def seed_matrix(
    block: DistanceBlock,
    clusters: Sequence[frozenset],
    linkage: str,
) -> "_np.ndarray":
    """Inter-cluster linkage matrix for a seed partition, vectorized.

    Equivalent to :func:`repro.core.clustering.seed_distances` rendered
    as a dense ``(k, k)`` array (``inf`` where that function has no
    entry): ``complete`` is the maximum cross-pair distance — ``inf``
    whenever any cross pair is missing, because ``max`` with ``inf`` is
    ``inf`` — and ``single`` the minimum.  Pure selection over the block
    values, hence bit-identical to the Python sweep.

    The cost is two segmented reductions over the block — O(n²) C-loop
    work with the GIL released — instead of a Python-level walk of every
    component edge.
    """
    np = require_numpy()
    if linkage not in KERNEL_LINKAGES:
        raise ValueError(
            f"kernel seed matrix supports {KERNEL_LINKAGES}, got {linkage!r}"
        )
    reduce_op = np.maximum if linkage == "complete" else np.minimum
    # Concatenated member columns plus per-seed start offsets, from one
    # ``fromiter`` over the whole partition: member order within a
    # segment is irrelevant, the reductions are pure max/min selections.
    lengths = np.fromiter(map(len, clusters), dtype=np.intp, count=len(clusters))
    cols = np.fromiter(
        map(block.index.__getitem__, chain.from_iterable(clusters)),
        dtype=np.intp,
        count=int(lengths.sum()),
    )
    offsets = np.zeros(len(clusters), dtype=np.intp)
    np.cumsum(lengths[:-1], out=offsets[1:])
    # (n, k): per source row, the reduction over each seed's columns
    per_seed = reduce_op.reduceat(block.square[:, cols], offsets, axis=1)
    # (k, k): the same segmented reduction down the rows, in seed order
    out = reduce_op.reduceat(per_seed[cols], offsets, axis=0)
    np.fill_diagonal(out, np.inf)
    return out


def agglomerate_square(
    square: "_np.ndarray",
    clusters: Sequence[frozenset],
    linkage: str,
    max_distance: float = math.inf,
) -> list[Merge]:
    """Heap-free HAC over a dense inter-cluster distance matrix.

    ``square`` is the ``(k, k)`` symmetric distance matrix of the seed
    partition (``inf`` diagonal and missing pairs) — **mutated in
    place**, pass a copy if the array is shared.  ``clusters`` are the
    seeds sorted by smallest member key, so row index equals the
    reference implementation's min-member-rank cluster id.

    Returns the merges in the exact order
    :func:`repro.core.clustering.agglomerate_clusters` performs them
    (see the module docstring for why the tie-breaks coincide), up to
    the last one at or below ``max_distance``.
    """
    np = require_numpy()
    if linkage not in KERNEL_LINKAGES:
        raise ValueError(
            f"kernel agglomeration supports {KERNEL_LINKAGES}, got {linkage!r}"
        )
    count = len(clusters)
    if square.shape != (count, count):
        raise ValueError(
            f"distance matrix shape {square.shape} does not match "
            f"{count} seed clusters"
        )
    if count < 2:
        return []
    single = linkage == "single"
    combine = np.minimum if single else np.maximum
    inf = np.inf

    # Per-row nearest neighbour among the columns above the diagonal:
    # nn_idx[i] is the smallest j > i minimising square[i, j], so the
    # globally smallest (distance, i, j) is found at the argmin row.
    nn_dist = np.full(count, inf)
    nn_idx = np.zeros(count, dtype=np.intp)

    def rescan(row: int) -> None:
        tail = square[row, row + 1:]
        if tail.size:
            j = int(tail.argmin())
            nn_dist[row] = tail[j]
            nn_idx[row] = row + 1 + j
        else:
            nn_dist[row] = inf

    # Initial neighbours in one pass over the strict upper triangle —
    # argmin's first-minimum rule matches rescan()'s tie-break.  Rows
    # with no finite neighbour keep rescan()'s (row + 1, inf) entry.
    upper = np.where(np.tri(count, dtype=bool), inf, square)
    nn_idx[:-1] = upper[:-1].argmin(axis=1)
    nn_dist[:-1] = upper[np.arange(count - 1), nn_idx[:-1]]
    unlinked = np.isinf(nn_dist[:-1]).nonzero()[0]
    nn_idx[unlinked] = unlinked + 1

    members = list(clusters)
    merges: list[Merge] = []
    for _ in range(count - 1):
        id_a = int(nn_dist.argmin())
        distance = float(nn_dist[id_a])
        if distance > max_distance or math.isinf(distance):
            break  # nothing left to merge at or below the bound
        id_b = int(nn_idx[id_a])
        left = members[id_a]
        right = members[id_b]
        merged = left | right
        merges.append(
            Merge(left=left, right=right, distance=distance, members=merged)
        )
        members[id_a] = merged
        members[id_b] = None

        # Lance–Williams: the merged cluster keeps row id_a; row id_b dies.
        row = combine(square[id_a], square[id_b])
        row[id_a] = inf
        row[id_b] = inf
        square[id_a, :] = row
        square[:, id_a] = row
        square[id_b, :] = inf
        square[:, id_b] = inf
        nn_dist[id_b] = inf

        # Rows whose nearest neighbour involved either merged row must
        # rescan — their cached minimum may be stale.  That always
        # includes the merged row itself (its neighbour was id_b), and
        # dead rows are all-inf, so a spurious rescan is a no-op.
        stale = ((nn_idx == id_a) | (nn_idx == id_b)).nonzero()[0]
        for other in stale:
            rescan(int(other))
        if single:
            # Single linkage can lower the merged row below other rows'
            # cached minima; adopt column id_a wherever it now wins the
            # (distance, index) order.
            cand = square[:id_a, id_a]
            cur = nn_dist[:id_a]
            better = (cand < cur) | ((cand == cur) & (nn_idx[:id_a] > id_a))
            hits = better.nonzero()[0]
            if hits.size:
                nn_dist[hits] = cand[hits]
                nn_idx[hits] = id_a
    return merges
