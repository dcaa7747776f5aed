"""CountMin sketch (Cormode & Muthukrishnan, J. Algorithms 2005).

The paper's main comparator and, per its Section 5.1.3, a degenerate TCM:
a CountMin row is a TCM matrix whose second hash function has a single
bucket.  We implement it independently here (a ``d x w`` counter array
with one pairwise hash per row) so the comparison is honest, plus the two
graph-stream specializations the paper describes in Example 1:

- :class:`NodeCountMin` -- node sketch: hashes node labels, answers flow
  (point) queries for one direction.
- :class:`EdgeCountMin` -- edge sketch: hashes *concatenated* endpoint
  labels, answers edge-weight queries.  The concatenation cost is what
  Exp-5 charges CountMin for, so we expose the concatenated key path
  explicitly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.core import kernels as _kernels
from repro.hashing.family import HashFamily
from repro.hashing.labels import Label, label_to_int


class CountMinSketch:
    """Plain CountMin over hashable keys.

    :param d: number of hash rows.
    :param width: buckets per row.
    :param seed: seeds the pairwise-independent hash family.
    """

    def __init__(self, d: int, width: int, seed: Optional[int] = 0):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self._family = HashFamily.uniform(d, width, seed=seed)
        self._table = np.zeros((d, width), dtype=np.float64)

    @property
    def d(self) -> int:
        return self._table.shape[0]

    @property
    def width(self) -> int:
        return self._table.shape[1]

    @property
    def size_in_cells(self) -> int:
        return self._table.size

    def update(self, key: Label, weight: float = 1.0) -> None:
        """Add ``weight`` to the key's counter in every row -- O(d)."""
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {weight}")
        intkey = label_to_int(key)
        for row, h in enumerate(self._family):
            self._table[row, h.hash_int(intkey)] += weight

    def remove(self, key: Label, weight: float = 1.0) -> None:
        """Subtract ``weight`` (deletion / window expiry)."""
        intkey = label_to_int(key)
        for row, h in enumerate(self._family):
            self._table[row, h.hash_int(intkey)] -= weight

    def estimate(self, key: Label) -> float:
        """The CountMin estimate: minimum counter across rows."""
        intkey = label_to_int(key)
        return float(min(self._table[row, h.hash_int(intkey)]
                         for row, h in enumerate(self._family)))

    def update_many(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Vectorized bulk update of pre-converted integer keys.

        Routed through the active scatter kernel (see
        :mod:`repro.core.kernels`): each row takes one in-order
        scatter-add, bit-identical to per-element :meth:`update`, and
        duplicate keys are hashed once per chunk rather than once per
        row.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        weights = np.asarray(weights, dtype=np.float64)
        backend = _kernels.get_backend()
        if self.d > 1:
            unique_keys, inverse = _kernels.dedup_keys(keys)
        else:
            unique_keys, inverse = keys, None
        for row, h in enumerate(self._family):
            idx = h.hash_many(unique_keys)
            if inverse is not None:
                idx = idx[inverse]
            backend.scatter_add_1d(self._table[row], idx, weights)

    def clear(self) -> None:
        self._table.fill(0)


def concat_edge_key(source: Label, target: Label) -> str:
    """The string concatenation an edge-CountMin must perform per element.

    This is deliberately a real string operation (not a tuple hash): the
    paper's Exp-5 measures exactly this cost against TCM, which hashes the
    two labels separately and never concatenates.
    """
    return f"{source}\x1f{target}"


class EdgeCountMin:
    """CountMin keyed on concatenated edge labels (Example 1's edge sketch).

    Supports edge-weight and explicit-edge aggregate-subgraph queries, and
    nothing else -- per the paper's Table 3 row for "CountMin (edge) or
    gSketch".
    """

    def __init__(self, d: int, width: int, seed: Optional[int] = 0,
                 directed: bool = True):
        self.directed = directed
        self._cm = CountMinSketch(d, width, seed=seed)

    @property
    def size_in_cells(self) -> int:
        return self._cm.size_in_cells

    def _key(self, source: Label, target: Label) -> str:
        if not self.directed and repr(source) > repr(target):
            source, target = target, source
        return concat_edge_key(source, target)

    def update(self, source: Label, target: Label, weight: float = 1.0) -> None:
        self._cm.update(self._key(source, target), weight)

    def remove(self, source: Label, target: Label, weight: float = 1.0) -> None:
        self._cm.remove(self._key(source, target), weight)

    def edge_weight(self, source: Label, target: Label) -> float:
        return self._cm.estimate(self._key(source, target))

    def subgraph_weight(self, edges: Iterable) -> float:
        """Aggregate subgraph weight for explicit edges (gSketch semantics)."""
        total = 0.0
        for source, target in edges:
            weight = self.edge_weight(source, target)
            if weight == 0.0:
                return 0.0
            total += weight
        return total

    def ingest(self, stream) -> int:
        count = 0
        for edge in stream:
            self.update(edge.source, edge.target, edge.weight)
            count += 1
        return count


class NodeCountMin:
    """CountMin keyed on node labels (Example 1's node sketch).

    One instance answers flow queries for a single direction; supporting
    both in- and out-flow requires two instances (twice the space), which
    is exactly the set-of-problems disadvantage Exp-1(f) measures.
    """

    def __init__(self, d: int, width: int, seed: Optional[int] = 0,
                 direction: str = "in"):
        if direction not in ("in", "out", "both"):
            raise ValueError(f"direction must be 'in'/'out'/'both', got {direction!r}")
        self.direction = direction
        self._cm = CountMinSketch(d, width, seed=seed)

    @property
    def size_in_cells(self) -> int:
        return self._cm.size_in_cells

    def update(self, source: Label, target: Label, weight: float = 1.0) -> None:
        if self.direction in ("in", "both"):
            self._cm.update(target, weight)
        if self.direction in ("out", "both"):
            self._cm.update(source, weight)

    def remove(self, source: Label, target: Label, weight: float = 1.0) -> None:
        if self.direction in ("in", "both"):
            self._cm.remove(target, weight)
        if self.direction in ("out", "both"):
            self._cm.remove(source, weight)

    def flow(self, node: Label) -> float:
        """Estimated flow of ``node`` in this sketch's direction."""
        return self._cm.estimate(node)

    def ingest(self, stream) -> int:
        count = 0
        for edge in stream:
            self.update(edge.source, edge.target, edge.weight)
            count += 1
        return count
