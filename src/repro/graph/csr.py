"""Compressed sparse row (CSR) adjacency storage.

GraphBLAS-style accelerators store the graph as a sparse adjacency
matrix; CSR is the format GraphLily streams (§V-A).  The matrix rows are
*destination* vertices and columns are *source* vertices (pull-style
SpMV: ``rank' = A · rank``), matching Fig. 9.

Backed by numpy arrays; values are optional (BFS only needs structure).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError


class CsrMatrix:
    """A square sparse matrix in CSR form."""

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 values: np.ndarray | None = None) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.shape != (n + 1,):
            raise ConfigError(f"indptr must have shape ({n + 1},), got {indptr.shape}")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ConfigError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ConfigError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ConfigError("column indices out of range")
        self.n = n
        self.indptr = indptr
        self.indices = indices
        if values is None:
            # Unit weights as one read-only, zero-stride scalar view: only
            # SSSP reads them, and a full array would cost 8 bytes an edge.
            values = np.broadcast_to(np.float64(1.0), indices.shape)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != indices.shape:
            raise ConfigError("values must match indices in length")
        self.values = values

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray,
                   values: np.ndarray | None = None) -> "CsrMatrix":
        """Build from an (m, 2) array of (row, col) pairs; duplicates kept.

        Sorting by (row, col) goes through one fused ``row * n + col``
        int64 key: a direct ``np.sort`` of the keys when no values ride
        along (the column indices are recovered arithmetically), and a
        stable argsort of the keys otherwise — the same permutation a
        stable ``lexsort`` by (row, col) produces, at a fraction of the
        cost.  Keys that would overflow int64 fall back to ``lexsort``.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ConfigError(f"edges must be (m, 2), got {edges.shape}")
        rows, cols = edges[:, 0], edges[:, 1]
        fits = n <= 1 or n < np.iinfo(np.int64).max // n
        if fits and len(edges) and (rows.min() < 0 or cols.min() < 0
                                    or rows.max() >= n or cols.max() >= n):
            raise ConfigError("column indices out of range")
        if not fits:
            order = np.lexsort((cols, rows))
            edges = edges[order]
            rows, cols = edges[:, 0], edges[:, 1]
            sorted_cols = cols
            vals = None
            if values is not None:
                vals = np.asarray(values, dtype=np.float64)[order]
        elif values is None:
            key = np.sort(rows * n + cols)
            rows = key // n
            sorted_cols = key % n
            vals = None
        else:
            order = np.argsort(rows * n + cols, kind="stable")
            rows = rows[order]
            sorted_cols = cols[order]
            vals = np.asarray(values, dtype=np.float64)[order]
        counts = np.bincount(rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n, indptr, sorted_cols, vals)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> np.ndarray:
        """Column indices of row ``i``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def row_values(self, i: int) -> np.ndarray:
        return self.values[self.indptr[i] : self.indptr[i + 1]]

    def out_degrees(self) -> np.ndarray:
        """Out-degree per *column* (source) vertex — what PageRank divides by."""
        return np.bincount(self.indices, minlength=self.n).astype(np.int64)

    def transpose(self) -> "CsrMatrix":
        """CSR of the transposed matrix (push ↔ pull duality)."""
        edges = np.empty((self.nnz, 2), dtype=np.int64)
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        edges[:, 0] = self.indices
        edges[:, 1] = rows
        return CsrMatrix.from_edges(self.n, edges, self.values)

    def row_slice_bytes(self, first_row: int, last_row: int,
                        index_bytes: int = 4, value_bytes: int = 4) -> int:
        """Bytes of CSR payload for the row range [first, last] inclusive.

        The accelerator streams (index, value) pairs plus the row-pointer
        slice; this drives the per-tile DRAM traffic of the trace model.
        """
        entries = int(self.indptr[last_row + 1] - self.indptr[first_row])
        pointer_bytes = (last_row - first_row + 2) * index_bytes
        return entries * (index_bytes + value_bytes) + pointer_bytes

    def __repr__(self) -> str:
        return f"CsrMatrix(n={self.n}, nnz={self.nnz})"
