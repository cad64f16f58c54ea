"""Integrity tree over stored version numbers (baseline scheme only).

When VNs live in untrusted DRAM they must themselves be protected against
replay, which the baseline does with an 8-ary Merkle-style counter tree
whose root stays on-chip (§III-A, Fig. 2a).  MGX removes this tree
entirely — its VNs never leave the chip.

Two cooperating views of the tree:

* :class:`TreeLayout` — pure geometry: how many levels an 8-ary tree over
  N leaf lines has, and at which metadata addresses each node lives.  The
  *timing* engine uses it to know which node lines a VN-line miss must
  touch on its way to an on-chip ancestor.
* :class:`FunctionalMerkleTree` — an actual hash tree over leaf byte
  strings (SHA-256 truncated to node slots), used by the functional
  baseline engine to really detect VN tampering and replay in tests.
"""

from __future__ import annotations

import hashlib

from repro.common.errors import ConfigError, IntegrityError
from repro.common.units import CACHE_BLOCK, ceil_div


class TreeLayout:
    """Geometry and address layout of an N-ary tree over metadata lines.

    Level 0 is the leaf (VN line) level with ``leaf_lines`` entries; each
    higher level has ``ceil(prev / arity)`` 64-byte nodes.  The single
    node above the top stored level is the on-chip root and occupies no
    memory.  Node addresses are laid out level-major starting at
    ``base_address``.
    """

    def __init__(self, leaf_lines: int, arity: int = 8, base_address: int = 0,
                 node_bytes: int = CACHE_BLOCK) -> None:
        if leaf_lines <= 0:
            raise ConfigError(f"leaf_lines must be positive, got {leaf_lines}")
        if arity < 2:
            raise ConfigError(f"arity must be >= 2, got {arity}")
        self.arity = arity
        self.base_address = base_address
        self.node_bytes = node_bytes
        # level_sizes[0] is the number of *level-1* nodes (parents of
        # leaves); the leaf level itself belongs to the VN region.
        sizes: list[int] = []
        width = leaf_lines
        while width > 1:
            width = ceil_div(width, arity)
            sizes.append(width)
        # The last entry has width 1: that node is the on-chip root and is
        # not stored in memory.
        if sizes and sizes[-1] == 1:
            sizes.pop()
        self.level_sizes = sizes
        self._level_bases: list[int] = []
        offset = base_address
        for size in sizes:
            self._level_bases.append(offset)
            offset += size * node_bytes
        self.total_bytes = offset - base_address

    @property
    def stored_levels(self) -> int:
        """Number of tree levels that live in DRAM (root excluded)."""
        return len(self.level_sizes)

    def node_address(self, level: int, index: int) -> int:
        """Address of node ``index`` at stored ``level`` (1-based from leaves)."""
        if not 1 <= level <= self.stored_levels:
            raise ConfigError(f"level {level} out of range 1..{self.stored_levels}")
        if not 0 <= index < self.level_sizes[level - 1]:
            raise ConfigError(f"index {index} out of range at level {level}")
        return self._level_bases[level - 1] + index * self.node_bytes

    def level_base(self, level: int) -> int:
        """Base address of stored ``level`` (1-based from the leaves)."""
        if not 1 <= level <= self.stored_levels:
            raise ConfigError(f"level {level} out of range 1..{self.stored_levels}")
        return self._level_bases[level - 1]

    def parent_index(self, index: int) -> int:
        return index // self.arity

    def path_addresses(self, leaf_index: int) -> list[int]:
        """Addresses of the stored ancestors of leaf ``leaf_index``, bottom-up."""
        path = []
        index = leaf_index
        for level in range(1, self.stored_levels + 1):
            index //= self.arity
            path.append(self.node_address(level, index))
        return path


class FunctionalMerkleTree:
    """A real hash tree over mutable leaf values.

    Leaves are arbitrary byte strings (the baseline engine stores packed
    VN lines).  Interior nodes hash the concatenation of child digests;
    the root digest is held "on-chip" by the owner.  ``verify`` recomputes
    the leaf-to-root path and compares against the trusted root, raising
    :class:`IntegrityError` on any mismatch — which is exactly what
    defeats VN replay in the baseline.
    """

    _EMPTY = b"\x00" * 32

    def __init__(self, leaf_count: int, arity: int = 8) -> None:
        if leaf_count <= 0:
            raise ConfigError(f"leaf_count must be positive, got {leaf_count}")
        if arity < 2:
            raise ConfigError(f"arity must be >= 2, got {arity}")
        self.arity = arity
        self.leaf_count = leaf_count
        self._leaves: dict[int, bytes] = {}
        # digests[level][index]; level 0 = leaf digests.
        widths = [leaf_count]
        while widths[-1] > 1:
            widths.append(ceil_div(widths[-1], arity))
        self._widths = widths
        self._digests: list[dict[int, bytes]] = [{} for _ in widths]

    @staticmethod
    def _hash(payload: bytes) -> bytes:
        return hashlib.sha256(payload).digest()

    def _node_digest(self, level: int, index: int) -> bytes:
        return self._digests[level].get(index, self._EMPTY)

    def _recompute_parent(self, level: int, parent_index: int) -> None:
        first_child = parent_index * self.arity
        children = [
            self._node_digest(level, i)
            for i in range(first_child, min(first_child + self.arity, self._widths[level]))
        ]
        self._digests[level + 1][parent_index] = self._hash(b"".join(children))

    def update(self, leaf_index: int, value: bytes) -> None:
        """Set a leaf and propagate digests to the root."""
        if not 0 <= leaf_index < self.leaf_count:
            raise ConfigError(f"leaf index {leaf_index} out of range")
        self._leaves[leaf_index] = bytes(value)
        self._digests[0][leaf_index] = self._hash(bytes(value))
        index = leaf_index
        for level in range(len(self._widths) - 1):
            index //= self.arity
            self._recompute_parent(level, index)

    def leaf(self, leaf_index: int) -> bytes:
        return self._leaves.get(leaf_index, b"")

    @property
    def root(self) -> bytes:
        return self._node_digest(len(self._widths) - 1, 0)

    def verify(self, leaf_index: int, claimed_value: bytes, trusted_root: bytes) -> None:
        """Check ``claimed_value`` for ``leaf_index`` against ``trusted_root``.

        Recomputes the path bottom-up using current sibling digests.  Any
        tampering with the claimed leaf (or a stale root) yields a root
        mismatch.
        """
        if not 0 <= leaf_index < self.leaf_count:
            raise ConfigError(f"leaf index {leaf_index} out of range")
        digest = self._hash(bytes(claimed_value))
        index = leaf_index
        for level in range(len(self._widths) - 1):
            parent_index = index // self.arity
            first_child = parent_index * self.arity
            parts = []
            for i in range(first_child, min(first_child + self.arity, self._widths[level])):
                parts.append(digest if i == index else self._node_digest(level, i))
            digest = self._hash(b"".join(parts))
            index = parent_index
        if digest != trusted_root:
            raise IntegrityError(
                f"Merkle verification failed for leaf {leaf_index}: "
                "stored version numbers were tampered with or replayed"
            )
