"""An in-memory B+-tree with range scans.

The paper stores each grid cell's inverted lists in a disk-based B+-tree because the
lists "may not fit in memory". The reproduction keeps the same structure and access
pattern — keyed insertion, point lookup, ordered range scan over ``(term, object)``
composite keys — but in memory, which is the honest substitution for a single-machine
Python reproduction (see docs/ARCHITECTURE.md, "Deviations from the paper").
The tree is a textbook B+-tree: internal nodes hold separator keys, leaves hold
key/value pairs and are chained for range scans.
"""

from __future__ import annotations

import bisect
from typing import Any, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.exceptions import IndexError_

K = TypeVar("K")
V = TypeVar("V")


class _LeafNode:
    """A leaf: sorted keys with parallel values, linked to the next leaf."""

    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.values: List[Any] = []
        self.next: Optional["_LeafNode"] = None

    @property
    def is_leaf(self) -> bool:
        return True


class _InternalNode:
    """An internal node: separator keys with ``len(keys) + 1`` children."""

    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.children: List[Any] = []

    @property
    def is_leaf(self) -> bool:
        return False


class BPlusTree(Generic[K, V]):
    """A B+-tree mapping orderable keys to values.

    Args:
        order: Maximum number of children of an internal node (equivalently, a leaf
            holds at most ``order - 1`` entries). Must be at least 3. The default of
            64 mimics a small disk page.

    Duplicate keys overwrite the previous value, matching dictionary semantics — the
    inverted index uses composite ``(term, object_id)`` keys, which are unique.
    """

    def __init__(self, order: int = 64) -> None:
        if order < 3:
            raise IndexError_(f"B+-tree order must be >= 3, got {order}")
        self._order = order
        self._root: _LeafNode | _InternalNode = _LeafNode()
        self._size = 0

    # ------------------------------------------------------------------ basic facts
    def __len__(self) -> int:
        return self._size

    @property
    def order(self) -> int:
        """The tree's order (maximum child count of internal nodes)."""
        return self._order

    def height(self) -> int:
        """Return the number of levels in the tree (1 for a single leaf)."""
        node = self._root
        levels = 1
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    # ------------------------------------------------------------------ search
    def _find_leaf(self, key: K) -> _LeafNode:
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the value stored under ``key``, or ``default`` if absent."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def __contains__(self, key: K) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel  # type: ignore[arg-type]

    # ------------------------------------------------------------------ insertion
    def insert(self, key: K, value: V) -> None:
        """Insert ``key`` → ``value``; an existing key's value is overwritten."""
        root = self._root
        split = self._insert_into(root, key, value)
        if split is not None:
            separator, right = split
            new_root = _InternalNode()
            new_root.keys = [separator]
            new_root.children = [root, right]
            self._root = new_root

    def _insert_into(self, node, key: K, value: V):
        """Insert recursively; returns ``(separator, new_right_node)`` when ``node`` split."""
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._size += 1
            if len(node.keys) < self._order:
                return None
            return self._split_leaf(node)

        child_index = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[child_index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right)
        if len(node.children) <= self._order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _LeafNode):
        middle = len(leaf.keys) // 2
        right = _LeafNode()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _InternalNode):
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _InternalNode()
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, right

    # ------------------------------------------------------------------ scans
    def items(self) -> Iterator[Tuple[K, V]]:
        """Iterate over all ``(key, value)`` pairs in key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        leaf: Optional[_LeafNode] = node
        while leaf is not None:
            for key, value in zip(leaf.keys, leaf.values):
                yield key, value
            leaf = leaf.next

    def keys(self) -> Iterator[K]:
        """Iterate over all keys in order."""
        for key, _ in self.items():
            yield key

    def range_scan(self, low: K, high: K) -> Iterator[Tuple[K, V]]:
        """Iterate over ``(key, value)`` pairs with ``low <= key <= high`` in order.

        This is the access pattern the inverted index uses to read one term's postings
        list: keys are ``(term, object_id)`` tuples and the scan runs from
        ``(term, -inf)`` to ``(term, +inf)``.
        """
        if low > high:
            return
        leaf: Optional[_LeafNode] = self._find_leaf(low)
        start = bisect.bisect_left(leaf.keys, low)
        index = start
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if key > high:
                    return
                yield key, leaf.values[index]
                index += 1
            leaf = leaf.next
            index = 0

    # ------------------------------------------------------------------ validation
    def check_invariants(self) -> None:
        """Validate structural invariants; raises :class:`IndexError_` on violation.

        Checked: keys sorted within every node, leaf chain ordered, all leaves at the
        same depth, and internal fan-out within the order bound. Used by tests and
        handy when debugging.
        """
        leaf_depths: List[int] = []

        def visit(node, depth: int, low, high) -> None:
            keys = node.keys
            for i in range(1, len(keys)):
                if keys[i - 1] > keys[i]:
                    raise IndexError_("B+-tree node keys out of order")
            if low is not None and keys and keys[0] < low:
                raise IndexError_("B+-tree key below subtree lower bound")
            if high is not None and keys and keys[-1] > high:
                raise IndexError_("B+-tree key above subtree upper bound")
            if node.is_leaf:
                leaf_depths.append(depth)
                return
            if len(node.children) != len(keys) + 1:
                raise IndexError_("B+-tree internal node child count mismatch")
            if len(node.children) > self._order + 1:
                raise IndexError_("B+-tree internal node over capacity")
            for i, child in enumerate(node.children):
                child_low = keys[i - 1] if i > 0 else low
                child_high = keys[i] if i < len(keys) else high
                visit(child, depth + 1, child_low, child_high)

        visit(self._root, 0, None, None)
        if leaf_depths and len(set(leaf_depths)) != 1:
            raise IndexError_("B+-tree leaves are not all at the same depth")
        # Leaf chain must produce keys in globally sorted order and match the size.
        previous = None
        count = 0
        for key, _ in self.items():
            if previous is not None and key < previous:
                raise IndexError_("B+-tree leaf chain out of order")
            previous = key
            count += 1
        if count != self._size:
            raise IndexError_("B+-tree size counter does not match leaf contents")
