"""A probabilistic skiplist.

Both the paper's MemTable (inherited from LevelDB) and this reproduction's
use a skiplist: O(log n) insert/lookup with cheap in-order iteration.  The
implementation is deliberately classic — tower nodes, geometric level
promotion — and deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import Iterator

_MAX_LEVEL = 16
_P = 0.5


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: bytes | None, value: object, level: int) -> None:
        self.key = key
        self.value = value
        self.forward: list[_Node | None] = [None] * level


class SkipList:
    """Sorted map from ``bytes`` keys to arbitrary values."""

    def __init__(self, seed: int = 0) -> None:
        self._head = _Node(None, None, _MAX_LEVEL)
        self._level = 1
        self._rng = random.Random(seed)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < _P:
            level += 1
        return level

    def _find_predecessors(self, key: bytes) -> list[_Node]:
        """Per level, the last node with node.key < key."""
        update = [self._head] * _MAX_LEVEL
        node = self._head
        for i in range(self._level - 1, -1, -1):
            nxt = node.forward[i]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[i]
            update[i] = node
        return update

    def insert(self, key: bytes, value: object) -> object:
        """Insert or overwrite ``key``; returns the value it replaced, or
        None."""
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            prior = candidate.value
            candidate.value = value
            return prior
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._len += 1
        return None

    def get(self, key: bytes, default: object = None) -> object:
        node = self._head
        for i in range(self._level - 1, -1, -1):
            nxt = node.forward[i]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[i]
        node = node.forward[0]
        if node is not None and node.key == key:
            return node.value
        return default

    def __contains__(self, key: bytes) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def values(self) -> Iterator[object]:
        """All values in ascending key order."""
        node = self._head.forward[0]
        while node is not None:
            yield node.value
            node = node.forward[0]

    def values_from(self, start: bytes) -> Iterator[object]:
        """Values of the keys >= start, in ascending key order."""
        node = self._find_predecessors(start)[0].forward[0]
        while node is not None:
            yield node.value
            node = node.forward[0]
