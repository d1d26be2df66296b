"""Ordered map from root coordinate to best shadow offset, as a treap.

No planner uses this module any more: it held the root sources of the
removed expansion device and is kept only because perfbench/tracer.py
imports it and patches RootSourceTree.

The planner kept, per swept edge face, the set of chain roots that feed
robots onto that edge.  Keys are the roots' cross coordinates; the value kept
per key is the smallest shadow offset (departure time minus signed travel
coordinate), since every arrival formula is increasing in it.  The operations
are insert-with-min, predecessor/successor lookup, extraction of a closed key
range, and union.

Priorities come from a module RNG with a fixed seed; results never depend on
the tree shape, only timings do.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

_rng = random.Random(0x5EED)


class _Node:
    __slots__ = ("key", "val", "prio", "left", "right")

    def __init__(self, key: int, val: int):
        self.key = key
        self.val = val
        self.prio = _rng.random()
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None


def _split(node: Optional[_Node], key: int) -> Tuple[Optional[_Node], Optional[_Node]]:
    """(keys < key, keys >= key)."""
    if node is None:
        return None, None
    if node.key < key:
        l, r = _split(node.right, key)
        node.right = l
        return node, r
    l, r = _split(node.left, key)
    node.left = r
    return l, node


def _merge(a: Optional[_Node], b: Optional[_Node]) -> Optional[_Node]:
    """All keys of a below all keys of b."""
    if a is None:
        return b
    if b is None:
        return a
    if a.prio > b.prio:
        a.right = _merge(a.right, b)
        return a
    b.left = _merge(a, b.left)
    return b


class RootSourceTree:
    """Mutable holder around a treap root; see module docstring."""

    __slots__ = ("root", "count")

    def __init__(self):
        self.root: Optional[_Node] = None
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.root is not None

    def insert(self, key: int, val: int) -> None:
        """Add a root; an existing key keeps the smaller value."""
        n = self.root
        while n is not None:
            if key == n.key:
                if val < n.val:
                    n.val = val
                return
            n = n.left if key < n.key else n.right
        l, r = _split(self.root, key)
        self.root = _merge(_merge(l, _Node(key, val)), r)
        self.count += 1

    def neighbors(self, key: int) -> Tuple[Optional[Tuple[int, int]], Optional[Tuple[int, int]]]:
        """((largest key <= query, its val), (smallest key >= query, its val))."""
        pred = succ = None
        n = self.root
        while n is not None:
            if n.key == key:
                pred = succ = (n.key, n.val)
                break
            if n.key < key:
                pred = (n.key, n.val)
                n = n.right
            else:
                succ = (n.key, n.val)
                n = n.left
        return pred, succ

    def extract_range(self, lo: int, hi: int) -> "RootSourceTree":
        """Remove and return all roots with lo <= key <= hi."""
        l, mr = _split(self.root, lo)
        m, r = _split(mr, hi + 1)
        self.root = _merge(l, r)
        out = RootSourceTree()
        out.root = m
        out.count = _count(m)
        self.count -= out.count
        return out

    def absorb(self, other: "RootSourceTree") -> None:
        """Union other into self (other is consumed).

        Disjoint key ranges merge in one treap operation; otherwise the
        smaller side is reinserted item by item.
        """
        if other.root is None:
            return
        if self.root is None:
            self.root, self.count = other.root, other.count
        elif _max_key(self.root) < _min_key(other.root) or _max_key(other.root) < _min_key(self.root):
            before = self.count + other.count
            if _max_key(self.root) < _min_key(other.root):
                self.root = _merge(self.root, other.root)
            else:
                self.root = _merge(other.root, self.root)
            self.count = before
        else:
            if other.count > self.count:
                self.root, other.root = other.root, self.root
                self.count, other.count = other.count, self.count
            for key, val in other.items():
                self.insert(key, val)
        other.root = None
        other.count = 0

    def items(self) -> List[Tuple[int, int]]:
        """Sorted (key, val) pairs."""
        out: List[Tuple[int, int]] = []
        stack = []
        n = self.root
        while stack or n is not None:
            while n is not None:
                stack.append(n)
                n = n.left
            n = stack.pop()
            out.append((n.key, n.val))
            n = n.right
        return out

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.items())


def _count(node: Optional[_Node]) -> int:
    if node is None:
        return 0
    return 1 + _count(node.left) + _count(node.right)


def _min_key(node: _Node) -> int:
    while node.left is not None:
        node = node.left
    return node.key


def _max_key(node: _Node) -> int:
    while node.right is not None:
        node = node.right
    return node.key
