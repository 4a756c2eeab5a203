"""Bijections between mappings, rooted trees, and tree codes.

Three correspondences, each with both directions and exact round-trip
guarantees:

* mappings with a unique cyclic vertex <-> rooted trees on [n], by
  reading parent pointers off the function (and back);
* arbitrary mappings <-> doubly-rooted trees (a tree plus an ordered
  head/tail pair), by rewriting the permutation induced on the cyclic
  set as a path, the classical edge-rewiring trick;
* labelled trees <-> Prufer sequences in [n]^(n-2), kept here as an
  independent counting witness for the number of trees.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from .core import (
    NO_PARENT, Mapping, Record, RootedTree, _json_fields, _json_int, _json_ints, cycle_structure, unique_cyclic_vertex,
)

if TYPE_CHECKING:
    import numpy as np


class DoublyRootedTree(Record):
    """A rooted tree with a distinguished head vertex.

    The parent-array root acts as the tail; head and tail may coincide.
    The head-to-tail parent path is the spine.
    """

    tree: RootedTree
    head: int

    def __post_init__(self):
        if not 1 <= self.head <= self.tree.n:
            raise ValueError(f"head {self.head} out of range [1..{self.tree.n}]")

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def tail(self) -> int:
        return self.tree.root

    def spine(self) -> tuple[int, ...]:
        """Vertices on the head-to-tail parent path, head first."""
        path = [self.head]
        while path[-1] != self.tail:
            path.append(self.tree.parent[path[-1] - 1])
        return tuple(path)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "head": self.head,
            "tail": self.tail,
            "parent": list(self.tree.parent),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DoublyRootedTree":
        fields = _json_fields(d, "doubly-rooted tree", n=_json_int, head=_json_int, tail=_json_int, parent=_json_ints)
        n, head, tail, parent = fields
        return cls(RootedTree(n, tail, parent), head)


class PruferSequence(Record):
    """A word of length max(n-2, 0) over [1..n]."""

    n: int
    seq: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not isinstance(self.seq, tuple):
            object.__setattr__(self, "seq", tuple(self.seq))
        expected = max(self.n - 2, 0)
        if len(self.seq) != expected:
            raise ValueError(
                f"sequence length {len(self.seq)}, expected {expected} for n={self.n}"
            )
        for x in self.seq:
            if not 1 <= x <= self.n:
                raise ValueError(f"sequence entry {x} out of range [1..{self.n}]")

    @classmethod
    def from_json_dict(cls, d: dict) -> "PruferSequence":
        return _json_fields(d, "Prufer", cls, n=_json_int, seq=_json_ints)  # the word's own checks named so too


def mapping_to_rooted_tree(m: Mapping) -> RootedTree:
    """Read a mapping with a unique cyclic vertex as a rooted tree.

    The unique cyclic vertex (a fixed point) becomes the root; every
    other vertex keeps f(v) as its parent, so all edges point toward
    the root.
    """
    root = unique_cyclic_vertex(m)
    if root is None:
        cs = cycle_structure(m)
        raise ValueError(
            f"mapping has {cs.num_cycles} cycles "
            f"({sum(cs.cyclic)} cyclic vertices); a unique cyclic vertex is required"
        )
    parent = list(m.table)
    parent[root - 1] = NO_PARENT
    return RootedTree(m.n, root, tuple(parent))


def rooted_tree_to_mapping(t: RootedTree) -> Mapping:
    """Inverse direction: the root becomes a fixed point."""
    table = list(t.parent)
    table[t.root - 1] = t.root
    return Mapping(t.n, tuple(table))


def joyal_encode(m: Mapping) -> DoublyRootedTree:
    """Rewire any mapping into a doubly-rooted tree.

    Let S = {s_1 < ... < s_k} be the cyclic set; f restricted to S is a
    permutation.  Its one-line notation (f(s_1), ..., f(s_k)) becomes
    the spine: head f(s_1), tail f(s_k), each spine vertex's parent the
    next one.  Non-cyclic vertices keep f(v) as parent.  The spine
    vertex set is exactly S, so the cyclic set survives the rewiring.
    """
    cs = cycle_structure(m)
    cyclic_sorted = cs.cyclic_vertices  # already in increasing order
    spine = tuple(m.table[s - 1] for s in cyclic_sorted)
    parent = list(m.table)
    for cur, nxt in zip(spine, spine[1:]):
        parent[cur - 1] = nxt
    parent[spine[-1] - 1] = NO_PARENT
    return DoublyRootedTree(RootedTree(m.n, spine[-1], tuple(parent)), spine[0])


def joyal_decode(d: DoublyRootedTree) -> Mapping:
    """Inverse rewiring: spine back to the cyclic permutation.

    Reading the spine as (q_1, ..., q_k) and its vertex set sorted as
    s_1 < ... < s_k, set f(s_j) = q_j; off the spine f(v) is the parent.
    """
    spine = d.spine()
    table = list(d.tree.parent)
    for s, q in zip(sorted(spine), spine):
        table[s - 1] = q
    return Mapping(d.n, tuple(table))


def _normalize_edges(n: int, edges) -> list[tuple[int, int]]:
    arrays = (list, tuple)  # JSON arrays, and the tuples of Python callers
    if not isinstance(edges, arrays) or not all(isinstance(e, arrays) and len(e) == 2 for e in edges):
        raise ValueError("invalid edge list: expected a list of [u, v] pairs")
    try:
        pairs = [(_json_int(u), _json_int(v)) for u, v in edges]
    except (TypeError, ValueError, OverflowError) as exc:  # pairs, but not of integers
        raise ValueError(f"invalid edge list: {exc}") from exc
    out = []
    for u, v in pairs:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of range [1..{n}]")
        if u == v:
            raise ValueError(f"not a tree: self-loop at {u}")
        out.append((u, v) if u < v else (v, u))
    return out


def _validate_tree(n: int, edges: list[tuple[int, int]]) -> None:
    if len(edges) != n - 1:
        raise ValueError(f"not a tree: {len(edges)} edges, expected {n - 1}")
    if len(set(edges)) != len(edges):
        raise ValueError("not a tree: duplicate edge")
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError(f"not a tree: cycle found through edge ({u},{v})")
        parent[ru] = rv
    # n - 1 distinct edges without a cycle on n vertices leave one component: connected


def prufer_encode(n: int, edges) -> PruferSequence:
    """Encode a labelled tree as its Prufer sequence.

    Smallest-leaf convention: repeatedly delete the lowest-labelled
    leaf and record its neighbour, until two vertices remain.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    edges = _normalize_edges(n, edges)
    _validate_tree(n, edges)
    if n <= 2:
        return PruferSequence(n, ())
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    leaves = [v for v in range(1, n + 1) if len(adj[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        neighbour = adj[leaf].pop()
        seq.append(neighbour)
        adj[neighbour].discard(leaf)
        if len(adj[neighbour]) == 1:
            heapq.heappush(leaves, neighbour)
    return PruferSequence(n, tuple(seq))


def prufer_parents(p: PruferSequence) -> list[int]:
    """Decode a Prufer sequence into its tree's parent array, rooted at n.

    Degree-count decoding: a vertex's degree is one plus its number of
    occurrences; the lowest-labelled current leaf takes the next
    sequence entry as its parent, and the last leaf below n takes n.
    Entry v-1 is the parent of v, with NO_PARENT in n's slot.
    """
    n = p.n
    parent = [NO_PARENT] * n
    if n == 1:
        return parent
    degree = [1] * (n + 1)
    for x in p.seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in p.seq:
        parent[heapq.heappop(leaves) - 1] = x
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    parent[heapq.heappop(leaves) - 1] = n
    return parent


def prufer_parent_rows(words: np.ndarray, n: int) -> np.ndarray:
    """prufer_parents for a batch of words, 0-based: parent rows toward n-1.

    Row j of words holds a word over [0, n) of length max(n-2, 0); row j
    of the result is its tree's parent array with labels lowered by
    one, and -1 in slot n-1.  All words are decoded at once on flat
    indices, a leaf mask updated at two labels per step: each step joins
    every row's smallest leaf, its first in the mask, to its next entry.
    """
    import numpy as np  # the only numpy user here: the scalar codecs load without it

    base = np.arange(len(words)) * n
    deg = 1 + np.bincount((words + base[:, None]).ravel(), minlength=len(words) * n)
    leaves = deg == 1
    parent = np.full(len(words) * n, -1)
    for x in words.T:
        leaf = base + leaves.reshape(-1, n).argmax(axis=1)
        parent[leaf] = x
        leaves[leaf] = False
        x = base + x  # a word entry is no leaf: its degree stays above 1 until this step
        deg[x] -= 1
        leaves[x] = deg[x] == 1
    if n > 1:  # the last edge joins the one leaf left below n-1 to n-1
        parent[base + leaves.reshape(-1, n).argmax(axis=1)] = n - 1
    return parent.reshape(-1, n)


def prufer_decode(p: PruferSequence) -> list[tuple[int, int]]:
    """Decode a Prufer sequence into a labelled tree's edge list.

    Returns the edges of prufer_parents' tree as sorted (min, max) pairs.
    """
    return sorted(
        (v, w) if v < w else (w, v)
        for v, w in enumerate(prufer_parents(p), start=1)
        if w != NO_PARENT
    )
