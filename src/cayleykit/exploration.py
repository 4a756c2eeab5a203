"""Round-based edge-reveal exploration of a mapping's digraph.

The procedure repeatedly picks an unexplored start vertex and reveals
f(V), f(f(V)), ... until the walk lands on a vertex whose out-edge is
already revealed.  Each such round ends in one of three ways: the final
edge is a self loop, it closes back into the current round's path
(creating a new cycle either way), or it attaches to a vertex explored
in an earlier round (creating none).

Writing T_i for the cumulative number of explored vertices after round
i and K for the number of rounds, the mapping has a unique cyclic
vertex exactly when round 1 ends in a self loop and every later round
attaches to earlier rounds; the per-round chances of that are 1/T_1 and
T_{i-1}/T_i, whose product telescopes to 1/T_K = 1/n regardless of how
the rounds split up.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .core import Mapping, Record, _rounds, mapping_to_dot

if TYPE_CHECKING:
    from fractions import Fraction


class Closure(str, Enum):
    """How a round's final revealed edge terminated the walk."""

    SELF_LOOP = "SelfLoop"
    IN_ROUND = "InRound"
    PRIOR_ROUND = "PriorRound"


class SelectionStrategy:
    """Deterministic rule for choosing each round's start vertex.

    A strategy produces a preference order over [1..n]; each round
    starts at the first not-yet-explored vertex in that order.
    """

    def start_order(self, n: int) -> Sequence[int]:
        raise NotImplementedError


class SmallestLabel(SelectionStrategy):
    """Always start the next round at the smallest unexplored label."""

    def start_order(self, n: int) -> Sequence[int]:
        return range(1, n + 1)

    def __repr__(self):
        return "SmallestLabel()"


class FixedOrder(SelectionStrategy, Record):
    """Start rounds following a caller-supplied permutation of [1..n]."""

    order: tuple[int, ...]

    def start_order(self, n: int) -> Sequence[int]:
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"order is not a permutation of [1..{n}]")
        return self.order


class SeededRandomOrder(SelectionStrategy, Record):
    """Start rounds in a pseudorandom order determined by a seed."""

    seed: int

    def start_order(self, n: int) -> Sequence[int]:
        order = list(range(1, n + 1))
        random.Random(self.seed).shuffle(order)
        return order


class RoundRecord(Record):
    """One round of the procedure.

    ``path`` lists the vertices explored this round in reveal order
    (starting at the round's start vertex); ``closing_edge`` is the
    final revealed edge, whose source is the last path vertex.
    """

    index: int
    start: int
    path: tuple[int, ...]
    closing_edge: tuple[int, int]
    closure: Closure


class ExplorationTrace(Record):
    """Full record of an exploration: rounds, cumulative counts, K."""

    n: int
    rounds: tuple[RoundRecord, ...]
    T: tuple[int, ...]
    K: int

    def __post_init__(self):
        if self.K != len(self.rounds) or self.K != len(self.T):
            raise ValueError("K must equal the number of rounds and len(T)")
        if any(b <= a for a, b in zip(self.T, self.T[1:])):
            raise ValueError("T must be strictly increasing")
        explored = self.T[-1] if self.T else 0  # an empty trace explored nothing
        if explored != self.n:
            raise ValueError(f"T_K={explored} must equal n={self.n}")

    def revealed_edges(self) -> list[tuple[int, int]]:
        """All revealed edges (v, f(v)) in reveal order."""
        out = []
        for r in self.rounds:
            for a, b in zip(r.path, r.path[1:]):
                out.append((a, b))
            out.append(r.closing_edge)
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "K": self.K,
            "T": list(self.T),
            "rounds": [
                {
                    "start": r.start,
                    "path": list(r.path),
                    "closing_edge": list(r.closing_edge),
                    "closure": r.closure.value,
                }
                for r in self.rounds
            ],
        }


def explore(m: Mapping, strategy: SelectionStrategy | None = None) -> ExplorationTrace:
    """Run the reveal procedure on m and record the full trace.

    The rounds are those of core._rounds, the one scalar cycle walk, in
    the strategy's start order.  Deterministic given (m, strategy); every
    vertex lands in exactly one round's path, so the trace reconstructs
    the mapping edge for edge.
    """
    if strategy is None:
        strategy = SmallestLabel()
    rounds: list[RoundRecord] = []
    T: list[int] = []
    total = 0
    for i, (path, w, own) in enumerate(_rounds(m.table, strategy.start_order(m.n)), start=1):
        v = path[-1]
        if w == v:
            closure = Closure.SELF_LOOP
        elif own:
            closure = Closure.IN_ROUND
        else:
            closure = Closure.PRIOR_ROUND
        total += len(path)
        T.append(total)
        rounds.append(RoundRecord(i, path[0], tuple(path), (v, w), closure))
    return ExplorationTrace(m.n, tuple(rounds), tuple(T), len(rounds))


def reconstruct_mapping(t: ExplorationTrace) -> Mapping:
    """Rebuild the explored mapping from the trace's revealed edges."""
    table = [0] * t.n
    for v, w in t.revealed_edges():
        table[v - 1] = w
    return Mapping(t.n, tuple(table))


def has_unique_cyclic_from_trace(t: ExplorationTrace) -> bool:
    """Trace-level criterion for a unique cyclic vertex.

    True exactly when round 1 closes with a self loop and every later
    round attaches to previously explored rounds; any in-round closure
    (or a later self loop) creates an extra cycle.
    """
    if t.rounds[0].closure is not Closure.SELF_LOOP:
        return False
    return all(r.closure is Closure.PRIOR_ROUND for r in t.rounds[1:])


def cycle_count_from_trace(t: ExplorationTrace) -> int:
    """Number of cycles seen by the trace: one per cycle-creating closure."""
    return sum(
        1 for r in t.rounds if r.closure in (Closure.SELF_LOOP, Closure.IN_ROUND)
    )


def telescoping_probability(T: Sequence[int]) -> Fraction:
    """Evaluate (1/T_1) * prod_{i>=2} T_{i-1}/T_i in exact arithmetic.

    The factors cancel pairwise, so the value is identically 1/T_K; the
    product is still computed factor by factor so that equality is a
    verified outcome rather than an assumption.
    """
    T = tuple(T)
    if not T:
        raise ValueError("T must be non-empty")
    if T[0] < 1 or any(b <= a for a, b in zip(T, T[1:])):
        raise ValueError("T must be positive and strictly increasing")
    return math.prod(conditional_event_probabilities(T))


def conditional_event_probabilities(
    t: ExplorationTrace | Sequence[int],
) -> tuple[Fraction, ...]:
    """Per-round predicted chances of the unique-cyclic round events.

    Round 1 must close with a self loop (chance 1/T_1); round i >= 2
    must attach to the T_{i-1} previously explored vertices (chance
    T_{i-1}/T_i).  Accepts a trace or a bare cumulative-count sequence.
    """
    from fractions import Fraction  # with decimal, a cost that trace never needs

    T = tuple(t.T) if isinstance(t, ExplorationTrace) else tuple(t)
    if not T:
        raise ValueError("T must be non-empty")
    probs = [Fraction(1, T[0])]
    for prev, cur in zip(T, T[1:]):
        probs.append(Fraction(prev, cur))
    return tuple(probs)


def trace_to_dot(t: ExplorationTrace, *, name: str = "trace") -> str:
    """DOT rendering of the explored digraph with reveal order as labels."""
    reveal_time = {edge: i + 1 for i, edge in enumerate(t.revealed_edges())}
    return mapping_to_dot(reconstruct_mapping(t), name=name, labels=reveal_time)
