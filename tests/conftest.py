import itertools
import os

import pytest

from cayleykit import Closure, Mapping
from cayleykit.enumeration import MAX_COUNT_N

pytest.register_assert_rewrite("replay")  # before a test module imports the replay table


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test after which this process still has a child, running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process outlived the test (waitpid(-1, WNOHANG) gave pid {pid}, status {status})")


def all_tables(n):
    """All n^n mapping tables on [n], lexicographic; guarded to n <= 8.

    8^8 is about 1.7e7 tables; larger n is refused outright rather than
    silently grinding.
    """
    if not 1 <= n <= MAX_COUNT_N:
        raise ValueError(f"n={n} outside enumeration guard [1..{MAX_COUNT_N}]")
    return itertools.product(range(1, n + 1), repeat=n)


def all_mappings(n):
    for table in all_tables(n):
        yield Mapping(n, table)


class FixedOrder:
    """A start order for explore: rounds start in the given order of [1..n]."""

    def __init__(self, order):
        self.order = tuple(order)

    def start_order(self, n):
        return self.order


def cycle_count(trace):
    """The cycles a trace sees: its rounds that close on a self loop or on their own path."""
    return sum(r.closure is not Closure.PRIOR_ROUND for r in trace.rounds)


def has_unique_cyclic_from_trace(trace):
    """Whether a trace sees a unique cyclic vertex: round 1 closes on a self loop and every later round
    attaches to earlier rounds; any in-round closure (or a later self loop) makes another cycle."""
    if trace.rounds[0].closure is not Closure.SELF_LOOP:
        return False
    return all(r.closure is Closure.PRIOR_ROUND for r in trace.rounds[1:])
