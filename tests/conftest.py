import itertools

from cayleykit import Mapping
from cayleykit.enumeration import MAX_COUNT_N


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
