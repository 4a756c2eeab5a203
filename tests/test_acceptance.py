"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failed assert means the criterion did not hold.  Statistical
criteria run at the pinned release seed.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from cayleykit import (
    Mapping,
    SeededRandomOrder,
    SmallestLabel,
    cycle_structure,
    exact_collision_pmf,
    exact_counts,
    exact_height_pmf,
    explore,
    joyal_decode,
    joyal_encode,
    law_equality_report,
    mapping_to_rooted_tree,
    prufer_decode,
    prufer_encode,
    rooted_tree_to_mapping,
    sample_rooted_tree_rejection,
    telescoping_probability,
    unique_cyclic_vertex,
    RngStream,
    PruferSequence,
    check_round_conditionals,
    estimate_unique_cyclic,
)
from cayleykit.cli import RELEASE_SEED, main
from cayleykit.heights import _LEVEL

from conftest import FixedOrder, all_mappings, cycle_count, has_unique_cyclic_from_trace


def _report(num, text):
    print(f"[acceptance] criterion {num}: PASS: {text}")


def test_criterion_01_exact_cayley_counts():
    expected_unique = (1, 2, 9, 64, 625, 7776, 117649)
    expected_trees = (1, 1, 3, 16, 125, 1296, 16807)
    exact_counts.cache_clear()  # time a genuinely cold run
    t0 = time.perf_counter()
    for n in range(1, 8):
        c = exact_counts(n)
        assert c.unique_cyclic == expected_unique[n - 1] == n ** (n - 1)
        assert c.labelled_trees == expected_trees[n - 1]
        if n >= 2:
            assert c.labelled_trees == n ** (n - 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"enumeration took {elapsed:.1f}s"
    _report(1, f"exact counts for n=1..7 in {elapsed:.1f}s")


def test_criterion_02_theorem_at_desk_scale():
    trials = 1_000_000
    est = estimate_unique_cyclic(100, trials, RELEASE_SEED)
    tolerance = 4.0 * math.sqrt(0.01 * 0.99 / trials)
    assert abs(est.point - 0.01) <= tolerance, (est.point, tolerance)
    for n in range(2, 6):
        c = exact_counts(n)
        assert Fraction(c.unique_cyclic, c.total_mappings) == Fraction(1, n)
    _report(
        2,
        f"|{est.point:.6f} - 0.01| <= {tolerance:.1e}; exact ratio 1/n for n=2..5",
    )


def test_criterion_03_telescoping_invariant():
    checked = 0
    for n in range(1, 6):
        for m in all_mappings(n):
            t = explore(m, SmallestLabel())
            assert telescoping_probability(t.T) == Fraction(1, n)
            checked += 1
    rng = np.random.default_rng(31415)
    for _ in range(10_000):
        n = int(rng.integers(1, 201))
        m = Mapping(n, tuple(int(x) + 1 for x in rng.integers(0, n, size=n)))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            strategy = SmallestLabel()
        elif kind == 1:
            perm = [int(x) + 1 for x in rng.permutation(n)]
            strategy = FixedOrder(tuple(perm))
        else:
            strategy = SeededRandomOrder(int(rng.integers(0, 2**32)))
        t = explore(m, strategy)
        assert telescoping_probability(t.T) == Fraction(1, n)
        checked += 1
    _report(3, f"telescoping product equals 1/n in all {checked} cases")


def test_criterion_04_trace_criterion_equivalence():
    strategies = [
        SmallestLabel(),
        SeededRandomOrder(42),
        None,  # per-n reversed FixedOrder, built below
    ]
    cases = 0
    for n in range(1, 6):
        strategies[2] = FixedOrder(tuple(range(n, 0, -1)))
        for m in all_mappings(n):
            direct_unique = unique_cyclic_vertex(m) is not None
            direct_cycles = cycle_structure(m).num_cycles
            for s in strategies:
                t = explore(m, s)
                assert has_unique_cyclic_from_trace(t) == direct_unique
                assert cycle_count(t) == direct_cycles
                cases += 1
    assert cases >= 3 * 3125
    _report(4, f"trace verdicts match direct analysis in all {cases} cases")


def test_criterion_05_conditional_bullets():
    for n in (2, 5, 20):
        report = check_round_conditionals(n, 100_000, RELEASE_SEED)
        assert report.flagged_count(100) == 0, n
    _report(5, "zero flagged bins (>=100 obs) at n=2, 5, 20 with 1e5 trials")


def test_criterion_06_bijection_round_trips():
    # mappings with a unique cyclic vertex <-> rooted trees, n = 3..6
    totals = {3: 9, 4: 64, 5: 625, 6: 7776}
    for n, expected in totals.items():
        count = 0
        for m in all_mappings(n):
            if unique_cyclic_vertex(m) is None:
                continue
            assert rooted_tree_to_mapping(mapping_to_rooted_tree(m)) == m
            count += 1
        assert count == expected
    # doubly-rooted rewiring on every mapping, n <= 5, plus cardinality
    for n in range(1, 6):
        images = set()
        for m in all_mappings(n):
            d = joyal_encode(m)
            assert joyal_decode(d) == m
            images.add((d.tree.parent, d.head, d.tail))
        assert len(images) == n**n == n ** max(n - 2, 0) * n * n
    # Prufer round trip and decode distinctness, n <= 7
    for n in range(1, 8):
        seen = set()
        for seq in itertools.product(range(1, n + 1), repeat=max(n - 2, 0)):
            edges = prufer_decode(PruferSequence(n, seq))
            assert prufer_encode(n, edges).seq == seq
            seen.add(tuple(edges))
        assert len(seen) == (n ** (n - 2) if n >= 2 else 1)
    _report(6, "all three bijections round-trip with the exact cardinalities")


def test_criterion_07_height_collision_law_exact():
    for n in range(1, 7):
        assert exact_height_pmf(n) == exact_collision_pmf(n)
    assert exact_height_pmf(3) == (Fraction(1, 3), Fraction(4, 9), Fraction(2, 9))
    _report(7, "height pmf shifted by one equals the collision pmf for n <= 6")


def test_criterion_08_height_collision_law_statistical():
    report = law_equality_report(50, 100_000, RELEASE_SEED, method="prufer")
    for check in report.checks:
        assert check.p_value >= 1 - _LEVEL, check
    assert report.passed
    p_values = ", ".join(f"{c.p_value:.3f}" for c in report.checks)
    _report(8, f"n=50 chi-square checks all at p >= 0.001 ({p_values})")


def test_criterion_09_rejection_sampler_economics():
    trees = 10_000
    total_attempts = 0
    for i in range(trees):
        _, attempts = sample_rooted_tree_rejection(30, RngStream(RELEASE_SEED, i))
        total_attempts += attempts
    mean = total_attempts / trees
    assert 29.1 <= mean <= 30.9, mean
    _report(9, f"mean attempts {mean:.2f} within [29.1, 30.9] at n=30")


def test_criterion_10_reproducibility(capsys):
    commands = [
        ["sample-function", "--n", "40", "--seed", str(RELEASE_SEED)],
        ["sample-tree", "--n", "25", "--seed", str(RELEASE_SEED), "--method", "prufer"],
        ["verify-cayley", "--n", "5", "--trials", "6000",
         "--seed", str(RELEASE_SEED), "--json"],
        ["check-conditionals", "--n", "4", "--trials", "3000",
         "--seed", str(RELEASE_SEED), "--json"],
        ["heights", "--n", "6", "--trials", "2000", "--seed", str(RELEASE_SEED)],
    ]
    for argv in commands:
        main(argv)
        first = capsys.readouterr().out
        echoed = json.loads(first)["seed"]
        assert echoed == RELEASE_SEED
        main(argv)
        assert capsys.readouterr().out == first
    # any --jobs value must produce the same bytes
    for argv in commands[2:]:
        main(argv + ["--jobs", "1"])
        seq_out = capsys.readouterr().out
        main(argv + ["--jobs", "3"])
        assert capsys.readouterr().out == seq_out
    _report(10, "randomized commands replay byte-identically, any --jobs value")
