from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import (
    Closure,
    FixedOrder,
    Mapping,
    SeededRandomOrder,
    SmallestLabel,
    conditional_event_probabilities,
    cycle_count_from_trace,
    cycle_structure,
    explore,
    has_unique_cyclic_from_trace,
    reconstruct_mapping,
    telescoping_probability,
    trace_to_dot,
    unique_cyclic_vertex,
)

from conftest import all_mappings


mappings_st = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, n), min_size=n, max_size=n)
    )
).map(lambda p: Mapping(p[0], tuple(p[1])))

strategies_st = st.one_of(
    st.just(SmallestLabel()),
    st.integers(0, 2**32).map(SeededRandomOrder),
)


def test_explore_forced_single_vertex():
    t = explore(Mapping(1, (1,)), SmallestLabel())
    assert t.K == 1 and t.T == (1,)
    r = t.rounds[0]
    assert r.path == (1,) and r.closing_edge == (1, 1)
    assert r.closure is Closure.SELF_LOOP


def test_explore_single_round_chain():
    t = explore(Mapping(3, (2, 3, 3)), SmallestLabel())
    assert t.K == 1 and t.T == (3,)
    assert t.rounds[0].path == (1, 2, 3)
    assert t.rounds[0].closing_edge == (3, 3)
    assert t.rounds[0].closure is Closure.SELF_LOOP


def test_explore_three_round_trace():
    t = explore(Mapping(4, (1, 1, 4, 3)), SmallestLabel())
    assert t.K == 3
    assert t.T == (1, 2, 4)
    r1, r2, r3 = t.rounds
    assert r1.path == (1,) and r1.closure is Closure.SELF_LOOP
    assert r2.path == (2,) and r2.closing_edge == (2, 1)
    assert r2.closure is Closure.PRIOR_ROUND
    assert r3.path == (3, 4) and r3.closing_edge == (4, 3)
    assert r3.closure is Closure.IN_ROUND


def test_trace_verdict_examples():
    assert has_unique_cyclic_from_trace(explore(Mapping(1, (1,))))
    assert has_unique_cyclic_from_trace(explore(Mapping(3, (2, 3, 3))))
    assert not has_unique_cyclic_from_trace(explore(Mapping(4, (1, 1, 4, 3))))


def test_cycle_count_examples():
    assert cycle_count_from_trace(explore(Mapping(3, (1, 2, 3)))) == 3
    assert cycle_count_from_trace(explore(Mapping(3, (2, 3, 3)))) == 1
    assert cycle_count_from_trace(explore(Mapping(4, (1, 1, 4, 3)))) == 2


def _check_trace_invariants(m, strategy):
    t = explore(m, strategy)
    # paths partition [1..n]
    seen = []
    for r in t.rounds:
        assert r.closing_edge[0] == r.path[-1]
        assert r.path[0] == r.start
        seen.extend(r.path)
    assert sorted(seen) == list(range(1, m.n + 1))
    # T is the running path-length total, strictly increasing, ends at n
    totals = []
    acc = 0
    for r in t.rounds:
        acc += len(r.path)
        totals.append(acc)
    assert list(t.T) == totals
    assert t.T[-1] == m.n
    # closure classification matches the closing edge
    for r in t.rounds:
        frm, to = r.closing_edge
        if r.closure is Closure.SELF_LOOP:
            assert to == frm
        elif r.closure is Closure.IN_ROUND:
            assert to in r.path and to != frm
        else:
            assert to not in r.path
    # the revealed edges rebuild the mapping bit for bit
    assert reconstruct_mapping(t) == m
    # verdicts agree with direct cycle analysis
    assert has_unique_cyclic_from_trace(t) == (unique_cyclic_vertex(m) is not None)
    assert cycle_count_from_trace(t) == cycle_structure(m).num_cycles
    # telescoping product collapses to 1/n exactly
    assert telescoping_probability(t.T) == Fraction(1, m.n)
    return t


def test_invariants_exhaustive_small():
    for n in range(1, 5):
        for m in all_mappings(n):
            _check_trace_invariants(m, SmallestLabel())


@settings(deadline=None)
@given(m=mappings_st, strategy=strategies_st)
def test_invariants_random(m, strategy):
    _check_trace_invariants(m, strategy)


def test_strategy_changes_rounds_not_verdict():
    m = Mapping(6, (1, 1, 2, 5, 4, 4))
    t_small = explore(m, SmallestLabel())
    t_rev = explore(m, FixedOrder((6, 5, 4, 3, 2, 1)))
    assert t_small.T != t_rev.T  # different round splits...
    assert t_small.T[-1] == t_rev.T[-1] == 6  # ...same total
    assert has_unique_cyclic_from_trace(t_small) == has_unique_cyclic_from_trace(t_rev)
    assert cycle_count_from_trace(t_small) == cycle_count_from_trace(t_rev)


def test_explore_deterministic():
    m = Mapping(9, (3, 1, 4, 1, 5, 9, 2, 6, 5))
    s = SeededRandomOrder(7)
    assert explore(m, s) == explore(m, s)


def test_fixed_order_rejects_non_permutation():
    with pytest.raises(ValueError):
        explore(Mapping(3, (1, 2, 3)), FixedOrder((1, 2)))
    with pytest.raises(ValueError):
        explore(Mapping(3, (1, 2, 3)), FixedOrder((1, 1, 2)))


def test_telescoping_probability_examples():
    assert telescoping_probability((5,)) == Fraction(1, 5)
    assert telescoping_probability((3, 7, 12)) == Fraction(1, 12)
    assert telescoping_probability(tuple(range(1, 51))) == Fraction(1, 50)


def test_telescoping_probability_rejects_bad_input():
    with pytest.raises(ValueError):
        telescoping_probability(())
    with pytest.raises(ValueError):
        telescoping_probability((3, 3))
    with pytest.raises(ValueError):
        telescoping_probability((5, 4))
    with pytest.raises(ValueError):
        telescoping_probability((0, 2))


def test_conditional_event_probabilities_examples():
    assert conditional_event_probabilities((1,)) == (Fraction(1),)
    assert conditional_event_probabilities((3, 7, 12)) == (
        Fraction(1, 3),
        Fraction(3, 7),
        Fraction(7, 12),
    )
    assert conditional_event_probabilities((2, 4)) == (Fraction(1, 2), Fraction(1, 2))
    # accepts a trace as well; product of the factors telescopes to 1/n
    t = explore(Mapping(4, (1, 1, 4, 3)))
    probs = conditional_event_probabilities(t)
    prod = Fraction(1)
    for p in probs:
        prod *= p
    assert prod == Fraction(1, 4)


def test_trace_json_round_trip():
    t = explore(Mapping(4, (1, 1, 4, 3)))
    doc = t.to_json_dict()
    assert doc["K"] == 3 and doc["T"] == [1, 2, 4]
    assert doc["rounds"][0]["closure"] == "SelfLoop"
    assert doc["rounds"][1:] == [
        {"start": 2, "path": [2], "closing_edge": [2, 1], "closure": "PriorRound"},
        {"start": 3, "path": [3, 4], "closing_edge": [4, 3], "closure": "InRound"},
    ]


def test_trace_dot_labels_reveal_order():
    t = explore(Mapping(3, (2, 3, 3)))
    dot = trace_to_dot(t)
    assert '1 -> 2 [label="1"];' in dot
    assert '2 -> 3 [label="2"];' in dot
    assert '3 -> 3 [label="3"];' in dot
    assert "3 [peripheries=2];" in dot
