"""Record semantics of the immutable value classes, one case per class.

The repr strings and error messages were recorded from the frozen
dataclasses these classes used to be; they must not change.
"""

import importlib
import pickle
from fractions import Fraction

import pytest

from cayleykit.bijection import DoublyRootedTree, PruferSequence
from cayleykit.core import CycleStructure, Mapping, Record, RngStream, RootedTree
from cayleykit.enumeration import ExactCounts
from cayleykit.exploration import (
    Closure,
    ExplorationTrace,
    FixedOrder,
    RoundRecord,
    SeededRandomOrder,
)
from cayleykit.heights import ChiSquareCheck, LawEqualityReport
from cayleykit.montecarlo import ConditionalBin, ConditionalReport, Estimate, Histogram

TREE = RootedTree(3, 3, (3, 3, 0))
ROUND = RoundRecord(1, 1, (1, 2, 3), (3, 3), Closure.SELF_LOOP)
ROUND_REPR = (
    "RoundRecord(index=1, start=1, path=(1, 2, 3), closing_edge=(3, 3), "
    "closure=<Closure.SELF_LOOP: 'SelfLoop'>)"
)
HIST = Histogram(1, (2, 3), 5)
HIST_REPR = "Histogram(lo=1, counts=(2, 3), total=5)"
CHECK = ChiSquareCheck("height", 1.5, 2, 5.991464547107979, True)
CHECK_REPR = "ChiSquareCheck(label='height', statistic=1.5, df=2, critical=5.991464547107979, passed=True)"
BIN = ConditionalBin(1, 0, 2, 10, 4, Fraction(1, 2), 0.4, -0.63, False)
BIN_REPR = (
    "ConditionalBin(round_index=1, t_prev=0, t_cur=2, observations=10, successes=4, "
    "predicted=Fraction(1, 2), frequency=0.4, deviation_se=-0.63, flagged=False)"
)

# (class, fields in declaration order with values, repr the dataclass printed)
CASES = [
    (Mapping, dict(n=3, table=(2, 3, 3)), "Mapping(n=3, table=(2, 3, 3))"),
    (
        CycleStructure,
        dict(cyclic=(False, False, True), cycles=((3,),), num_cycles=1),
        "CycleStructure(cyclic=(False, False, True), cycles=((3,),), num_cycles=1)",
    ),
    (RootedTree, dict(n=3, root=3, parent=(3, 3, 0)), "RootedTree(n=3, root=3, parent=(3, 3, 0))"),
    (RngStream, dict(master_seed=7, stream_index=2), "RngStream(master_seed=7, stream_index=2)"),
    (
        DoublyRootedTree,
        dict(tree=TREE, head=1),
        "DoublyRootedTree(tree=RootedTree(n=3, root=3, parent=(3, 3, 0)), head=1)",
    ),
    (PruferSequence, dict(n=4, seq=(4, 4)), "PruferSequence(n=4, seq=(4, 4))"),
    (FixedOrder, dict(order=(2, 1, 3)), "FixedOrder(order=(2, 1, 3))"),
    (SeededRandomOrder, dict(seed=5), "SeededRandomOrder(seed=5)"),
    (RoundRecord, dict(index=1, start=1, path=(1, 2, 3), closing_edge=(3, 3), closure=Closure.SELF_LOOP), ROUND_REPR),
    (
        ExplorationTrace,
        dict(n=3, rounds=(ROUND,), T=(3,), K=1),
        f"ExplorationTrace(n=3, rounds=({ROUND_REPR},), T=(3,), K=1)",
    ),
    (ChiSquareCheck, dict(label="height", statistic=1.5, df=2, critical=5.991464547107979, passed=True), CHECK_REPR),
    (
        LawEqualityReport,
        dict(n=3, trials=5, master_seed=9, height_method="prufer", height_plus_one=HIST,
             collision=HIST, checks=(CHECK,), exact_law_equal=True, passed=True),
        "LawEqualityReport(n=3, trials=5, master_seed=9, height_method='prufer', "
        f"height_plus_one={HIST_REPR}, collision={HIST_REPR}, checks=({CHECK_REPR},), "
        "exact_law_equal=True, passed=True)",
    ),
    (
        ExactCounts,
        dict(n=3, total_mappings=27, unique_cyclic=9, labelled_trees=3,
             by_cycle_count={1: 17, 2: 9, 3: 1}, height_pmf=(Fraction(1, 3), Fraction(2, 3))),
        "ExactCounts(n=3, total_mappings=27, unique_cyclic=9, labelled_trees=3, "
        "by_cycle_count={1: 17, 2: 9, 3: 1}, height_pmf=(Fraction(1, 3), Fraction(2, 3)))",
    ),
    (
        Estimate,
        dict(trials=100, successes=3, point=0.03, ci_low=0.01, ci_high=0.08, z=1.96),
        "Estimate(trials=100, successes=3, point=0.03, ci_low=0.01, ci_high=0.08, z=1.96)",
    ),
    (Histogram, dict(lo=1, counts=(2, 3), total=5), HIST_REPR),
    (
        ConditionalBin,
        dict(round_index=1, t_prev=0, t_cur=2, observations=10, successes=4,
             predicted=Fraction(1, 2), frequency=0.4, deviation_se=-0.63, flagged=False),
        BIN_REPR,
    ),
    (
        ConditionalReport,
        dict(n=7, trials=100, master_seed=3, bins=(BIN,), se_threshold=3.0),
        f"ConditionalReport(n=7, trials=100, master_seed=3, bins=({BIN_REPR},), se_threshold=3.0)",
    ),
]

case_ids = [cls.__name__ for cls, _, _ in CASES]
LAYERS = ("core", "exploration", "bijection", "enumeration", "montecarlo", "heights")


def test_every_record_class_has_a_case():
    layers = [importlib.import_module(f"cayleykit.{layer}") for layer in LAYERS]
    records = {
        obj for mod in layers for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    }
    assert records == {cls for cls, _, _ in CASES}
    assert len(CASES) == 17


@pytest.mark.parametrize("cls, fields, text", CASES, ids=case_ids)
def test_positional_and_keyword_construction_agree(cls, fields, text):
    a = cls(*fields.values())
    b = cls(**fields)
    assert a == b and not a != b
    assert tuple(getattr(a, f) for f in fields) == tuple(fields.values())
    first, *rest = fields
    assert cls(fields[first], **{f: fields[f] for f in rest}) == a
    with pytest.raises(TypeError):
        cls(*fields.values(), 0)  # one argument too many
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})  # a field given twice
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=0)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=case_ids)
def test_equality_is_by_class_and_field_values(cls, fields, text):
    a = cls(**fields)
    lookalike = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})
    twin = lookalike(**fields)
    assert repr(twin) == repr(a)
    assert a.__eq__(twin) is NotImplemented
    assert a != twin and twin != a
    assert a != tuple(fields.values())


@pytest.mark.parametrize("cls, fields, text", CASES, ids=case_ids)
def test_hash_agrees_with_equality(cls, fields, text):
    a, b = cls(**fields), cls(**fields)
    if cls is ExactCounts:  # by_cycle_count is a dict, as it was for the dataclass
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        return
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, text", CASES, ids=case_ids)
def test_assignment_and_deletion_raise(cls, fields, text):
    a = cls(**fields)
    for name in (*fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(**fields)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=case_ids)
def test_repr_is_the_dataclass_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=case_ids)
def test_pickle_round_trips(cls, fields, text):
    a = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol))
        assert type(b) is cls and b == a and repr(b) == text
        with pytest.raises(AttributeError):
            setattr(b, next(iter(fields)), 0)


def test_class_level_defaults():
    assert RngStream(7) == RngStream(7, 0) == RngStream(master_seed=7)
    assert RngStream(7).stream_index == 0
    assert repr(RngStream(7)) == "RngStream(master_seed=7, stream_index=0)"
    with pytest.raises(TypeError):
        RngStream()
    with pytest.raises(TypeError):
        RngStream(stream_index=1)


def test_sequences_are_stored_as_tuples():
    assert Mapping(3, [2, 3, 3]).table == (2, 3, 3)
    assert RootedTree(3, 3, [3, 3, 0]).parent == (3, 3, 0)
    assert PruferSequence(4, [4, 4]).seq == (4, 4)
    assert Mapping(3, [2, 3, 3]) == Mapping(3, (2, 3, 3))


# (class, arguments, the message the dataclass's __post_init__ raised)
BAD = [
    (Mapping, (0, ()), "n must be >= 1, got 0"),
    (Mapping, (2, (1,)), "table has 1 entries, expected n=2"),
    (Mapping, (2, (1, 3)), "table entry f(2)=3 out of range [1..2]"),
    (RootedTree, (0, 1, ()), "n must be >= 1, got 0"),
    (RootedTree, (2, 3, (0, 1)), "root 3 out of range [1..2]"),
    (RootedTree, (2, 1, (0,)), "parent array has 1 entries, expected n=2"),
    (RootedTree, (2, 1, (1, 1)), "root 1 must have parent marker 0"),
    (RootedTree, (2, 1, (0, 3)), "parent of 2 is 3, out of range [1..2]"),
    (RootedTree, (3, 1, (0, 3, 2)), "parent pointers contain a cycle"),
    (RootedTree, (3, 1, (0, 2, 2)), "parent pointers contain a cycle"),  # 2 is its own parent
    (RngStream, (-1,), "master_seed must be a 64-bit integer, got -1"),
    (RngStream, (2**64,), "master_seed must be a 64-bit integer, got 18446744073709551616"),
    (RngStream, (1, -1), "stream_index must fit in 64 bits, got -1"),
    (RngStream, (1, 2**64), "stream_index must fit in 64 bits, got 18446744073709551616"),
    (DoublyRootedTree, (TREE, 4), "head 4 out of range [1..3]"),
    (DoublyRootedTree, (TREE, 0), "head 0 out of range [1..3]"),
    (PruferSequence, (0, ()), "n must be >= 1, got 0"),
    (PruferSequence, (4, (1,)), "sequence length 1, expected 2 for n=4"),
    (PruferSequence, (4, (1, 5)), "sequence entry 5 out of range [1..4]"),
    (ExplorationTrace, (3, (), (3,), 1), "K must equal the number of rounds and len(T)"),
    (ExplorationTrace, (3, (ROUND, ROUND), (3, 2), 2), "T must be strictly increasing"),
    (ExplorationTrace, (3, (ROUND,), (2,), 1), "T_K=2 must equal n=3"),
    (ExplorationTrace, (3, (), (), 0), "T_K=0 must equal n=3"),  # what a strategy with an empty order explores
    (Histogram, (0, (1, -1), 0), "counts must be nonnegative"),
    (Histogram, (0, (1, 2), 4), "total must equal the sum of counts"),
]


def _ids(cases):
    """class-message for each case; a message seen before also names the arguments."""
    ids = []
    for cls, args, message in cases:
        name = f"{cls.__name__}-{message}"
        ids.append(f"{name}-{args}" if name in ids else name)
    return ids


@pytest.mark.parametrize("cls, args, message", BAD, ids=_ids(BAD))
def test_post_init_messages_unchanged(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        cls(**dict(zip(cls._fields, args)))
    assert str(info.value) == message


def test_flat_json_dicts_keep_the_field_order():
    est = Estimate(100, 3, 0.03, 0.01, 0.08, 1.96)
    assert list(est.to_json_dict().items()) == [
        ("trials", 100), ("successes", 3), ("point", 0.03), ("ci_low", 0.01), ("ci_high", 0.08), ("z", 1.96),
    ]
    assert list(CHECK.to_json_dict().items()) == [
        ("label", "height"), ("statistic", 1.5), ("df", 2), ("critical", 5.991464547107979), ("passed", True),
    ]
