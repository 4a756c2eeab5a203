"""Mappings [n] -> [n], their functional digraphs, and rooted trees.

A mapping f on [n] = {1, ..., n} defines the directed graph with one
out-edge (v, f(v)) per vertex.  Every vertex's iterated walk eventually
enters a directed cycle; the vertices lying on cycles are the *cyclic*
vertices.  Mappings whose cyclic set is a single vertex r (necessarily a
fixed point) correspond to trees on [n] rooted at r with edges oriented
toward the root.  Random mappings come from seeded Philox streams.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Marker used in parent arrays (and their JSON form) for the root's slot.
NO_PARENT = 0

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = 1 << 64
_M32 = 0xFFFFFFFF

#: 32-bit draws a stream serves in pure Python before _Draws hands it to
#: numpy's Philox.  On a 2-core x86-64 host 2**16 draws cost 67-81 ms
#: here, against about 160 ms to import numpy and build one generator, so
#: no stream costs much more than the cheaper of the two sources.
_PURE_DRAWS = 1 << 16

#: The first request on a fresh stream that sends it to numpy's Philox at
#: once when numpy.random is already loaded.  A fresh stream costs about
#: 11 us plus 10 us per 8 draws here and 33 us on a numpy generator (2-core
#: x86-64 host), so the two cross near two or three blocks of draws.  Until
#: numpy.random is loaded a generator would also cost its import: about
#: 15 ms and 6 MB of peak memory.
_NUMPY_FIRST_DRAWS = 24


class Record:
    """An immutable value whose fields are its annotated names, in order.

    Each subclass gets an ``__init__`` taking the fields by position or
    keyword, with class-level values as defaults, that stores them and
    then calls ``__post_init__`` if the class has one.  Records compare,
    hash and print by class and field values.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        params = ", ".join(f"{f}=_cls.{f}" if f in vars(cls) else f for f in cls._fields)
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in cls._fields)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        scope = {"_cls": cls, "_set": object.__setattr__}
        # one compiled __init__ per class: Python binds the arguments, no per-call loop
        exec(f"def __init__(self, {params}):\n{body}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def to_json_dict(self) -> dict:
        """The fields by name: tuples as lists, and records, in a tuple too, as their own dicts."""
        doc = {}
        for f, v in zip(self._fields, self._values()):
            if isinstance(v, tuple):  # a field's tuple holds one type
                doc[f] = [x.to_json_dict() for x in v] if v and isinstance(v[0], Record) else list(v)
            else:
                doc[f] = v.to_json_dict() if isinstance(v, Record) else v
        return doc


def _json_int(value) -> int:
    """value if it is an int, as every JSON reader here wants its integers.

    A bool, a float (2.0 too), a string, a list or any other value raises
    TypeError, so a reader never truncates or parses what it was given.
    An infinity (JSON's 1e400) or NaN raises int()'s own error.
    """
    if type(value) is int:
        return value
    if type(value) is float:
        int(value)  # raises OverflowError or ValueError when not finite
    raise TypeError(f"expected an integer, got {value!r}")


def _json_ints(value) -> tuple[int, ...]:
    """value, a JSON array of integers, as a tuple of _json_int's ints."""
    if type(value) is not list:
        raise TypeError(f"expected a JSON array, got {_json_type(value)}")
    return tuple(_json_int(x) for x in value)


def _json_type(value) -> str:
    return "null" if value is None else type(value).__name__


def _json_fields(doc, what: str, build=None, /, **readers):
    """[read(doc[key]) for each key=read], a JSON object's fields read in order, or build(*them).

    A doc that is not a JSON object, a missing key, a value its reader
    refuses or a fault of build raises ValueError("invalid <what> JSON: ...").
    """
    try:
        if type(doc) is not dict:
            raise TypeError(f"expected a JSON object, got {_json_type(doc)}")
        values = []
        for key, read in readers.items():
            if key not in doc:
                raise ValueError(f"missing key {key!r}")
            values.append(read(doc[key]))
        return values if build is None else build(*values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid {what} JSON: {exc}") from exc


class Mapping(Record):
    """A total function f: [n] -> [n], stored as a 1-based lookup table.

    ``table[v-1]`` holds f(v).  Instances are immutable and validated on
    construction.
    """

    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not isinstance(self.table, tuple):
            object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.n:
            raise ValueError(
                f"table has {len(self.table)} entries, expected n={self.n}"
            )
        for v, image in enumerate(self.table, start=1):
            if not 1 <= image <= self.n:
                raise ValueError(
                    f"table entry f({v})={image} out of range [1..{self.n}]"
                )

    def edges(self) -> list[tuple[int, int]]:
        """All directed edges (v, f(v)) in vertex order."""
        return [(v, self.table[v - 1]) for v in range(1, self.n + 1)]

    @classmethod
    def from_json_dict(cls, d: dict) -> "Mapping":
        return cls(*_json_fields(d, "mapping", n=_json_int, table=_json_ints))


class CycleStructure(Record):
    """Cyclic vertices and cycle decomposition of a mapping's digraph.

    ``cyclic[v-1]`` says whether v lies on a cycle.  Each cycle is
    listed in traversal order, f(c_j) = c_{j+1 mod len}.
    """

    cyclic: tuple[bool, ...]
    cycles: tuple[tuple[int, ...], ...]
    num_cycles: int

    @property
    def cyclic_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, len(self.cyclic) + 1) if self.cyclic[v - 1])


class RootedTree(Record):
    """A tree on [n] with edges oriented toward a designated root.

    ``parent[v-1]`` is the parent of v, with ``NO_PARENT`` (0) in the
    root's slot.  Construction verifies that the mapping with the root
    as a fixed point closes exactly one cycle, so parent-following from
    every vertex reaches the root: the structure is an acyclic in-tree.
    """

    n: int
    root: int
    parent: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not isinstance(self.parent, tuple):
            object.__setattr__(self, "parent", tuple(self.parent))
        if not 1 <= self.root <= self.n:
            raise ValueError(f"root {self.root} out of range [1..{self.n}]")
        if len(self.parent) != self.n:
            raise ValueError(
                f"parent array has {len(self.parent)} entries, expected n={self.n}"
            )
        for v, p in enumerate(self.parent, start=1):
            if v == self.root:
                if p != NO_PARENT:
                    raise ValueError(f"root {v} must have parent marker {NO_PARENT}")
            elif not 1 <= p <= self.n:
                raise ValueError(f"parent of {v} is {p}, out of range [1..{self.n}]")
        table = list(self.parent)
        table[self.root - 1] = self.root
        if sum(own for _, _, own in _rounds(table)) != 1:
            raise ValueError("parent pointers contain a cycle")

    def depth(self, v: int) -> int:
        """Edge-distance from v to the root (the root has depth 0)."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range [1..{self.n}]")
        d = 0
        while v != self.root:
            v = self.parent[v - 1]
            d += 1
        return d


def _rounds(table, order=None):
    """The paper's exploration of a 1-based table, the one scalar cycle walk.

    Each round starts at the first unexplored vertex in order (1..n by
    default) and follows f until it reaches an explored vertex w.  It
    yields (path, w, own), own saying whether w is on the round's own
    path, i.e. whether the round closed a new cycle.
    """
    round_of = [0] * (len(table) + 1)  # round_of[v]: the round that explored v, 0 before
    i = 0
    for start in range(1, len(table) + 1) if order is None else order:
        if round_of[start]:
            continue
        i += 1
        path = []
        v = start
        while not round_of[v]:
            round_of[v] = i
            path.append(v)
            v = table[v - 1]
        yield path, v, round_of[v] == i


def cycle_structure(m: Mapping) -> CycleStructure:
    """Compute the cyclic set and cycle decomposition in O(n).

    A round of the exploration that closes on its own path has found a
    new cycle, its path from the closing vertex on; so each cycle is
    listed from its first explored vertex, in the order of those.
    """
    cyclic = [False] * m.n
    cycles: list[tuple[int, ...]] = []
    for path, w, own in _rounds(m.table):
        if own:
            cycles.append(tuple(path[path.index(w):]))
            for u in cycles[-1]:
                cyclic[u - 1] = True
    return CycleStructure(tuple(cyclic), tuple(cycles), len(cycles))


def unique_cyclic_vertex(m: Mapping) -> int | None:
    """Return the unique cyclic vertex, or None when there are several.

    A mapping has a single cyclic vertex r exactly when r is its only
    fixed point and no other cycle exists, so the check counts fixed
    points first and then explores only until a second cycle closes.
    O(n), and cheap on the frequent rejection paths.
    """
    root = 0
    for v, image in enumerate(m.table, start=1):
        if image == v:
            if root:
                return None
            root = v
    if not root:
        return None
    cycles = 0
    for _, _, own in _rounds(m.table):
        cycles += own
        if cycles > 1:
            return None  # closed a second cycle
    return root


def _pointer_doubling(tables: np.ndarray, fold=None, values=None, buffers=None):
    """(g, values) after pointer doubling each row of 0-based tables, on flat indices.

    Row r's entries are offset by r * n, so g = g[g] squares every row
    at once: after t squarings g = f^(2^t).  The loop stops at the first
    2^t >= n, where g maps every vertex onto the cyclic set, and onto
    the whole of it.  With a fold (np.minimum, np.add), each squaring
    first folds values[g] into values, in place, so a value per flat
    vertex ends as the fold of its values over f^k(v), k < 2^t.

    buffers are three 1-D intp arrays of at least m * n entries: g and
    its ping-pong partner, and the gather buffer for values[g].  A
    caller that passes its own reuses them across calls, and g is then
    a view of one of them.  Without, each is allocated at its first use
    and reused from then on (allocating all three up front measured
    slower).  Gathers use np.take with mode="wrap" (every index is in
    range), as with mode="raise" numpy copies out= through a temporary.
    """
    import numpy as np

    m, n = tables.shape
    if buffers is None:
        g, spare, gathered = np.empty(m * n, np.intp), None, None
    else:
        g, spare, gathered = (b[: m * n] for b in buffers)
    np.add(tables, n * np.arange(m)[:, None], out=g.reshape(m, n))
    for _ in range(max(1, (n - 1).bit_length())):
        if fold is not None:
            gathered = np.take(values, g, out=gathered, mode="wrap")
            fold(values, gathered, out=values)
        g, spare = np.take(g, g, out=spare, mode="wrap"), g
    return g, values


def _root_depths(tables: np.ndarray, values=None, buffers=None) -> np.ndarray:
    """Each vertex's f-steps to the root, on flat indices, for 0-based rooted tables.

    The root is a rooted table's only fixed point, so _pointer_doubling's
    np.add fold of f(v) != v gives #{k < 2^t : f^k(v) != root}, the depth
    as 2^t >= n.  values (at least m * n intp entries) and buffers, if
    given, are reused as working arrays, and the result is then a view.
    """
    import numpy as np

    m, n = tables.shape
    values = np.empty(m * n, np.intp) if values is None else values[: m * n]
    np.not_equal(tables, np.arange(n), out=values.reshape(m, n))
    return _pointer_doubling(tables, np.add, values, buffers)[1]


def _dot(name: str, n: int, attributes: dict, edges, labels: dict | None = None) -> str:
    """A DOT digraph on [n]: vertex v with attributes[v] if it has any, and
    each edge (v, w) with labels[(v, w)] as its label if labels are given."""
    lines = [f"digraph {name} {{"]
    lines += [f"  {v} [{attributes[v]}];" if v in attributes else f"  {v};" for v in range(1, n + 1)]
    lines += [f'  {v} -> {w} [label="{labels[(v, w)]}"];' if labels else f"  {v} -> {w};" for v, w in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def mapping_to_dot(m: Mapping, *, name: str = "mapping", labels: dict | None = None) -> str:
    """DOT rendering of the functional digraph.

    Cyclic vertices get a doubled border so the core of each component
    stands out from the hanging trees.  labels, if given, maps each edge
    (v, f(v)) to its label.
    """
    cyclic = dict.fromkeys(cycle_structure(m).cyclic_vertices, "peripheries=2")
    return _dot(name, m.n, cyclic, m.edges(), labels)


def tree_to_dot(t: RootedTree, *, name: str = "tree") -> str:
    """DOT rendering of a rooted tree; the root is filled."""
    edges = [(v, p) for v, p in enumerate(t.parent, start=1) if v != t.root]
    return _dot(name, t.n, {t.root: "style=filled, peripheries=2"}, edges)


class RngStream(Record):
    """One independent random stream, (master_seed, stream_index).

    Distinct indices under the same master seed give statistically
    independent Philox streams; the pair fully determines the bits.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < _U64:
            raise ValueError(f"master_seed must be a 64-bit integer, got {self.master_seed}")
        if not 0 <= self.stream_index < _U64:
            raise ValueError(f"stream_index must fit in 64 bits, got {self.stream_index}")

    def generator(self) -> np.random.Generator:
        import numpy as np

        # an exact uint64 key: a plain list of ints at or above 2**63
        # would pass through float64 and merge neighbouring streams
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def draws(self) -> _Draws:
        """A fresh source of generator().integers' values, without numpy while short."""
        return _Draws(self)


def _philox_block(counter: int, round_keys: list[tuple[int, int]]) -> tuple[int, int, int, int]:
    """Philox4x64-10 of the counter [counter, 0, 0, 0] under the given round keys."""
    (m0, m1), mask = _PHILOX_M, _U64 - 1
    x0, x1, x2, x3 = counter, 0, 0, 0
    for k0, k1 in round_keys:
        p0, p1 = x0 * m0, x2 * m1
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & mask, (p0 >> 64) ^ x3 ^ k1, p0 & mask
    return x0, x1, x2, x3


class _Draws:
    """numpy's Generator.integers on one stream, call for call, in pure Python.

    Draws and Lemire rejections as in montecarlo._bounded_draws.  A call that
    would take the stream past _PURE_DRAWS draws, or has a span outside
    [1, 2**32], hands the stream to numpy's Philox at the same position
    for good; so does a first call for _NUMPY_FIRST_DRAWS draws or more
    when numpy.random is already loaded, where the generator costs less
    than the stream's pure-Python draws.
    """

    def __init__(self, stream: RngStream):
        self._stream = stream
        (k0, k1), (w0, w1) = (stream.master_seed, stream.stream_index), _PHILOX_W
        self._keys = [((k0 + r * w0) % _U64, (k1 + r * w1) % _U64) for r in range(10)]
        self._counter = 0  # Philox blocks computed
        self._pool: list[int] = []  # the draws of block _counter not yet handed out
        self._gen = None  # numpy's generator, after the hand-over

    def integers(self, low: int, high: int, size: int | None = None):
        span, count, pool = high - low, 1 if size is None else size, self._pool
        budget = _PURE_DRAWS - 8 * self._counter + len(pool)
        if self._gen is None and (
            not (1 <= span <= 1 << 32 and 0 <= count <= budget)
            or span > 1 and self._counter == 0 and count >= _NUMPY_FIRST_DRAWS
            and "numpy.random" in sys.modules
        ):
            self._gen = self._handover()
        if self._gen is not None:
            return self._gen.integers(low, high, size)
        out = [low] * count if span == 1 else []  # a span of 1 draws nothing
        threshold = (1 << 32) % span
        while (k := count - len(out)) > 0:
            if k > len(pool):  # compute the blocks that hold the next k draws
                first = self._counter + 1
                self._counter += (k - len(pool) + 7) // 8
                blocks = (_philox_block(c, self._keys) for c in range(first, self._counter + 1))
                pool += [h for block in blocks for w in block for h in (w & _M32, w >> 32)]
            out += [(m >> 32) + low for u in pool[:k] if (m := u * span) & _M32 >= threshold]
            pool = self._pool = pool[k:]
        return out[0] if size is None else out

    def _handover(self) -> np.random.Generator:
        """numpy's generator on the stream, at the position reached here."""
        gen = self._stream.generator()
        if self._counter:  # skip the blocks before the last, then redraw its draws used
            gen.bit_generator.advance(self._counter - 1)
            gen.integers(0, 1 << 32, size=8 - len(self._pool))  # a span of 2**32 never rejects
        return gen


def sample_mapping(n: int, stream: RngStream) -> Mapping:
    """Draw a uniform random mapping on [n] from the given stream.

    Each table entry is i.i.d. uniform on [1..n]; the underlying bounded
    integer sampling is rejection-based, hence exactly uniform.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = stream.draws().integers(1, n + 1, size=n)
    return Mapping(n, tuple(int(x) for x in table))
