"""Bipartite graphs with bitset adjacency, exact rational densities.

Every other module works on top of the three types defined here:
``BipartiteGraph`` (immutable, two-sided, adjacency stored as one Python int
bitmask per vertex), ``VertexSet`` (a side plus a bitmask) and ``VertexId``
(side, index), of which every vertex has one shared instance (``id_table``).
All densities are computed in exact rational arithmetic so
that threshold comparisons never depend on floating-point ties.

An ``Embedding`` of a target into a host, and ``verify_embedding``, its
edge-by-edge check, live here too: the check needs nothing but the two
graphs, so ``bipembed verify --embedding`` loads this module and ``fileio``
and none of the pipeline whose output it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import compress
from typing import Iterable, Iterator, Sequence


class Side(str, Enum):
    A = "A"
    B = "B"

    def opposite(self) -> "Side":
        return Side.B if self is Side.A else Side.A


@dataclass(frozen=True, order=True)
class VertexId:
    side: Side
    index: int

    def __repr__(self) -> str:
        return f"{self.side.value}{self.index}"


# one shared VertexId per vertex, per side, for every graph in the process:
# ids are immutable values, so sharing them changes no result.  A table only
# grows, by replacing its tuple, so a tuple once handed out never changes.
_ID_TABLES: dict[Side, tuple[VertexId, ...]] = {Side.A: (), Side.B: ()}


def id_table(side: Side, count: int) -> tuple[VertexId, ...]:
    """The shared ids of ``side``: entry i is ``VertexId(side, i)`` for every
    i < ``count`` (the table may hold more).

    Ids are values, so a shared id and a freshly built one are equal, hash
    equal and sort equal; sharing saves building them (a neighbour list used
    to build one object per neighbour) and lets dict lookups match by
    identity before they compare fields.
    """
    ids = _ID_TABLES[side]
    if len(ids) < count:
        more = range(len(ids), max(count, 2 * len(ids)))
        ids = _ID_TABLES[side] = ids + tuple(map(partial(VertexId, side), more))
    return ids


def vertex_id(side: Side, index: int) -> VertexId:
    """``VertexId(side, index)``, the shared one when a table already holds it.

    Never grows a table: ``index`` may come from a file and name a vertex of
    no graph, so it is not allowed to size one.
    """
    ids = _ID_TABLES[side]
    return ids[index] if 0 <= index < len(ids) else VertexId(side, index)


@dataclass(frozen=True)
class Check:
    """Outcome of a pass/fail test; ``detail`` says why it failed."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class GraphError(ValueError):
    pass


class EdgeIndexError(GraphError):
    """An edge referenced a vertex index outside its side."""

    def __init__(self, edge: tuple[int, int], size_a: int, size_b: int):
        self.edge = edge
        super().__init__(f"edge {edge} out of range for sides {size_a}+{size_b}")


class SideMismatchError(GraphError):
    pass


class UndefinedDensityError(GraphError):
    pass


# '0'/'1' digits to the bytes 0/1, so ``compress`` keeps the positions of ones
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, ascending.

    Seeded draws index into lists built in this order (the sampled pair
    checks' neighbourhood pools, the embedder's candidate images), so
    changing it changes every RNG-dependent result.  A dense int is read
    from its binary digits at C speed, one step per bit position; a sparse
    one (fewer than 8 set bits, or set bits under 1/8 of its length) peels
    off its lowest set bit per step, which costs a pass over the int per
    set bit but nothing per clear bit.  Both give the same order.
    """
    count = bits.bit_count()
    if count < 8 or count * 8 < bits.bit_length():
        return _peel_bits(bits)
    length = bits.bit_length()
    return compress(range(length), bit_flags(bits, length))


def bit_flags(bits: int, length: int) -> bytes:
    """Bits 0 .. length-1 of ``bits`` (which has no higher bit) as the bytes
    0 and 1, lowest first: one C-speed pass over the binary digits."""
    return bin(bits | 1 << length)[:2:-1].encode().translate(_DIGIT_FLAGS)


def _peel_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class VertexSet:
    """A subset of one side of a bipartite vertex universe (immutable)."""

    __slots__ = ("side", "universe", "bits")

    def __init__(self, side: Side, universe: int, bits: int = 0):
        if universe < 0:
            raise GraphError(f"negative universe {universe}")
        if bits < 0 or bits >> universe:
            raise GraphError("membership bits outside side universe")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("VertexSet is immutable")

    def __reduce__(self):
        # slots and no __dict__: pickle rebuilds it through the constructor
        return VertexSet, (self.side, self.universe, self.bits)

    @classmethod
    def from_indices(cls, side: Side, universe: int, indices: Iterable[int]) -> "VertexSet":
        bits = 0
        for i in indices:
            if not 0 <= i < universe:
                raise GraphError(f"index {i} outside universe {universe}")
            bits |= 1 << i
        return cls(side, universe, bits)

    @classmethod
    def full(cls, side: Side, universe: int) -> "VertexSet":
        return cls(side, universe, (1 << universe) - 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe and (self.bits >> index) & 1 == 1

    def indices(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.side is other.side
            and self.universe == other.universe
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.side, self.universe, self.bits))

    def __repr__(self) -> str:
        return f"VertexSet({self.side.value}, {sorted(self.indices())})"


_DIGITS = bytes.maketrans(b"\0\1", b"01")


class BipartiteGraph:
    """Immutable bipartite graph; ``adj_a[i]`` is a bitmask over the B side."""

    __slots__ = ("size_a", "size_b", "adj_a", "adj_b", "edge_count")

    def __init__(self, size_a: int, size_b: int, adj_a: Sequence[int], adj_b: Sequence[int]):
        object.__setattr__(self, "size_a", size_a)
        object.__setattr__(self, "size_b", size_b)
        object.__setattr__(self, "adj_a", tuple(adj_a))
        object.__setattr__(self, "adj_b", tuple(adj_b))
        object.__setattr__(self, "edge_count", sum(m.bit_count() for m in adj_a))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BipartiteGraph is immutable")

    @classmethod
    def build(
        cls, size_a: int, size_b: int, edges: Iterable[tuple[int, int]]
    ) -> "BipartiteGraph":
        """Build a graph from an edge list; duplicates collapse, bad indices reject."""
        if size_a < 0 or size_b < 0:
            raise GraphError("negative side size")
        adj_a = [0] * size_a
        adj_b = [0] * size_b
        for a, b in edges:
            if not (0 <= a < size_a and 0 <= b < size_b):
                raise EdgeIndexError((a, b), size_a, size_b)
            adj_a[a] |= 1 << b
            adj_b[b] |= 1 << a
        return cls(size_a, size_b, adj_a, adj_b)

    @classmethod
    def _from_flat(cls, size_a: int, size_b: int, flat: bytes) -> "BipartiteGraph":
        """The graph with edge (a, b) where byte ``flat[a * size_b + b]`` is 1.

        ``flat`` holds only 0 and 1 bytes.  Each row and each (strided)
        column becomes one bitset through a single ``int(..., 2)``.
        """
        if not size_a or not size_b:
            return cls(size_a, size_b, [0] * size_a, [0] * size_b)
        s = flat.translate(_DIGITS)
        adj_a = [int(s[i:i + size_b][::-1], 2) for i in range(0, len(s), size_b)]
        adj_b = [int(s[j::size_b][::-1], 2) for j in range(size_b)]
        return cls(size_a, size_b, adj_a, adj_b)

    @property
    def is_balanced(self) -> bool:
        return self.size_a == self.size_b

    def side_size(self, side: Side) -> int:
        return self.size_a if side is Side.A else self.size_b

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.size_a and 0 <= b < self.size_b and (self.adj_a[a] >> b) & 1 == 1

    def adjacency_mask(self, v: VertexId) -> int:
        """Neighbourhood of ``v`` as a bitmask over the opposite side."""
        if v.side is Side.A:
            return self.adj_a[v.index]
        return self.adj_b[v.index]

    def degree(self, v: VertexId) -> int:
        return self.adjacency_mask(v).bit_count()

    def _degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj_a + self.adj_b]

    def min_degree(self) -> int:
        return min(self._degrees(), default=0)

    def max_degree(self) -> int:
        return max(self._degrees(), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        for a in range(self.size_a):
            for b in iter_bits(self.adj_a[a]):
                yield (a, b)

    def vertices(self) -> Iterator[VertexId]:
        yield from id_table(Side.A, self.size_a)[:self.size_a]
        yield from id_table(Side.B, self.size_b)[:self.size_b]

    def neighbours(self, v: VertexId) -> list[VertexId]:
        """The shared ids of ``v``'s neighbours, ascending."""
        opp = v.side.opposite()
        ids = id_table(opp, self.side_size(opp))
        return list(map(ids.__getitem__, iter_bits(self.adjacency_mask(v))))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self.size_a == other.size_a
            and self.size_b == other.size_b
            and self.adj_a == other.adj_a
        )

    def __hash__(self) -> int:
        return hash((self.size_a, self.size_b, self.adj_a))

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.size_a}+{self.size_b}, m={self.edge_count})"


def _require_pair(U: VertexSet, W: VertexSet) -> None:
    if U.side is W.side:
        raise SideMismatchError("pair must span both sides")


def edges_between(G: BipartiteGraph, U: VertexSet, W: VertexSet) -> int:
    """Number of edges with one end in U and the other in W (opposite sides)."""
    _require_pair(U, W)
    if U.side is Side.B:
        U, W = W, U
    if U.universe != G.size_a or W.universe != G.size_b:
        raise GraphError("vertex set universe does not match graph")
    return sum((G.adj_a[a] & W.bits).bit_count() for a in U.indices())


def density(G: BipartiteGraph, U: VertexSet, W: VertexSet) -> Fraction:
    """Exact edge density e(U,W) / (|U||W|)."""
    _require_pair(U, W)
    if not U or not W:
        raise UndefinedDensityError("density undefined for empty sets")
    return Fraction(edges_between(G, U, W), U.size * W.size)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    mapping: dict[VertexId, VertexId]
    phases: dict[VertexId, str] = field(compare=False, default_factory=dict)


def verify_embedding(G: BipartiteGraph, H: BipartiteGraph, emb: Embedding) -> Check:
    """Exhaustive check: total, injective, side-respecting, edge-preserving.

    The mapping is read once, in its own order, into one host index per
    target vertex and side; the edges are then checked on those ints.  The
    first fault is named: an unmapped vertex (A side, then B side, by
    index), else the first entry that is not a target vertex, crosses sides,
    leaves the host or repeats an image, else the first H-edge in edge
    order whose image is no G-edge.
    """
    images = ([None] * H.size_a, [None] * H.size_b)
    used = (bytearray(G.size_a), bytearray(G.size_b))
    fault = None
    for hv, gv in emb.mapping.items():
        s = hv.side is Side.B
        mine, i = images[s], hv.index
        if not 0 <= i < len(mine):
            fault = fault or f"{hv} is not a target vertex"
            continue
        g = mine[i] = gv.index
        if fault:
            continue
        if hv.side is not gv.side:
            fault = f"{hv} mapped across sides to {gv}"
        elif not 0 <= g < len(used[s]):
            fault = f"{hv} mapped outside the host to {gv}"
        elif used[s][g]:
            fault = f"two vertices share the image {gv}"
        else:
            used[s][g] = 1
    for side, mine in zip(Side, images):
        if None in mine:
            return Check(False, f"{VertexId(side, mine.index(None))} is not mapped")
    if fault:
        return Check(False, fault)
    image_a, image_b = images
    for x, row in enumerate(H.adj_a):
        ga = image_a[x]
        host_row = G.adj_a[ga]
        for y in iter_bits(row):
            gb = image_b[y]
            if not host_row >> gb & 1:
                return Check(False, f"edge ({x},{y}) maps to non-edge ({ga},{gb})")
    return Check(True)
