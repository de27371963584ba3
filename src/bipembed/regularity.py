"""Certification and construction of regular / super-regular pair structure.

The notions certified here:

* a pair (U, W) with density at least ``d`` is (eps, d)-regular when every
  pair of subsets U' of U, W' of W with |U'| >= eps|U| and |W'| >= eps|W|
  has |d(U', W') - d(U, W)| <= eps (boundary equality counts as regular);
* the pair is super-regular when additionally every vertex of U has at least
  d|W| neighbours in W and vice versa.

Exact regularity testing is exponential, so every check records whether it
ran exhaustively (ground truth, only allowed below an enumeration cap) or by
sampling subset pairs at the minimal qualifying size (statistical verdict,
relative to the recorded sample count).  All density comparisons are exact:
every subset pair a check tests has the same number of vertex pairs, so the
deviation bound is cross-multiplied once into a band of regular edge counts
and each subset pair is tested with integers alone.  Rationals are built
only for the base density and for deviation witnesses.

A pair check first copies the pair's adjacency into pair-local rows (bit j
of member i's row: adjacency to the partner side's j-th member, both in
ascending vertex order), so every draw, mask and degree count works on
|U|- and |W|-bit integers; only a witness is mapped back to vertices.  The
sampled draws make the ``getrandbits`` calls that the standard library's
``Random.sample``/``Random.choice`` make on the same sequences from the
same seed, and draw the same elements, so certificates do not depend on
how the sampler is implemented: ``_draw`` returns what they return
(``_shuffle`` does the same for ``Random.shuffle``), and the sampling loop
draws through ``_drawn_sum``, which sums the drawn elements instead of
listing them, with pool-branch steps (``_pool_steps``) fixed once per check.

What a check draws are tagged lane integers: partner j's column with
member i's bit in lane i (lanes wide enough for the subset size, with
the top bit to spare) and bit j of a tag above the lanes.  The sum of
the drawn ones holds, with no carry, each member's degree into the drawn
partners in its lane and the partners' mask in the tag.  A seeded draw
takes its partners from a member's pool (the tagged lane integers of its
neighbours, built once per check); a uniform draw ANDs the partners' sum
with a sum of drawn member lane selectors, and the sum of that one's
lanes is the subset pair's edge count.  Each sample is decided on the
lane integer itself.  A uniform count is the lane integer's remainder
modulo 2^width - 1, since every lane's place value leaves remainder 1.
Where the count may exceed that modulus whatever the remainder (at
s_u*s_w >= 2^(width+1) - 3), the odd lanes are first added onto the even
ones (``_even_lanes``), giving lanes twice as wide with the same sum, and
the count is the remainder modulo 2^(2*width) - 1; only a count that
could exceed the modulus in use is read lane by lane.  A seeded sample
stays in the band [lo, hi] when its s highest degrees sum to at most hi
and its s lowest to at least lo.  The highest sum to at most s times the
greatest, so every degree at most floor(hi/s) suffices for the first;
the lowest sum to at least s*t_lo, t_lo = ceil(lo/s), less the count of
degrees below each floor t <= t_lo (at most s per floor), so the second
holds when that deficit is at most the slack s*t_lo - lo: at once when no
degree is below t_lo, else after a walk down the floors that stops at
the first one no degree is below (``_clears_floors``).  One addition
tests a bound on every lane at once, setting a lane's spare top bit
exactly when it clears the bound (``_lane_keys``); the key of the next
floor down adds one unit per lane, and a floor's count is the lanes less
the top bits set.  A side of the band that no sum can leave gets a key
every lane passes.  Only a seeded sample these tests cannot keep in the
band reads its degrees out of the lane integer and sorts them, and the
tag is read only for a witness.

Every batch of cluster-pair checks (``maximal_reduced_graph``'s k^2
pairs, the partitioner's cycle pairs) goes through ``certify_pairs``.  It
takes a pair's kept deviation verdict from a ledger when
``reuse_deviation`` lets it stand, forks one helper per spare core to
sample the batch's fresh checks from the back, and still calls
``check_regular_pair`` for every fresh pair, in order, from the front.
At each check the caller takes the helper's certificate (one pickle on
the helper's pipe) if it has arrived, waits for it if the helper is
sampling that very check, and otherwise samples the check itself; a
helper stops at the first check the caller has reached, so the batch
balances itself however fast each process runs.  A check's draws depend
only on its own arguments and seed, never on the order or process it
runs in, so the certificates are the ones one process would sample.
"""

from __future__ import annotations

import math
import os
import random
import signal
import sys
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .graphs import (
    BipartiteGraph,
    GraphError,
    Side,
    VertexId,
    VertexSet,
    a_side_first,
    bit_flags,
    density,
    iter_bits,
)
from .ratmath import Rational, ceil_frac, frac, sqrt_upper

ENUMERATION_CAP = 1 << 22
SAMPLE_BUDGET_DEFAULT = 2000
# most further members whose neighbourhoods widen a seeded draw's short pool
_WIDEN_TRIES = 8
# lane width in bytes -> the memoryview format that reads one lane
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


class Strategy(str, Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sampled"


class Verdict(str, Enum):
    REGULAR = "certified-regular"
    IRREGULAR = "certified-irregular"
    DENSITY_BELOW = "density-below-threshold"
    SUPER_REGULAR = "certified-super-regular"
    SUPER_FAILED = "failed-super-regular"


@dataclass(frozen=True)
class RegularityParams:
    epsilon: Fraction
    d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", frac(self.epsilon))
        object.__setattr__(self, "d", frac(self.d))
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 0 <= self.d <= 1:
            raise ValueError(f"d must lie in [0, 1], got {self.d}")


@dataclass(frozen=True)
class DeviationWitness:
    subset_u: VertexSet
    subset_w: VertexSet
    witness_density: Fraction
    deviation: Fraction


@dataclass(frozen=True)
class PairCertificate:
    pair: tuple[VertexSet, VertexSet]
    params: RegularityParams
    verdict: Verdict
    base_density: Fraction
    witness: Optional[DeviationWitness]
    strategy: Strategy
    samples_used: int
    failing_vertex: Optional[VertexId] = None
    note: str = ""


class EnumerationCapExceeded(ValueError):
    pass


def min_subset_size(epsilon: Fraction, size: int) -> int:
    """Smallest subset cardinality satisfying |U'| >= epsilon*|U|."""
    return max(1, ceil_frac(epsilon * size))


def _only_full_subsets(epsilon: Fraction, U: VertexSet, W: VertexSet) -> bool:
    """Whether only the full pair qualifies as a subset pair at ``epsilon``:
    then every check of (U, W) is vacuous."""
    return min_subset_size(epsilon, U.size) >= U.size and min_subset_size(epsilon, W.size) >= W.size


def _mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def degree_at_least(adj: Sequence[int], members: int, partner: int, bound: Rational) -> int:
    """The members (bits over the rows of ``adj``) with at least ``bound``
    neighbours in ``partner``, as a mask.

    Every degree condition of the pipeline goes through here, on global
    rows or on a pair's local rows.  An integer degree meets a rational
    bound exactly when it meets its ceiling.
    """
    need = ceil_frac(frac(bound))
    return sum([1 << v for v in iter_bits(members) if (adj[v] & partner).bit_count() >= need])


def _regular_band(base: Fraction, eps: Fraction, denom: int) -> tuple[int, int]:
    """Edge counts e with |e/denom - base| <= eps, as the interval [lo, hi].

    With base = p/q and eps = a/b, multiplying through by denom*q*b gives
    |e*q*b - p*denom*b| <= a*denom*q, so both ends are exact integer
    divisions and a subset pair deviates exactly when its edge count lies
    outside the band (boundary equality stays inside).
    """
    centre = base.numerator * denom * eps.denominator
    radius = eps.numerator * denom * base.denominator
    scale = base.denominator * eps.denominator
    return -((radius - centre) // scale), (centre + radius) // scale


@lru_cache(maxsize=256)
def _pool_steps(n: int, k: int) -> Optional[tuple[tuple[int, int], ...]]:
    """``Random.sample``'s pool-branch steps for (n, k) as (last, bits):
    ``last`` is the highest index the step accepts and ``bits`` what it
    draws; None when it takes the set branch (n beyond a k-element set's
    table)."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize:
        return None
    return tuple((i - 1, i.bit_length()) for i in range(n, n - k, -1))


def _draw(getrandbits, population: Sequence, k: int) -> list:
    """``random.Random.sample(population, k)``, drawn with ``getrandbits`` alone.

    The same elements in the same order, leaving the generator in the same
    state: this transcribes CPython's pool branch (a population no larger
    than a k-element set's table) and set branch, with ``_randbelow``'s
    rejection loop inlined.  One draw is that loop alone in either branch,
    so ``_draw(getrandbits, seq, 1)[0]`` is what ``Random.choice(seq)``
    returns.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    if k == 1:
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        return [population[j]]
    steps = _pool_steps(n, k)
    result = []
    if steps is not None:
        pool = list(population)
        for last, bits in steps:
            j = getrandbits(bits)
            while j > last:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[last]
        return result
    bits = n.bit_length()
    selected = set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        result.append(population[j])
    return result


def _drawn_sum(getrandbits, population: Sequence[int], k: int, steps) -> int:
    """``sum(_draw(getrandbits, population, k))``, with the same generator
    calls; ``steps`` is ``_pool_steps(len(population), k)``.

    The pool branch is ``_draw``'s loop again, adding up what it draws
    instead of listing it (a check's hottest loop, so it keeps no list).
    """
    if steps is None:
        return sum(_draw(getrandbits, population, k))
    pool = list(population)
    total = 0
    for last, bits in steps:
        j = getrandbits(bits)
        while j > last:
            j = getrandbits(bits)
        total += pool[j]
        pool[j] = pool[last]
    return total


@lru_cache(maxsize=256)
def _shuffle_steps(n: int) -> tuple[tuple[int, int], ...]:
    """``Random.shuffle``'s steps for a list of n elements as (i, bits):
    step i swaps element i with one of 0..i, drawn with ``bits`` bits."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


def _shuffle(getrandbits, x: list) -> None:
    """``random.Random.shuffle(x)``, drawn with ``getrandbits`` alone.

    The same permutation, leaving the generator in the same state: CPython's
    loop with ``_randbelow``'s rejection loop inlined, as in ``_draw``, on
    steps (``_shuffle_steps``) fixed once per list length.
    """
    for i, bits in _shuffle_steps(len(x)):
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def _digit_reader(members: Sequence[int], universe: int):
    """Reads a row over a side of ``universe`` vertices at the (ascending,
    non-empty) members' positions: the local row's binary digits, last
    member first."""
    # bin(row | top) holds bit w at position universe + 2 - w
    top = 1 << universe
    pick = itemgetter(*[universe + 2 - w for w in reversed(members)])
    return lambda row: ''.join(pick(bin(row | top)))


def _local_row(row: int, members: Sequence[int], universe: int) -> int:
    """``row``, over a side of ``universe`` vertices, in the members' local
    coordinates: bit t is bit ``members[t]``.  Members are in ascending
    order, so local order is global order."""
    return int(_digit_reader(members, universe)(row), 2) if members else 0


def _pair_rows(G: BipartiteGraph, u_members: list[int], w_members: list[int]):
    """The pair's adjacency on local indices: ``rows_u[i]`` has bit j set
    when ``u_members[i]`` and ``w_members[j]`` are adjacent, and ``rows_w``
    is its transpose.  Members are in ascending order, so local order is
    global order."""
    if not u_members or not w_members:
        return [0] * len(u_members), [0] * len(w_members)
    read = _digit_reader(w_members, G.size_b)
    text = [read(G.adj_a[u]) for u in u_members]
    rows_u = [int(t, 2) for t in text]
    # column c of the text is bit len(w_members)-1-c of every U row
    rows_w = [int(''.join(col), 2) for col in zip(*reversed(text))]
    rows_w.reverse()
    return rows_u, rows_w


def _degree_lanes(cols: Sequence[int], n_members: int, most: int):
    """Partner columns as tagged lane integers, and where their tags start.

    Tagged lane integer j holds bit i of ``cols[j]`` (member i's adjacency
    to partner j) in lane i, a field wide enough for any degree up to
    ``most`` with its top bit to spare, and bit ``shift + j`` above the
    lanes.  A sum of distinct tagged lane integers therefore holds in lane
    i member i's degree into those partners, below the lane's top bit, and
    from bit ``shift`` on the partners' mask.  Returns the tagged lane
    integers, ``shift`` and the lane width in bits.
    """
    width = next(w for w in _LANE_FORMATS if most < 1 << 8 * w - 1)
    buf = bytearray(width * n_members)
    shift = 8 * width * n_members
    tagged = []
    for j, col in enumerate(cols):
        buf[::width] = bit_flags(col, n_members)
        tagged.append(int.from_bytes(buf, "little") | 1 << shift + j)
    return tagged, shift, 8 * width


def _lanes(x: int, shift: int, width: int) -> Sequence[int]:
    """The ``width``-bit lanes of ``x`` below bit ``shift``, as integers
    (one-byte lanes as bytes, which sort faster than a memoryview)."""
    raw = (x & (1 << shift) - 1).to_bytes(shift >> 3, sys.byteorder)
    return raw if width == 8 else memoryview(raw).cast(_LANE_FORMATS[width >> 3])


def _lane_keys(n_lanes: int, width: int, t_min: int, t_max: int) -> tuple[int, int, int]:
    """Keys that test every lane of a lane integer against [t_min, t_max].

    For ``n_lanes`` lanes ``width`` bits wide, each below its top bit, and
    H the top bit of every lane: adding K_min = sum(2^(width-1) - t_min)
    sets a lane's top bit exactly when the lane is at least t_min, and
    adding K_max = sum(2^(width-1) - 1 - t_max) exactly when it exceeds
    t_max, with no carry into the next lane.  So every lane of x lies in
    [t_min, t_max] exactly when ``(x + K_min) & H == H`` and
    ``not (x + K_max) & H``.  Bounds beyond what a lane holds are clamped
    (every lane passes them).  Returns (H, K_min, K_max).
    """
    half = 1 << width - 1
    t_min, t_max = max(t_min, 0), min(t_max, half - 1)
    unit = ((1 << width * n_lanes) - 1) // ((1 << width) - 1)
    return unit * half, unit * (half - t_min), unit * (half - 1 - t_max)


def _clears_floors(floor: int, top: int, n_lanes: int, width: int, slack: int) -> bool:
    """Whether a lane integer's s lowest lanes are sure to sum to at least
    lo, tested floor by floor on the lane integer itself.

    ``floor`` is the lane integer plus ``_lane_keys``' K_min for t_lo =
    ceil(lo/s), ``top`` its H, and ``slack`` is s*t_lo - lo.  With c_t the
    number of lanes below t, the s lowest lanes sum to exactly the sum over
    t >= 1 of s - min(s, c_t), so to at least s*t_lo minus the deficit, the
    sum of min(s, c_t) over t <= t_lo.  Adding one unit per lane to the key
    of floor t gives that of floor t - 1, and c_t is ``n_lanes`` less the
    top bits set; the walk down stops at the first floor no lane is below
    (c_t is 0 on every floor beneath it), and the lanes pass when the
    deficit is then at most the slack.  A floor with s or more lanes below
    it leaves the slack (below s) behind on its own, so the deficit here
    adds c_t uncapped.
    """
    unit = top >> width - 1
    deficit = 0
    while below := n_lanes - (floor & top).bit_count():
        deficit += below
        if deficit > slack:
            return False
        floor += unit
    return True


def _even_lanes(n_lanes: int, width: int) -> int:
    """The mask of every even lane of ``n_lanes`` lanes ``width`` bits wide.

    For x whose lanes are below 2^(width-1), ``(x & even) + (x >> width &
    even)`` holds each pair of lanes' sum in one lane twice as wide, with no
    carry, so its remainder modulo 2^(2*width) - 1 is x's lane sum whenever
    that sum is below the modulus."""
    pairs = (n_lanes + 1) // 2
    return ((1 << 2 * width * pairs) - 1) // ((1 << 2 * width) - 1) * ((1 << width) - 1)


def _extremal_members(rows: Sequence[int], mask: int, s: int, high: bool) -> int:
    """The s rows with fewest (or most) bits in mask, ties by index, as a mask."""
    degs = sorted([((r & mask).bit_count(), i) for i, r in enumerate(rows)])
    return sum([1 << i for _, i in (degs[-s:] if high else degs[:s])])


def _exhaustive_extremes(rows_u: list[int], rows_w: list[int], s_u: int, s_w: int):
    """Extremal subset edge counts over pairs at minimal qualifying sizes.

    Over all qualifying subset pairs the extreme densities are attained with
    both sides at minimal size: fixing one side of an extremal pair, the
    other side can be replaced by its most extreme minimal-size subset
    without reducing the deviation.  So enumerating one side at its minimal
    size and sorting the other side's degrees is a complete exact decision.
    Every candidate has s_u*s_w vertex pairs, so edge counts order them.
    Returns the highest and the lowest as (edge count, U mask, W mask) over
    the pair-local rows of ``_pair_rows``.
    """
    # enumerate the side with the smaller number of minimal-size subsets
    enum_w = math.comb(len(rows_w), s_w) <= math.comb(len(rows_u), s_u)
    opt_rows, s_opt = (rows_u, s_u) if enum_w else (rows_w, s_w)
    n_enum, s_enum = (len(rows_w), s_w) if enum_w else (len(rows_u), s_u)
    best_hi = None  # (edge count, opt mask, enum mask)
    best_lo = None
    for chosen in combinations([1 << j for j in range(n_enum)], s_enum):
        mask = sum(chosen)
        degs = sorted([(r & mask).bit_count() for r in opt_rows])
        lo = sum(degs[:s_opt])
        hi = sum(degs[-s_opt:])
        if best_lo is None or lo < best_lo[0]:
            best_lo = (lo, _extremal_members(opt_rows, mask, s_opt, False), mask)
        if best_hi is None or hi > best_hi[0]:
            best_hi = (hi, _extremal_members(opt_rows, mask, s_opt, True), mask)
    if enum_w:
        return [best_hi, best_lo]
    return [(e, enum_mask, opt_mask) for e, opt_mask, enum_mask in (best_hi, best_lo)]


def check_regular_pair(
    G: BipartiteGraph,
    U: VertexSet,
    W: VertexSet,
    params: RegularityParams,
    strategy: Strategy = Strategy.SAMPLED,
    budget: int = SAMPLE_BUDGET_DEFAULT,
    seed: int = 0,
) -> PairCertificate:
    """Certify or refute the subset-density condition for one pair.

    Sampled subsets have the minimal qualifying size (deviation witnesses
    concentrate there on planted instances).  Exhaustive mode refuses when
    the subsets it would enumerate exceed ``ENUMERATION_CAP``, and its
    verdicts are unconditional.
    """
    job = _job(U, W, params, strategy, budget, seed)
    cert = _claim(G, job) if _prefetched else None
    return cert if cert is not None else _check_pair(G, *job)


def _job(
    U: VertexSet,
    W: VertexSet,
    params: RegularityParams,
    strategy: Strategy = Strategy.SAMPLED,
    budget: int = SAMPLE_BUDGET_DEFAULT,
    seed: int = 0,
) -> tuple:
    """``check_regular_pair``'s arguments after G, normalised: the pair
    (A side first) and the strategy.  A sampled check with no samples to
    draw is refused: it would certify a pair it never looked at."""
    strategy = Strategy(strategy)
    if strategy is Strategy.SAMPLED and budget < 1:
        raise ValueError(f"a sampled check needs a budget of at least 1, got {budget}")
    U, W = a_side_first(U, W)
    return U, W, params, strategy, budget, seed


def _check_pair(
    G: BipartiteGraph,
    U: VertexSet,
    W: VertexSet,
    params: RegularityParams,
    strategy: Strategy,
    budget: int,
    seed: int,
) -> PairCertificate:
    """The body of ``check_regular_pair``, on a normalised ``_job``."""
    if not U or not W:
        raise GraphError("regularity check needs nonempty sets")
    base = density(G, U, W)
    if base < params.d:
        return PairCertificate(
            (U, W), params, Verdict.DENSITY_BELOW, base, None, strategy, 0,
            note=f"base density {base} below d={params.d}",
        )
    eps = params.epsilon
    if _only_full_subsets(eps, U, W):
        # only the full pair qualifies, and its deviation is zero
        return PairCertificate(
            (U, W), params, Verdict.REGULAR, base, None, strategy, 0,
            note="vacuous: only full subsets qualify at this epsilon",
        )

    s_u = min_subset_size(eps, U.size)
    s_w = min_subset_size(eps, W.size)
    # every tested subset pair has s_u*s_w vertex pairs, so a pair deviates
    # exactly when its edge count leaves [lo, hi]; rationals are built only
    # for the witness
    denom = s_u * s_w
    lo, hi = _regular_band(base, eps, denom)
    u_members = list(U.indices())
    w_members = list(W.indices())
    rows_u, rows_w = _pair_rows(G, u_members, w_members)

    def refuted(u_mask, w_mask, e, samples):
        # local masks back to global vertex sets
        val = Fraction(e, denom)
        wit = DeviationWitness(
            VertexSet.from_indices(Side.A, U.universe, [u_members[i] for i in iter_bits(u_mask)]),
            VertexSet.from_indices(Side.B, W.universe, [w_members[j] for j in iter_bits(w_mask)]),
            val, abs(val - base),
        )
        return PairCertificate((U, W), params, Verdict.IRREGULAR, base, wit, strategy, samples)

    if strategy is Strategy.EXHAUSTIVE:
        count = min(math.comb(U.size, s_u), math.comb(W.size, s_w))
        if count > ENUMERATION_CAP:
            raise EnumerationCapExceeded(
                f"{count} minimal-size subsets to enumerate exceed cap {ENUMERATION_CAP}"
            )
        for e, u_mask, w_mask in _exhaustive_extremes(rows_u, rows_w, s_u, s_w):
            if not lo <= e <= hi:
                return refuted(u_mask, w_mask, e, 0)
        return PairCertificate((U, W), params, Verdict.REGULAR, base, None, strategy, 0)

    # every draw below is from a sequence of the length and order of
    # u_members, w_members or a pool built from them, so the generator runs
    # as Random.choice/Random.sample on those lists would run it; subsets
    # are drawn by _drawn_sum, with steps computed once per check
    getrandbits = random.Random(seed).getrandbits
    nu, nw = len(rows_u), len(rows_w)
    # kind 1 draws partners from W and reads U's degrees, kind 3 the reverse
    tagged_w, shift_w, width_w = _degree_lanes(rows_w, nu, s_w)
    tagged_u, shift_u, width_u = _degree_lanes(rows_u, nw, s_u)
    # the s_m highest degrees sum to at most s_m*max, so with every degree
    # at most floor(hi/s_m) the high response stays in the band; the low one
    # does when every degree is at least t_lo = ceil(lo/s_m), or else when
    # the floors below t_lo clear it (_clears_floors, with slack s_m*t_lo -
    # lo): tests the keys make on the lane integer (a side of the band that
    # no sum can leave gets a key every lane passes)
    seeded = (
        (rows_u, nu.bit_length(), [None] * nu, tagged_w, shift_w, width_w,
         *_lane_keys(nu, width_w, -(-lo // s_u), hi // s_u), -lo % s_u, s_u, s_w),
        (rows_w, nw.bit_length(), [None] * nw, tagged_u, shift_u, width_u,
         *_lane_keys(nw, width_u, -(-lo // s_w), hi // s_w), -lo % s_w, s_w, s_u),
    )
    # uniform kinds draw U' as lane selectors (all ones in member i's lane
    # of the tagged W lanes, bit i tagged above W's tags) and W' as tagged
    # W lanes: the AND of the two sums holds each U' member's degree into W'
    sel_u = [(1 << width_w) - 1 << width_w * i | 1 << shift_w + nw + i for i in range(nu)]
    full_u, full_w = sum(sel_u), sum(tagged_w)
    steps_u, steps_w = _pool_steps(nu, s_u), _pool_steps(nw, s_w)
    # lane integers are congruent to their lane sum modulo 2^width - 1, so
    # that remainder is the edge count unless the count may exceed it; where
    # it may exceed it whatever the remainder, the count is read on lanes
    # twice as wide (_even_lanes), modulo 2^(2*width) - 1
    even, modulus = 0, (1 << width_w) - 1
    if denom >= 2 * modulus - 1:
        even, modulus = _even_lanes(nu, width_w), (1 << 2 * width_w) - 1
    for t in range(budget):
        kind = t & 3
        if not kind & 1:
            # uniform independent subset pair at minimal qualifying size
            us = full_u if s_u >= nu else _drawn_sum(getrandbits, sel_u, s_u, steps_u)
            ws = full_w if s_w >= nw else _drawn_sum(getrandbits, tagged_w, s_w, steps_w)
            lanes = us & ws
            e = ((lanes & even) + (lanes >> width_w & even) if even else lanes) % modulus
            if e + modulus <= denom:
                e = sum(_lanes(lanes, shift_w, width_w))
            if not lo <= e <= hi:
                return refuted(us >> shift_w + nw, ws >> shift_w, e, t + 1)
            continue
        # neighbourhood-seeded: kind 1 draws W' inside N(a) for a random a
        # in U and answers with U', an extremal response; kind 3 the reverse.
        # Uniform pairs concentrate at the base density, so structured
        # deviations (planted blocks) are found via seeded draws.
        (rows, bits, pools, tagged, shift, width, top, k_min, k_max, slack, s_m,
         s_p) = seeded[kind >> 1]
        # the seeding member: _draw(getrandbits, range(n), 1)[0]
        n = len(rows)
        v = getrandbits(bits)
        while v >= n:
            v = getrandbits(bits)
        entry = pools[v]
        if entry is None:
            nb = rows[v]
            if nb.bit_count() >= s_p:
                entry = pools[v] = _member_pool(tagged, nb, s_p)
            else:
                # fewer than s_p partners: widen by those of further random
                # members, so blocks smaller than the minimal subset size
                # are found; a draw that needs no widening makes no RNG call
                for _ in range(_WIDEN_TRIES):
                    nb |= _draw(getrandbits, rows, 1)[0]
                    if nb.bit_count() >= s_p:
                        break
                else:
                    continue
                entry = _member_pool(tagged, nb, s_p)
        total = _drawn_sum(getrandbits, entry[0], s_p, entry[1])
        if not (total + k_max) & top:
            floor = total + k_min
            if floor & top == top or _clears_floors(floor, top, n, width, slack):
                continue
        degs = sorted(_lanes(total, shift, width))
        for e, high in ((sum(degs[:s_m]), False), (sum(degs[-s_m:]), True)):
            if not lo <= e <= hi:
                mask = total >> shift
                response = _extremal_members(rows, mask, s_m, high)
                if kind == 1:
                    return refuted(response, mask, e, t + 1)
                return refuted(mask, response, e, t + 1)
    return PairCertificate((U, W), params, Verdict.REGULAR, base, None, strategy, budget)


def _member_pool(tagged: list[int], nb: int, k: int):
    """The tagged lane integers of the partners in ``nb``, ascending, and
    the pool-branch steps of drawing k of them (None: the set branch)."""
    pool = list(compress(tagged, bit_flags(nb, len(tagged))))
    return pool, _pool_steps(len(pool), k)


# ---------------------------------------------------------------------------
# certifying a batch of cluster pairs across cores
# ---------------------------------------------------------------------------

# The open batch's checks: each normalised ``_job`` -> (the helper that
# samples it unless the caller gets there first, its position in the
# batch).  Module state, because the caller's loop still reaches every
# check through ``check_regular_pair``; ``certify_pairs`` fills it and
# empties it on exit.
_prefetched: dict[tuple, tuple["_Helper", int]] = {}


def _claim(G: BipartiteGraph, job: tuple) -> Optional[PairCertificate]:
    """The certificate a helper sampled for ``job`` on G, or None when no
    helper has it (then the caller samples it itself)."""
    helper, position = _prefetched.pop(job, (None, 0))
    return helper.result(position) if helper is not None and helper.graph is G else None


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _board(slots: int) -> memoryview:
    """``slots`` signed 64-bit integers in memory that forked processes
    share, each -1."""
    import mmap  # only a process that forks needs it

    board = memoryview(mmap.mmap(-1, 8 * slots)).cast("q")
    for slot in range(slots):
        board[slot] = -1
    return board


class _Helper:
    """A forked process that samples the batch's checks at ``positions``,
    in that (descending) order, until the caller's position reaches the
    next one.  The ``board`` is shared memory: slot 0 holds the caller's
    position, and the helper writes each check's position to its ``slot``
    before sampling it.  Each certificate goes to the helper's pipe as soon
    as it is done, one frame per check: the length of a pickle of
    (position, certificate), then the pickle (certificate None when the
    check raised)."""

    def __init__(
        self, G: BipartiteGraph, jobs: list[tuple], positions: range, board: memoryview, slot: int
    ):
        import pickle  # only a process that forks needs it

        self.graph = G
        self.board = board
        self.slot = slot
        self.results: dict[int, Optional[PairCertificate]] = {}
        self.pending = bytearray()
        self.ended = False
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read)
                with open(write, "wb") as out:
                    for p in positions:
                        if board[0] >= p:
                            break  # the caller has got here: the rest are its own
                        board[slot] = p
                        try:
                            cert = _check_pair(G, *jobs[p])
                        except Exception:
                            # the parent samples this pair itself and meets the error
                            cert = None
                        frame = pickle.dumps((p, cert))
                        out.write(len(frame).to_bytes(4, "little") + frame)
                        out.flush()
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.fd = read

    def result(self, position: int) -> Optional[PairCertificate]:
        """The certificate of the batch's check ``position``, where the
        caller has got to: taken if it has arrived, waited for if the helper
        is sampling it, None otherwise (also when the check raised or the
        helper died before sending it)."""
        self.board[0] = position  # no helper starts a check at or before it now
        self._receive(wait=False)
        while position not in self.results and self.board[self.slot] == position and not self.ended:
            self._receive(wait=True)
        return self.results.pop(position, None)

    def _receive(self, wait: bool) -> None:
        """Take in every frame the helper has sent; with ``wait``, block
        until more arrives or the pipe closes."""
        import pickle

        os.set_blocking(self.fd, wait)
        try:
            # a frame is under 1 KB at n = 512; a larger read buffer only
            # raises the process's peak memory
            while chunk := os.read(self.fd, 4096):
                self.pending += chunk
                while len(self.pending) >= 4:
                    end = 4 + int.from_bytes(self.pending[:4], "little")
                    if len(self.pending) < end:
                        break
                    position, cert = pickle.loads(self.pending[4:end])
                    self.results[position] = cert
                    del self.pending[:end]
                if wait:
                    return
        except BlockingIOError:
            return
        self.ended = True

    def reap(self) -> None:
        """End the helper, whether or not it is done, and wait for it."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self.fd)


def certify_pairs(
    G: BipartiteGraph,
    part: ClusterPartition,
    pairs: Sequence[tuple[int, int, bool]],
    params: RegularityParams,
    budget: int,
    seed: int,
    known: DeviationLedger,
    source: str,
    strategy: Strategy = Strategy.SAMPLED,
    meanwhile: Optional[Callable[[ClusterPartition], object]] = None,
) -> list[PairCertificate]:
    """Certify each (A_i, B_j) of the (i, j, super_regular) ``pairs``, in
    order, deviation verdict first, on every core this process may use.

    A pair whose verdict in ``known`` ``reuse_deviation`` lets stand takes
    it, re-gated at ``params.d``, with a note naming where it was sampled.
    Every other pair is checked by ``check_regular_pair`` at ``strategy``
    with seed ``_mix_seed(seed, i, j)``, and its verdict enters ``known``
    under ``source``.  A regular pair's certificate is its verdict; a
    super-regular pair's adds the density and degree gates to it
    (``check_super_regular_pair``).

    A malformed check (no sample to draw, or an unknown strategy) raises
    before anything is forked.  With n distinct fresh checks, h = min(cores
    - 1, n - 1) helpers are forked; helper t (1 to h) samples positions
    n-t, n-t-h, ... (counting from 0) until the caller reaches one, and the
    caller samples whatever no helper sent, so a check that raised in a
    helper meets the same error here.  Without ``os.fork``, or with other
    threads running, nothing is forked; a failed fork leaves its share to
    the caller.  ``meanwhile``, when given, is called with ``part`` once the
    helpers are forked and before any pair is certified, so it runs while
    they sample.  Every helper is killed and reaped on return or error.
    """

    def kept(a, b):
        entry = known.get((a.bits, b.bits))
        reused = entry and reuse_deviation(entry[0], a, b, params, budget)
        if not reused:
            return None
        note = [f"deviation verdict reused from {entry[1]}", reused.note]
        return replace(reused, note="; ".join(filter(None, note)))

    checks = [
        (part.clusters_a[i], part.clusters_b[j], params, strategy, budget, _mix_seed(seed, i, j))
        for i, j, _ in pairs
    ]
    jobs = list(dict.fromkeys(_job(*args) for args in checks if not kept(*args[:2])))
    count = min(_cores() - 1, len(jobs) - 1)
    if count < 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        count = 0
    # slot 0: the caller's position in the batch; slot t: helper t's check
    board = _board(count + 1) if count else None
    helpers = []
    try:
        for t in range(1, count + 1):
            positions = range(len(jobs) - t, -1, -count)
            try:
                helper = _Helper(G, jobs, positions, board, t)
            except OSError:
                break  # no process to spare: the caller samples the rest itself
            helpers.append(helper)
            _prefetched.update((jobs[p], (helper, p)) for p in positions)
        if meanwhile is not None:
            meanwhile(part)
        certs = []
        for args, (_, _, super_regular) in zip(checks, pairs):
            a, b = args[:2]
            verdict = kept(a, b)
            if not verdict:
                verdict = check_regular_pair(G, *args)
                known[(a.bits, b.bits)] = (verdict, source)
            certs.append(check_super_regular_pair(G, verdict) if super_regular else verdict)
        return certs
    finally:
        _prefetched.clear()
        for helper in helpers:
            helper.reap()


# (A-side bits, B-side bits) -> (sampled certificate, where it was sampled)
DeviationLedger = dict[tuple[int, int], tuple[PairCertificate, str]]


def reuse_deviation(
    prior: Optional[PairCertificate],
    U: VertexSet,
    W: VertexSet,
    params: RegularityParams,
    budget: int,
) -> Optional[PairCertificate]:
    """The deviation verdict of ``prior`` standing in for a sampled check
    of (U, W) at ``params`` and ``budget``, re-gated at ``params.d``; None
    when it may not stand in.

    The deviation verdict depends only on the vertex sets, epsilon and the
    samples drawn, so a sampled prior on the same sets at the same epsilon
    stands when it is irregular (its witness is an exact refutation), when
    it found no witness in at least ``budget`` samples, or when it is
    vacuous (only the full sets qualify, so it depends on their sizes and
    epsilon alone).
    """
    if (
        prior is None
        or prior.pair != a_side_first(U, W)
        or prior.params.epsilon != params.epsilon
        or prior.strategy is not Strategy.SAMPLED
    ):
        return None
    if prior.verdict is Verdict.IRREGULAR or (
        prior.verdict is Verdict.REGULAR
        and (prior.samples_used >= budget or _only_full_subsets(params.epsilon, U, W))
    ):
        return _restamp(prior, params)
    return None


def check_super_regular_pair(G: BipartiteGraph, deviation: PairCertificate) -> PairCertificate:
    """The super-regularity verdict on the pair of ``deviation``, a
    deviation certificate (from ``check_regular_pair``, or one that
    ``reuse_deviation`` let stand).

    It keeps that certificate's sets, params, strategy and base density,
    and adds the density gate and the degree gate (exact: every vertex has
    at least d|partner| neighbours in the partner side), in that order,
    before the deviation verdict.  Nothing is sampled.
    """
    if deviation.verdict not in (Verdict.REGULAR, Verdict.IRREGULAR, Verdict.DENSITY_BELOW):
        raise ValueError(f"a {deviation.verdict.value} certificate is not a deviation verdict")
    U, W = deviation.pair
    d, base = deviation.params.d, deviation.base_density

    def failed(**fields):
        return replace(deviation, verdict=Verdict.SUPER_FAILED, witness=None, samples_used=0,
                       **fields)

    if base < d:
        return failed(note=f"base density {base} below d={d}")
    for X, Y, adj in ((U, W, G.adj_a), (W, U, G.adj_b)):
        thr = d * Y.size
        low = X.bits & ~degree_at_least(adj, X.bits, Y.bits, thr)
        if low:
            return failed(failing_vertex=VertexId(X.side, next(iter_bits(low))),
                          note=f"degree below {thr} into partner")
    if deviation.verdict is Verdict.REGULAR:
        return replace(deviation, verdict=Verdict.SUPER_REGULAR)
    return replace(
        deviation, verdict=Verdict.SUPER_FAILED,
        note="; ".join(filter(None, ["regularity failed", deviation.note])),
    )


def rebound_after_perturbation(
    params: RegularityParams, alpha: Rational, beta: Rational
) -> RegularityParams:
    """Regularity parameters surviving a relative perturbation of the pair.

    Moving an alpha-fraction in/out of one cluster and a beta-fraction of
    the other weakens (eps, d) to (eps + 3(sqrt(alpha) + sqrt(beta)),
    d - 2(alpha + beta)); epsilon is capped at 1 and d floored at 0.
    Square roots are exact for perfect squares, otherwise rounded up so the
    returned epsilon is never optimistic.
    """
    a = frac(alpha)
    b = frac(beta)
    if a < 0 or b < 0:
        raise ValueError("perturbation fractions must be nonnegative")
    eps = params.epsilon + 3 * (sqrt_upper(a) + sqrt_upper(b))
    d = params.d - 2 * (a + b)
    return RegularityParams(min(eps, Fraction(1)), max(d, Fraction(0)))


# ---------------------------------------------------------------------------
# cluster partitions and reduced graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterPartition:
    clusters_a: tuple[VertexSet, ...]
    clusters_b: tuple[VertexSet, ...]
    exceptional_a: VertexSet
    exceptional_b: VertexSet

    @property
    def k(self) -> int:
        return len(self.clusters_a)

    def __post_init__(self):
        if len(self.clusters_a) != len(self.clusters_b):
            raise GraphError("cluster counts differ between sides")

    def sizes_a(self) -> list[int]:
        return [c.size for c in self.clusters_a]

    def sizes_b(self) -> list[int]:
        return [c.size for c in self.clusters_b]

    def validate(self, G: BipartiteGraph) -> None:
        for side, groups, exc, size in (
            (Side.A, self.clusters_a, self.exceptional_a, G.size_a),
            (Side.B, self.clusters_b, self.exceptional_b, G.size_b),
        ):
            total = exc.bits
            count = exc.size
            for c in groups:
                if c.side is not side or c.universe != size:
                    raise GraphError("cluster on wrong side or universe")
                total |= c.bits
                count += c.size
            if count != size or total != (1 << size) - 1:
                raise GraphError(f"{side.value}-side clusters do not partition the side")

    @classmethod
    def from_masks(
        cls,
        G: BipartiteGraph,
        masks_a: Iterable[int],
        masks_b: Iterable[int],
        exceptional_a: int = 0,
        exceptional_b: int = 0,
    ) -> "ClusterPartition":
        """Clusters and exceptional sets of G's two sides, given as bitmasks."""
        return cls(
            tuple(VertexSet(Side.A, G.size_a, m) for m in masks_a),
            tuple(VertexSet(Side.B, G.size_b, m) for m in masks_b),
            VertexSet(Side.A, G.size_a, exceptional_a),
            VertexSet(Side.B, G.size_b, exceptional_b),
        )


@dataclass(frozen=True)
class ReducedGraph:
    """Bipartite graph on cluster indices; edges mark certified regular pairs."""

    k: int
    edges: frozenset[tuple[int, int]]
    params: RegularityParams
    certificates: Mapping[tuple[int, int], PairCertificate] = field(
        default_factory=dict, compare=False, hash=False
    )


def random_equipartition(G: BipartiteGraph, k: int, rng: random.Random) -> ClusterPartition:
    """Seeded equitable partition; the n mod k leftovers per side go exceptional."""
    if k < 1 or k > min(G.size_a, G.size_b):
        raise GraphError(f"cannot cut sides of {G.size_a}+{G.size_b} into {k} clusters")

    def cut(size: int) -> tuple[list[int], int]:
        order = list(range(size))
        rng.shuffle(order)
        L = size // k
        return [_mask(order[i * L : (i + 1) * L]) for i in range(k)], _mask(order[k * L :])

    clusters_a, exceptional_a = cut(G.size_a)
    clusters_b, exceptional_b = cut(G.size_b)
    return ClusterPartition.from_masks(G, clusters_a, clusters_b, exceptional_a, exceptional_b)


def _restamp(cert: PairCertificate, params: RegularityParams) -> PairCertificate:
    """Re-evaluate a deviation-only certificate against a density threshold.

    The deviation verdict is unaffected by d, so only the density gate moves.
    """
    if cert.base_density < params.d:
        return replace(
            cert, params=params, verdict=Verdict.DENSITY_BELOW, witness=None,
            note=f"base density {cert.base_density} below d={params.d}",
        )
    return replace(cert, params=params)


def maximal_reduced_graph(
    G: BipartiteGraph,
    partition: ClusterPartition,
    params: RegularityParams,
    strategy: Strategy = Strategy.SAMPLED,
    budget: int = SAMPLE_BUDGET_DEFAULT,
    seed: int = 0,
) -> ReducedGraph:
    """Edge (i, j) present iff (A_i, B_j) certifies regular with density >= d."""
    k = partition.k
    pairs = [(i, j, False) for i in range(k) for j in range(k)]
    certs = certify_pairs(
        G, partition, pairs, params, budget, seed, {}, "the reduced graph", strategy
    )
    return _reduced_graph(k, {(i, j): c for (i, j, _), c in zip(pairs, certs)}, params)


def _reduced_graph(
    k: int, certs: Mapping[tuple[int, int], PairCertificate], params: RegularityParams
) -> ReducedGraph:
    edges = frozenset(key for key, c in certs.items() if c.verdict is Verdict.REGULAR)
    return ReducedGraph(k, edges, params, certs)


def _mix_seed(seed: int, *parts: int) -> int:
    h = seed & 0xFFFFFFFF
    for p in parts:
        h = (h * 1000003 ^ (p + 0x9E3779B9)) & 0xFFFFFFFF
    return h


# ---------------------------------------------------------------------------
# witness-driven partition builder
# ---------------------------------------------------------------------------


@dataclass
class PartitionBuildResult:
    partition: ClusterPartition
    reduced: ReducedGraph
    fraction_regular: Fraction
    rounds: int
    k: int


class PartitionBuildError(RuntimeError):
    def __init__(self, message: str, best: Optional[PartitionBuildResult]):
        super().__init__(message)
        self.best = best


def _split_cluster_by_witness(
    G: BipartiteGraph,
    cluster: VertexSet,
    partner_bits: int,
    high_first: bool,
) -> tuple[list[int], list[int]]:
    adj = G.adj_a if cluster.side is Side.A else G.adj_b
    members = sorted(
        cluster.indices(),
        key=lambda m: (-(adj[m] & partner_bits).bit_count() if high_first
                       else (adj[m] & partner_bits).bit_count(), m),
    )
    half = (len(members) + 1) // 2
    return members[:half], members[half:]


def _split_cluster_randomly(cluster: VertexSet, rng: random.Random) -> tuple[list[int], list[int]]:
    members = list(cluster.indices())
    rng.shuffle(members)
    half = (len(members) + 1) // 2
    return members[:half], members[half:]


def _piece_profiles(G: BipartiteGraph, pieces: list[list[int]], side: Side,
                    opposite_pieces: list[list[int]]) -> list[list[float]]:
    adj = G.adj_a if side is Side.A else G.adj_b
    opp_masks = [(_mask(q), len(q)) for q in opposite_pieces]
    profiles = []
    for p in pieces:
        row = []
        for m, qlen in opp_masks:
            e = sum((adj[v] & m).bit_count() for v in p)
            row.append(e / (len(p) * qlen) if p and qlen else 0.0)
        profiles.append(row)
    return profiles


def _pair_pieces_by_similarity(profiles: list[list[float]]) -> list[tuple[int, int]]:
    n = len(profiles)
    scored = []
    for p in range(n):
        for q in range(p + 1, n):
            dist = sum((a - b) ** 2 for a, b in zip(profiles[p], profiles[q]))
            scored.append((dist, p, q))
    scored.sort()
    used = [False] * n
    pairs = []
    for _, p, q in scored:
        if not used[p] and not used[q]:
            used[p] = used[q] = True
            pairs.append((p, q))
    return pairs


def _trimmed_partition(
    G: BipartiteGraph,
    masks_a: list[int],
    masks_b: list[int],
    exceptional_a: int,
    exceptional_b: int,
) -> ClusterPartition:
    """The partition whose clusters keep the lowest members of the given
    masks, as many as the smallest mask has; the rest join the exceptional
    sets."""
    target = min(m.bit_count() for m in masks_a + masks_b)
    exceptional = [exceptional_a, exceptional_b]
    kept: tuple[list[int], list[int]] = ([], [])
    for side, masks in enumerate((masks_a, masks_b)):
        for m in masks:
            for _ in range(m.bit_count() - target):
                top = 1 << (m.bit_length() - 1)
                m ^= top
                exceptional[side] |= top
            kept[side].append(m)
    return ClusterPartition.from_masks(G, *kept, *exceptional)


MAX_ROUNDS = 40
REGROUP_STALL = 2


def build_regular_partition(
    G: BipartiteGraph,
    params: RegularityParams,
    k0: int,
    kmax: int,
    strategy: Strategy = Strategy.SAMPLED,
    budget: int = SAMPLE_BUDGET_DEFAULT,
    seed: int = 0,
) -> PartitionBuildResult:
    """Witness-driven refinement towards a partition regular on most pairs.

    Starting from a seeded random equipartition with k0 clusters per side,
    each round certifies all k^2 cross pairs at the deviation-only threshold
    (d plays no role while building; the returned reduced graph applies it).
    Rounds that fall short split every cluster in half along the most
    deviating witness direction and regroup the halves by neighbourhood
    similarity at the same k; when regrouping stalls for ``REGROUP_STALL``
    rounds, k doubles instead, up to kmax.  At most ``MAX_ROUNDS`` rounds run.
    """
    if not G.is_balanced:
        raise GraphError("partition builder expects a balanced graph")
    if G.size_a < kmax:
        raise GraphError(f"side size {G.size_a} below kmax={kmax}")
    if not 1 <= k0 <= kmax:
        raise GraphError(f"need 1 <= k0 <= kmax, got {k0}, {kmax}")
    rng = random.Random(seed)
    deviation_only = RegularityParams(params.epsilon, Fraction(0))
    part = random_equipartition(G, k0, rng)
    k = k0
    best: Optional[PartitionBuildResult] = None
    best_frac_at_k: Optional[Fraction] = None
    stall = 0
    for round_no in range(MAX_ROUNDS):
        checked = maximal_reduced_graph(
            G, part, deviation_only, strategy, budget, _mix_seed(seed, round_no)
        )
        certs = checked.certificates
        fraction = Fraction(len(checked.edges), k * k)
        # d plays no role in the deviation verdicts, so the reduced graph
        # only re-applies the density gate to this round's certificates
        reduced = _reduced_graph(
            k, {key: _restamp(c, params) for key, c in certs.items()}, params
        )
        candidate = PartitionBuildResult(part, reduced, fraction, round_no + 1, k)
        if best is None or fraction > best.fraction_regular:
            best = candidate
        if fraction >= 1 - params.epsilon:
            _check_exceptional_budget(G, part, params.epsilon)
            return candidate

        # split every cluster into witness-guided (or random) halves
        pieces: dict[Side, list[list[int]]] = {Side.A: [], Side.B: []}
        for side, clusters in ((Side.A, part.clusters_a), (Side.B, part.clusters_b)):
            for idx, cluster in enumerate(clusters):
                incident = [
                    c for key, c in certs.items()
                    if c.verdict is Verdict.IRREGULAR
                    and key[0 if side is Side.A else 1] == idx
                ]
                if incident:
                    cert = max(incident, key=lambda c: c.witness.deviation)
                    wit = cert.witness
                    partner = wit.subset_w if side is Side.A else wit.subset_u
                    high_first = wit.witness_density > cert.base_density
                    p1, p2 = _split_cluster_by_witness(G, cluster, partner.bits, high_first)
                else:
                    p1, p2 = _split_cluster_randomly(cluster, rng)
                pieces[side].append(p1)
                pieces[side].append(p2)

        if best_frac_at_k is not None and fraction <= best_frac_at_k:
            stall += 1
        else:
            stall = 0
            best_frac_at_k = fraction

        if stall >= REGROUP_STALL:
            if 2 * k > kmax:
                raise PartitionBuildError(
                    f"certification threshold unreached and 2k={2 * k} exceeds kmax={kmax}",
                    best,
                )
            groups = {side: list(map(_mask, pieces[side])) for side in (Side.A, Side.B)}
            k = 2 * k
            stall = 0
            best_frac_at_k = None
        else:
            groups = {}
            for side in (Side.A, Side.B):
                profiles = _piece_profiles(
                    G, pieces[side], side, pieces[side.opposite()]
                )
                groups[side] = [
                    _mask(pieces[side][p] + pieces[side][q])
                    for p, q in _pair_pieces_by_similarity(profiles)
                ]
        part = _trimmed_partition(
            G, groups[Side.A], groups[Side.B], part.exceptional_a.bits, part.exceptional_b.bits
        )
    raise PartitionBuildError(f"no certified partition within {MAX_ROUNDS} rounds", best)


def _check_exceptional_budget(G: BipartiteGraph, part: ClusterPartition, eps: Fraction) -> None:
    bound = eps * G.size_a
    if part.exceptional_a.size > bound or part.exceptional_b.size > bound:
        raise PartitionBuildError(
            f"exceptional sets exceed {eps}*n = {bound} "
            f"({part.exceptional_a.size}, {part.exceptional_b.size})",
            None,
        )


# ---------------------------------------------------------------------------
# super-regularisation on a bounded-degree subgraph of the reduced graph
# ---------------------------------------------------------------------------


@dataclass
class SuperRegularizeResult:
    partition: ClusterPartition
    moved_a: dict[int, list[int]]
    moved_b: dict[int, list[int]]


def super_regularize(
    G: BipartiteGraph,
    partition: ClusterPartition,
    rstar_edges: Iterable[tuple[int, int]],
    params: RegularityParams,
) -> SuperRegularizeResult:
    """Move low-degree vertices of each listed pair to the exceptional sets.

    For every edge (i, j) of the subgraph, which has maximum degree 2 (the
    cluster cycle), vertices of A_i with fewer than (d - eps)|B_j|
    neighbours in B_j (and symmetrically in B_j) leave their cluster;
    clusters are then trimmed to a common size.  Only degrees are cleaned:
    the pairs are not certified here, and the exceptional sets are not
    bounded here either.
    """
    edges = sorted(set(rstar_edges))
    k = partition.k
    deg_a = [0] * k
    deg_b = [0] * k
    for i, j in edges:
        if not (0 <= i < k and 0 <= j < k):
            raise GraphError(f"pair index {(i, j)} out of range for k={k}")
        deg_a[i] += 1
        deg_b[j] += 1
    if edges and max(max(deg_a), max(deg_b)) > 2:
        raise GraphError("subgraph max degree exceeds 2")

    bad_a = [0] * k
    bad_b = [0] * k
    floor = params.d - params.epsilon
    for i, j in edges:
        A_i, B_j = partition.clusters_a[i], partition.clusters_b[j]
        bad_a[i] |= A_i.bits & ~degree_at_least(G.adj_a, A_i.bits, B_j.bits, floor * B_j.size)
        bad_b[j] |= B_j.bits & ~degree_at_least(G.adj_b, B_j.bits, A_i.bits, floor * A_i.size)

    # each bad mask lies inside its own cluster, so their sum is their union
    cleaned = _trimmed_partition(
        G,
        [c.bits & ~bad for c, bad in zip(partition.clusters_a, bad_a)],
        [c.bits & ~bad for c, bad in zip(partition.clusters_b, bad_b)],
        partition.exceptional_a.bits | sum(bad_a),
        partition.exceptional_b.bits | sum(bad_b),
    )
    return SuperRegularizeResult(
        cleaned,
        {i: list(iter_bits(bad)) for i, bad in enumerate(bad_a)},
        {j: list(iter_bits(bad)) for j, bad in enumerate(bad_b)},
    )
