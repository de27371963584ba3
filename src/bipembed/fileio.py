"""Flat-file formats and JSON artifact serialization.

Graph files (".bg"): first significant line ``bipartite <nA> <nB> <m>``,
then m lines ``<a> <b>`` with 0-based A-index then B-index; ``#`` starts a
comment; duplicate edges are a parse error.  Labelling files hold one
global vertex id per line, a permutation of 0..2n-1, where even ids are
A-side (id 2i = A_i) and odd ids are B-side (id 2j+1 = B_j).

JSON artifacts carry a ``kind`` tag and print rationals exactly as
"p/q" strings.  Writers sort everything they emit, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Iterator

from .graphs import BipartiteGraph, GraphError, Side, VertexId, iter_bits, vertex_id
from .hamilton import HamiltonCycle
from .homomorphism import BandwidthLabelling, CycleHomomorphism, bandwidth_labelling
from .embedder import Embedding


class FileFormatError(ValueError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def global_id(v: VertexId) -> int:
    return 2 * v.index if v.side is Side.A else 2 * v.index + 1


def from_global_id(g: int) -> VertexId:
    return vertex_id(Side.B if g % 2 else Side.A, g // 2)


# ---------------------------------------------------------------------------
# .bg graph files
# ---------------------------------------------------------------------------


def write_graph(path: str, G: BipartiteGraph) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(f"bipartite {G.size_a} {G.size_b} {G.edge_count}\n")
        # row by row, each row's edges ascending: the sorted edge list
        ends = [f"{b}\n" for b in range(G.size_b)]
        for a, row in enumerate(G.adj_a):
            if row:
                head = f"{a} "
                f.write(head + head.join([ends[b] for b in iter_bits(row)]))


def read_graph(path: str) -> BipartiteGraph:
    """Parse a .bg file.

    A canonical file, byte for byte what ``write_graph`` writes, is read in
    bounded chunks straight into bitset rows; anything else, including a
    canonical-looking file with a fault, goes through the line scan, so
    every error carries the same line number and message either way.
    """
    g = _read_canonical_graph(path)
    return g if g is not None else _read_graph_lines(path)


_CHUNK = 1 << 18


def _read_canonical_graph(path: str) -> BipartiteGraph | None:
    """The graph of a canonical, fault-free file, else None.

    A canonical file is ``bipartite nA nB m`` and then m distinct lines
    ``a b`` of plain decimals in range, every line ended by one newline.
    Tokens decode through tables of the canonical strings, so a sign, a
    leading zero, ``_`` or an index out of range misses; duplicates and a
    wrong count show in the byte count of the nA*nB edge buffer, which is
    only allocated when the file is at least that long.
    """
    with open(path, "rb") as f:
        header = f.readline()
        parts = header.split(b" ")
        if len(parts) != 4 or parts[0] != b"bipartite":
            return None
        try:
            na, nb, m = map(int, parts[1:])
        except ValueError:
            return None
        if (
            header != b"bipartite %d %d %d\n" % (na, nb, m)
            or min(na, nb) < 0
            or na * nb > os.fstat(f.fileno()).st_size
        ):
            return None
        row_at = {b"%d" % a: a * nb for a in range(na)}
        col_at = {b"%d" % b: b for b in range(nb)}
        flat = bytearray(na * nb)
        lines = 0
        rest = b""
        while block := f.read(_CHUNK):
            block = rest + block
            cut = block.rfind(b"\n") + 1
            if not cut:
                return None
            data, rest = block[:cut], block[cut:]
            count = data.count(b"\n")
            tokens = data.split()
            # digits aside, the chunk is " \n" repeated, and no token is
            # empty: exactly `count` lines "x y"
            if len(tokens) != 2 * count or data.translate(None, b"0123456789") != b" \n" * count:
                return None
            pair = iter(tokens)
            try:
                for a, b in zip(pair, pair):
                    flat[row_at[a] + col_at[b]] = 1
            except KeyError:
                return None
            lines += count
    if rest or lines != m or flat.count(1) != m:
        return None
    return BipartiteGraph._from_flat(na, nb, flat)


def significant_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line left non-empty once its ``#``
    comment and surrounding white space are removed."""
    with open(path) as f:
        for no, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield no, line


def _read_graph_lines(path: str) -> BipartiteGraph:
    """The line scan: any .bg file, each edge set straight into its bit rows."""
    lines = significant_lines(path)
    no, line = next(lines, (0, ""))
    if not line:
        raise FileFormatError(path, 0, "empty graph file")
    parts = line.split()
    if len(parts) != 4 or parts[0] != "bipartite":
        raise FileFormatError(path, no, "expected 'bipartite <nA> <nB> <m>'")
    try:
        na, nb, expected = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise FileFormatError(path, no, "non-integer header field") from None
    adj_a = [0] * na
    adj_b = [0] * nb
    count = 0
    for no, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError(path, no, "expected '<a> <b>'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise FileFormatError(path, no, "non-integer edge endpoint") from None
        if not (0 <= a < na and 0 <= b < nb):
            raise FileFormatError(path, no, f"edge ({a},{b}) out of range")
        if adj_a[a] >> b & 1:
            raise FileFormatError(path, no, f"duplicate edge ({a},{b})")
        adj_a[a] |= 1 << b
        adj_b[b] |= 1 << a
        count += 1
    if count != expected:
        raise FileFormatError(path, 0, f"edge count {count} != declared {expected}")
    if na < 0 or nb < 0:
        raise GraphError("negative side size")
    return BipartiteGraph(na, nb, adj_a, adj_b)


# ---------------------------------------------------------------------------
# labelling files
# ---------------------------------------------------------------------------


def write_labelling(path: str, lab: BandwidthLabelling) -> None:
    lines = [
        "# labelling: line t holds the global id of the vertex at position t",
        "# global id 2i = A-side vertex i, 2j+1 = B-side vertex j",
    ]
    for v in lab.order:
        lines.append(str(global_id(v)))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_labelling(path: str, H: BipartiteGraph) -> BandwidthLabelling:
    ids: list[int] = []
    for no, line in significant_lines(path):
        try:
            ids.append(int(line))
        except ValueError:
            raise FileFormatError(path, no, "non-integer vertex id") from None
    total = H.size_a + H.size_b
    if sorted(ids) != list(range(total)):
        raise FileFormatError(path, 0, f"not a permutation of 0..{total - 1}")
    return bandwidth_labelling(H, "given", [from_global_id(g) for g in ids])


# ---------------------------------------------------------------------------
# JSON artifacts
# ---------------------------------------------------------------------------


def rational_str(x) -> str:
    return str(Fraction(x))


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def read_json(path: str) -> dict:
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise FileFormatError(path, e.lineno, e.msg) from None


def _int(value) -> bool:
    return type(value) is int  # JSON true and false are not integers here


def _ints(value) -> bool:
    return isinstance(value, list) and all(map(_int, value))


def _int_pairs(value) -> bool:
    return isinstance(value, list) and all(_ints(p) and len(p) == 2 for p in value)


def _fields(data, kind: str, **checks) -> list:
    """The named fields of an artifact of the given kind, in order; a wrong
    kind, or a field its check rejects, is a :class:`ValueError`."""
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise ValueError(f"artifact kind is not {kind!r}")
    for key, ok in checks.items():
        if not ok(data.get(key)):
            raise ValueError(f"{kind!r} artifact: field {key!r} is missing or malformed")
    return [data[key] for key in checks]


def embedding_to_json(emb: Embedding) -> dict:
    pairs = sorted(
        (global_id(h), global_id(g)) for h, g in emb.mapping.items()
    )
    return {"kind": "embedding", "pairs": [list(p) for p in pairs]}


def embedding_from_json(data: dict) -> Embedding:
    (pairs,) = _fields(data, "embedding", pairs=_int_pairs)
    mapping = {from_global_id(h): from_global_id(g) for h, g in pairs}
    if len(mapping) != len(pairs):
        raise ValueError("'embedding' artifact: a target vertex is listed twice")
    return Embedding(mapping)


def cycle_to_json(cycle: HamiltonCycle) -> dict:
    return {"kind": "hamilton-cycle", "order": [global_id(v) for v in cycle.order]}


def cycle_from_json(data: dict) -> HamiltonCycle:
    (order,) = _fields(data, "hamilton-cycle", order=_ints)
    return HamiltonCycle(tuple(map(from_global_id, order)))


def homomorphism_to_json(hom: CycleHomomorphism) -> dict:
    return {
        "kind": "cycle-homomorphism",
        "k": hom.k,
        "beta_n": hom.beta_n,
        "phi": list(hom.phi),
        "cluster_of_x": list(hom.cluster_of_x),
        "cluster_of_y": list(hom.cluster_of_y),
        "linking": sorted(global_id(v) for v in hom.linking),
        # written for readers; the reader counts them from the cluster maps
        "preimage_a": list(hom.preimage_a),
        "preimage_b": list(hom.preimage_b),
    }


def homomorphism_from_json(data: dict) -> CycleHomomorphism:
    k, beta_n, phi, cx, cy, linking = _fields(
        data, "cycle-homomorphism", k=lambda k: _int(k) and k > 0, beta_n=_int, phi=_ints,
        cluster_of_x=_ints, cluster_of_y=_ints, linking=_ints,
    )
    return CycleHomomorphism(
        k, tuple(cx), tuple(cy), frozenset(map(from_global_id, linking)), beta_n, tuple(phi)
    )


def run_report_to_json(report) -> dict:
    # stage timings are deliberately omitted so identical seeded runs
    # serialize byte-identically
    return {
        "kind": "run-report",
        "seed": report.seed,
        "verdict": report.verdict,
        "stages": [
            {"stage": s.stage, "ok": s.ok, "detail": s.detail} for s in report.stages
        ],
    }
