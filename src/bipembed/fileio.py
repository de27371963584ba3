"""Flat-file formats and JSON artifact serialization.

Graph files (".bg"): first significant line ``bipartite <nA> <nB> <m>``,
then m lines ``<a> <b>`` with 0-based A-index then B-index; ``#`` starts a
comment; duplicate edges are a parse error, and so is a side of more than
``MAX_SIDE`` vertices.  ``write_graph`` puts a row index after the header,
one comment ``# <hex>`` per A-vertex, when the file it writes holds at
least nA*nB bytes (the index path builds an nA*nB-byte buffer and declines
a smaller file, so a sparse graph is written without one).  ``read_graph``
uses the index only when the edge lines are the ones it gives, so a reader
that skips comments reads the same graph.  Labelling files hold one global
vertex id per line, a permutation of 0..2n-1, where even ids are A-side
(id 2i = A_i) and odd ids are B-side (id 2j+1 = B_j).

JSON artifacts carry a ``kind`` tag and print rationals exactly as
"p/q" strings.  Writers sort everything they emit, so identical inputs
produce byte-identical files.

Of the package, importing this module loads only ``graphs``: the three
readers that build a labelling, a Hamilton cycle or a cycle homomorphism
import ``homomorphism`` or ``hamilton`` when they run, so reading and
writing graphs and embeddings (all that ``bipembed verify --embedding``
does here) loads neither.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator

from .graphs import BipartiteGraph, Embedding, Side, VertexId, bit_flags, vertex_id

if TYPE_CHECKING:
    from .hamilton import HamiltonCycle
    from .homomorphism import BandwidthLabelling, CycleHomomorphism


# the most vertices a side of a .bg file may declare
MAX_SIDE = 1 << 20


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


def _edge_lines(rows: Iterable[int], nb: int) -> Iterator[str]:
    """Each row's edge lines ``a b``, b ascending: together, the sorted edge list."""
    ends = [f"{b}\n" for b in range(nb)]
    for a, row in enumerate(rows):
        head = f"{a} "
        yield head + head.join(compress(ends, bit_flags(row, row.bit_length()))) if row else ""


def write_graph(path: str, G: BipartiteGraph) -> None:
    """Write G as a .bg file, with the row index only when ``read_graph``
    would use it: when the file holds at least nA*nB bytes."""
    header = f"bipartite {G.size_a} {G.size_b} {G.edge_count}\n"
    index = "".join([f"# {row:x}\n" for row in G.adj_a])
    # an edge line "a b\n" holds a's digits, b's digits and two more bytes
    size = len(header) + len(index) + sum(
        row.bit_count() * (len(str(a)) + 2) for a, row in enumerate(G.adj_a)
    ) + sum(col.bit_count() * len(str(b)) for b, col in enumerate(G.adj_b))
    with open(path, "w", newline="\n") as f:
        f.write(header + (index if size >= max(G.size_a, 1) * max(G.size_b, 1) else ""))
        f.writelines(_edge_lines(G.adj_a, G.size_b))


def read_graph(path: str) -> BipartiteGraph:
    """Parse a .bg file: from its row index if it is byte for byte what
    ``write_graph`` writes, else by the line scan, which gives every error."""
    g = _read_indexed_graph(path)
    return g if g is not None else _read_graph_lines(path)


def _read_indexed_graph(path: str) -> BipartiteGraph | None:
    """The graph of a file exactly as ``write_graph`` writes it, else None.

    The index rows must be canonical lowercase hex below 2**nB, and each
    row's edge lines are regenerated and compared with a read of their
    length, so the index never decides which graph a file holds.  No buffer
    outgrows the file: a header whose nA*nB passes its size goes to the line scan.
    """
    with open(path, "rb") as f:
        header = f.readline()
        try:
            na, nb, m = map(int, header.split(b" ")[1:])
        except ValueError:
            return None
        if (
            header != b"bipartite %d %d %d\n" % (na, nb, m)
            or min(na, nb) < 0
            or max(na, 1) * max(nb, 1) > os.fstat(f.fileno()).st_size
        ):
            return None
        rows = []
        for _ in range(na):
            line = f.readline()
            try:
                row = int(line[2:], 16)
            except ValueError:
                return None
            # the round trip rejects case, "+", "0x", zeros, "_" and white
            # space; a negative row shifts to -1, so the shift rejects it
            if line != b"# %x\n" % row or row >> nb:
                return None
            rows.append(row)
        if sum(map(int.bit_count, rows)) != m:
            return None
        for lines in _edge_lines(rows, nb):
            lines = lines.encode()
            if f.read(len(lines)) != lines:
                return None
        if f.read(1):
            return None
    return BipartiteGraph._from_flat(na, nb, b"".join([bit_flags(row, nb) for row in rows]), rows)


def significant_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line left non-empty once its ``#``
    comment and surrounding white space are removed.  A line that is not
    UTF-8 is a :class:`FileFormatError`."""
    with open(path, errors="surrogateescape") as f:
        for no, raw in enumerate(f, start=1):
            if not raw.isascii():
                try:
                    raw.encode()  # bytes that do not decode came in as surrogates
                except UnicodeEncodeError:
                    raise FileFormatError(path, no, "not UTF-8 text") from None
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
    if min(na, nb, expected) < 0:
        raise FileFormatError(path, no, "negative header field")
    if max(na, nb) > MAX_SIDE:
        # the header alone would size the rows: 16 bytes per vertex
        raise FileFormatError(path, no, f"side of {max(na, nb)} vertices exceeds {MAX_SIDE}")
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
    from .homomorphism import bandwidth_labelling

    ids: list[int] = []
    for no, line in significant_lines(path):
        try:
            ids.append(int(line))
        except ValueError:
            raise FileFormatError(path, no, "non-integer vertex id") from None
    total = H.size_a + H.size_b
    if sorted(ids) != list(range(total)):
        raise FileFormatError(path, 0, f"not a permutation of 0..{total - 1}")
    return bandwidth_labelling(H, [from_global_id(g) for g in ids])


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
        except UnicodeDecodeError:
            raise FileFormatError(path, 0, "not UTF-8 text") from None


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
    from .hamilton import HamiltonCycle

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
    from .homomorphism import CycleHomomorphism

    # fields are checked in order, so phi's check reads a valid k
    k, beta_n, phi, cx, cy, linking = _fields(
        data, "cycle-homomorphism", k=lambda k: _int(k) and k > 0,
        beta_n=lambda b: _int(b) and b > 0,
        phi=lambda phi: _ints(phi) and all(0 <= c < data["k"] for c in phi),
        cluster_of_x=_ints, cluster_of_y=_ints, linking=_ints,
    )
    linking_set = frozenset(map(from_global_id, linking))
    if len(linking_set) != len(linking):
        raise ValueError("'cycle-homomorphism' artifact: a linking vertex is listed twice")
    return CycleHomomorphism(k, tuple(cx), tuple(cy), linking_set, beta_n, tuple(phi))


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
