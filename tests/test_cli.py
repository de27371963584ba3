import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bipembed import fileio
from bipembed.cli import main
from bipembed.fileio import (
    FileFormatError,
    _read_graph_lines,
    _read_indexed_graph,
    read_graph,
    read_labelling,
    write_graph,
    write_labelling,
)
from bipembed.generators import InstanceSpec, gen_host, gen_target
from bipembed.graphs import BipartiteGraph, Side, VertexId
from bipembed.regularity import RegularityParams, Strategy, build_regular_partition


def run(argv):
    return main(argv)


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = gen_host(InstanceSpec("host-random-min-degree", 32, 1, {"gamma": "0.1"}))
        p = tmp_path / "g.bg"
        write_graph(str(p), g)
        back = read_graph(str(p))
        assert back == g

    def test_duplicate_edge_rejected(self, tmp_path):
        p = tmp_path / "bad.bg"
        p.write_text("bipartite 2 2 2\n0 0\n0 0\n")
        with pytest.raises(FileFormatError) as exc:
            read_graph(str(p))
        assert exc.value.line == 3

    def test_bad_header_line_number(self, tmp_path):
        p = tmp_path / "bad.bg"
        p.write_text("# comment\nbipartite x 2 0\n")
        with pytest.raises(FileFormatError) as exc:
            read_graph(str(p))
        assert exc.value.line == 2

    def test_comments_allowed(self, tmp_path):
        p = tmp_path / "g.bg"
        p.write_text("# a graph\nbipartite 2 2 1  # header\n0 1\n")
        g = read_graph(str(p))
        assert g.edge_count == 1

    # sha256 of the bytes write_graph writes for a seeded host and target,
    # and of those bytes without the row index's comment lines
    WRITTEN = [
        (lambda: gen_host(InstanceSpec("host-random-min-degree", 64, 3, {"gamma": "3/10"})),
         "e1eea72845d92fbdd647a4353d305e881753a915afcb65cfc4c2d0c664866b58",
         "99396b972001f971d3481f8ab4a79f08468b4c818e1b515020379a8f99eaefd2"),
        (lambda: gen_target(InstanceSpec(
            "target-random-local", 64, 5, {"window": 4, "max_degree": 3}))[0],
         # 685 bytes, below 64*64: written without the index
         "7fd78a631a4a56795c4b606f40952188a51f3305e4c04c5f0a26692c81098e24",
         "7fd78a631a4a56795c4b606f40952188a51f3305e4c04c5f0a26692c81098e24"),
    ]

    @pytest.mark.parametrize("make,digest,edges_digest", WRITTEN, ids=["host-64", "random-local-64"])
    def test_pinned_written_bytes(self, tmp_path, make, digest, edges_digest):
        g = make()
        p = tmp_path / "g.bg"
        write_graph(str(p), g)
        data = p.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        edges = b"".join(line for line in data.splitlines(True) if not line.startswith(b"#"))
        assert hashlib.sha256(edges).hexdigest() == edges_digest
        back = read_graph(str(p))
        assert back == g and back.adj_b == g.adj_b
        # a reader that skips the index comments sees the same graph
        scanned = _read_graph_lines(str(p))
        assert scanned == g and scanned.adj_b == g.adj_b

    def test_row_index_follows_the_header(self, tmp_path):
        g = BipartiteGraph.build(3, 5, [(0, 4), (0, 1), (2, 0)])
        p = tmp_path / "g.bg"
        write_graph(str(p), g)
        assert p.read_text() == "bipartite 3 5 3\n# 12\n# 0\n# 1\n0 1\n0 4\n2 0\n"

    # graph -> whether its file holds nA*nB bytes, so carries the index
    INDEXED = [
        (WRITTEN[0][0], True),
        (WRITTEN[1][0], False),
        (lambda: BipartiteGraph.build(4, 4, []), True),
        # one edge: 23 bytes plus the digits of nB, against nB
        (lambda: BipartiteGraph.build(1, 25, [(0, 0)]), True),
        (lambda: BipartiteGraph.build(1, 26, [(0, 0)]), False),
    ]

    @pytest.mark.parametrize("make,indexed", INDEXED,
                             ids=["host-64", "random-local-64", "empty", "at-size", "past-size"])
    def test_index_is_written_exactly_when_it_is_read(self, tmp_path, make, indexed):
        g = make()
        p = tmp_path / "g.bg"
        write_graph(str(p), g)
        data = p.read_bytes()
        assert (b"\n# " in data) == indexed
        assert (len(data) >= g.size_a * g.size_b) == indexed
        assert (_read_indexed_graph(str(p)) is not None) == indexed
        assert read_graph(str(p)) == g

    def test_huge_empty_graph_takes_line_scan(self, tmp_path):
        # the index path would need a 10^12-byte buffer for this header
        p = tmp_path / "g.bg"
        p.write_text("bipartite 1000000 1000000 0\n")
        assert _read_indexed_graph(str(p)) is None
        g = read_graph(str(p))
        assert (g.size_a, g.size_b, g.edge_count) == (10**6, 10**6, 0)

    @pytest.mark.parametrize("na,nb", [(1000, 10**9), (0, 10**9), (10**9, 0)])
    def test_header_sizes_no_buffer(self, tmp_path, na, nb):
        # an index that is right for the header: the empty rows
        p = tmp_path / "g.bg"
        p.write_text(f"bipartite {na} {nb} 0\n" + "# 0\n" * min(na, 1000))
        tracemalloc.start()
        try:
            assert _read_indexed_graph(str(p)) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("na,nb", [(1, 10**9), (10**9, 1), (fileio.MAX_SIDE + 1, 0)])
    def test_line_scan_refuses_a_side_past_the_limit(self, tmp_path, na, nb):
        p = tmp_path / "g.bg"
        p.write_text(f"bipartite {na} {nb} 0\n")
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError, match="exceeds") as exc:
                read_graph(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.path, exc.value.line) == (str(p), 1)
        assert peak < 1 << 20

    def test_labelling_and_json_not_utf8(self, tmp_path):
        h, _ = gen_target(InstanceSpec("target-hamilton-cycle", 4, 0))
        p = tmp_path / "h.lab"
        p.write_bytes(b"0\n1\n\xfe\n")
        with pytest.raises(FileFormatError) as exc:
            read_labelling(str(p), h)
        assert (exc.value.path, exc.value.line) == (str(p), 3)
        j = tmp_path / "a.json"
        j.write_bytes(b'{"kind": "\xff"}\n')
        with pytest.raises(FileFormatError, match="not UTF-8"):
            fileio.read_json(str(j))

    def test_verify_names_a_graph_that_is_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "bad.bg"
        p.write_bytes(b"bipartite 2 2 1\n# \xc3\xa9 is UTF-8\n0 \xff1\n")
        emb = tmp_path / "emb.json"
        emb.write_text('{"kind": "embedding", "pairs": []}\n')
        assert run(["verify", "--host", str(p), "--target", str(p), "--embedding", str(emb)]) == 2
        assert f"parse error: {p}:3: not UTF-8 text" in capsys.readouterr().err

    def test_line_scan_reads_crlf_tabs_and_comments(self, tmp_path):
        g = gen_host(InstanceSpec("host-random-min-degree", 64, 3, {"gamma": "3/10"}))
        canonical = tmp_path / "g.bg"
        write_graph(str(canonical), g)
        header, *edges = canonical.read_text().splitlines()
        lines = [header, "# edges follow, tab separated"] + [e.replace(" ", "\t") for e in edges]
        p = tmp_path / "crlf.bg"
        p.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert _read_indexed_graph(str(p)) is None
        back = read_graph(str(p))
        assert back == g and back.adj_b == g.adj_b

    def test_line_scan_error_order(self, tmp_path):
        """A negative header field is refused at the header, before any
        edge line is read against it."""
        p = tmp_path / "g.bg"
        for text in ("bipartite -1 5 1\n0 0\n", "bipartite -1 5 0\n", "bipartite 2 2 -1\n"):
            p.write_text(text)
            with pytest.raises(FileFormatError) as exc:
                read_graph(str(p))
            assert exc.value.line == 1 and "negative header field" in str(exc.value)

    def test_verify_names_a_negative_header_field(self, tmp_path, capsys):
        p = tmp_path / "bad.bg"
        p.write_text("bipartite 2 -1 0\n")
        emb = tmp_path / "emb.json"
        emb.write_text('{"kind": "embedding", "pairs": []}\n')
        assert run(["verify", "--host", str(p), "--target", str(p), "--embedding", str(emb)]) == 2
        assert f"parse error: {p}:1: negative header field" in capsys.readouterr().err

    def test_labelling_round_trip(self, tmp_path):
        h, lab = gen_target(InstanceSpec("target-hamilton-cycle", 16, 0))
        p = tmp_path / "h.lab"
        write_labelling(str(p), lab)
        back = read_labelling(str(p), h)
        assert back.order == lab.order
        assert back.bandwidth == lab.bandwidth

    def test_labelling_not_permutation(self, tmp_path):
        h, _ = gen_target(InstanceSpec("target-hamilton-cycle", 4, 0))
        p = tmp_path / "h.lab"
        p.write_text("0\n1\n2\n3\n4\n5\n6\n6\n")
        with pytest.raises(FileFormatError):
            read_labelling(str(p), h)


# Mutations of a graph file as write_graph writes it, row index included.
# Each must parse to the graph the line scan gives, or fail with the line
# scan's error, line and message.
MUTATIONS = [
    "none", "duplicate", "duplicate-counted", "swap", "delete", "joined",
    "blank-line", "plus", "minus", "leading-zero", "underscore", "out-of-range",
    "tab", "crlf", "trailing-space", "comment", "inline-comment",
    "no-final-newline", "wrong-m", "m-zero",
    "index-flip", "index-upper", "index-leading-zero", "index-missing",
    "index-extra", "index-wide", "index-edges-shuffled",
]


@st.composite
def mutated_graph_files(draw):
    """(mutated file, the file unmutated) as bytes."""
    na = draw(st.integers(0, 7))
    nb = draw(st.integers(0, 7))
    cells = st.tuples(st.integers(0, max(na - 1, 0)), st.integers(0, max(nb - 1, 0)))
    edges = sorted(draw(st.sets(cells, max_size=na * nb))) if na and nb else []
    header = ["bipartite", str(na), str(nb), str(len(edges))]
    body = [[str(a), str(b)] for a, b in edges]
    rows = [sum(1 << b for a2, b in edges if a2 == a) for a in range(na)]
    index = [f"# {row:x}" for row in rows]
    unmutated = "".join(line + "\n" for line in [" ".join(header), *index, *map(" ".join, body)])
    mutation = draw(st.sampled_from(MUTATIONS))
    ends = "\n"
    if mutation.startswith("index-") and na:
        i = draw(st.integers(0, na - 1))
        if mutation == "index-flip" and nb:
            index[i] = f"# {rows[i] ^ 1 << draw(st.integers(0, nb - 1)):x}"
        elif mutation == "index-upper":
            index[i] = index[i].upper()
        elif mutation == "index-leading-zero":
            index[i] = "# 0" + index[i][2:]
        elif mutation == "index-missing":
            del index[i]
        elif mutation == "index-extra":
            index.insert(i, f"# {draw(st.integers(0, (1 << nb) - 1)):x}")
        elif mutation == "index-wide":
            # counted in the header, so only the row's width gives it away
            index[i] = f"# {rows[i] | 1 << nb + draw(st.integers(0, 2)):x}"
            header[3] = str(len(edges) + 1)
        elif mutation == "index-edges-shuffled":
            body = draw(st.permutations(body))
    elif mutation == "wrong-m":
        header[3] = str(len(edges) + draw(st.sampled_from([-2, -1, 1, 2])))
    elif mutation == "m-zero":
        header[3] = "0"
    elif mutation == "crlf":
        ends = "\r\n"
    elif mutation == "comment":
        body.insert(draw(st.integers(0, len(body))), ["# a comment"])
    elif body and mutation != "none":
        i = draw(st.integers(0, len(body) - 1))
        j = draw(st.integers(0, len(body) - 1))
        t = draw(st.integers(0, 1))
        tok = body[i][t]
        if mutation.startswith("duplicate"):
            body.insert(j, list(body[i]))
            if mutation == "duplicate-counted":
                header[3] = str(len(body))
        elif mutation == "swap":
            body[i], body[j] = body[j], body[i]
        elif mutation == "delete":
            del body[i]
        elif mutation == "joined" and i + 1 < len(body):
            # "a b c" and "d": the right number of tokens, on the wrong lines
            body[i].append(body[i + 1].pop(0))
        elif mutation == "blank-line":
            body.insert(j, [])
        elif mutation in ("plus", "minus"):
            body[i][t] = ("+" if mutation == "plus" else "-") + tok
        elif mutation == "leading-zero":
            body[i][t] = "0" + tok
        elif mutation == "underscore":
            body[i][t] = tok[:1] + "_" + tok[1:] if len(tok) > 1 else tok + "_"
        elif mutation == "out-of-range":
            body[i][t] = str((na, nb)[t] + draw(st.integers(0, 2)))
        elif mutation == "tab":
            body[i] = ["\t".join(body[i])]
        elif mutation == "trailing-space":
            body[i][1] += " "
        elif mutation == "inline-comment":
            body[i][1] += "  # note"
    lines = [" ".join(header), *index] + [" ".join(line) for line in body]
    text = ends.join(lines) + ("" if mutation == "no-final-newline" else ends)
    return text.encode(), unmutated.encode()


def _outcome(read, path):
    try:
        g = read(path)
    except FileFormatError as e:
        return ("FileFormatError", e.line, str(e))
    except ValueError as e:
        return (type(e).__name__, str(e))
    return ("graph", g.size_a, g.size_b, g.adj_a, g.adj_b)


class TestRowPathMatchesLineScan:
    @settings(max_examples=400, deadline=None)
    @given(case=mutated_graph_files())
    def test_same_graph_or_same_error(self, case):
        data, unmutated = case
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "g.bg")
            with open(path, "wb") as f:
                f.write(data)
            outcome = _outcome(_read_graph_lines, path)
            assert _outcome(read_graph, path) == outcome
            # the index is used exactly on write_graph's bytes, unless its
            # buffer would outgrow the file
            na, nb = map(int, unmutated.split()[1:3])
            used = _read_indexed_graph(path) is not None
            assert used == (data == unmutated and max(na, 1) * max(nb, 1) <= len(data))
            if data == unmutated:
                # write_graph gives these bytes, without the index where it goes unused
                write_graph(path, BipartiteGraph(*outcome[1:]))
                with open(path, "rb") as f:
                    written = f.read()
                assert written == (data if used else b"".join(
                    line for line in data.splitlines(True) if not line.startswith(b"# ")))


class TestGenerators:
    def test_host_min_degree_verified(self):
        g = gen_host(InstanceSpec("host-random-min-degree", 64, 0, {"gamma": "0.2"}))
        assert g.min_degree() >= 45  # ceil(0.7 * 64)

    def test_host_gamma_unsatisfiable(self):
        with pytest.raises(Exception):
            gen_host(InstanceSpec("host-random-min-degree", 16, 0, {"gamma": "0.6"}))

    def test_planted_blocks(self):
        g = gen_host(InstanceSpec("host-planted-blocks", 8, 0,
                                  {"blocks": 2, "block_size": 4}))
        assert g.edge_count == 32
        assert g.min_degree() == 4

    def test_cycle_target(self):
        h, lab = gen_target(InstanceSpec("target-hamilton-cycle", 8, 0))
        assert h.edge_count == 16
        assert lab.bandwidth == 2
        assert all(h.degree(v) == 2 for v in h.vertices())

    def test_ladder_target(self):
        h, lab = gen_target(InstanceSpec("target-ladder", 8, 0))
        assert h.is_balanced
        assert h.max_degree() <= 3
        assert lab.bandwidth <= 3

    def test_moebius_ladder_target(self):
        h, lab = gen_target(InstanceSpec("target-moebius-ladder", 9, 0))
        assert h.is_balanced
        assert all(h.degree(v) == 3 for v in h.vertices())
        assert lab.bandwidth <= 5
        with pytest.raises(Exception):
            gen_target(InstanceSpec("target-moebius-ladder", 8, 0))

    def test_grid_target(self):
        h, lab = gen_target(InstanceSpec("target-grid", 8, 0, {"width": 4, "height": 4}))
        assert h.is_balanced
        assert lab.bandwidth == 4  # row-major: vertical neighbours sit w apart

    def test_random_local_target(self):
        h, lab = gen_target(InstanceSpec(
            "target-random-local", 50, 1, {"window": 5, "max_degree": 3}
        ))
        assert h.is_balanced
        assert lab.bandwidth <= 5
        assert h.max_degree() <= 3

    # sha256 over the side sizes, adj_a and the labelling order; the
    # benchmark runs only the cycle and random-local families
    PINNED = [
        ("target-ladder", 7, 0, {},
         "620cde317b1061df922140fca367c279c4e0f8de5484717863ab445924ba35c2"),
        ("target-ladder", 12, 0, {},
         "c69c2d8415d7fe90343b4de590142ffd03b81629a07b17afa2758af9341b2b07"),
        ("target-moebius-ladder", 9, 0, {},
         "c2bd17ae09a4ceffbb9d5dd807e4ab42d97c20a8dfd5b4032df67472ddb17c84"),
        ("target-moebius-ladder", 15, 0, {},
         "9be285f24153e04a3942cb5c05a42344f874731bd47bad9ddb09bc5c9783cd7e"),
        ("target-grid", 8, 0, {"width": 4, "height": 4},
         "eba9539df385ca36abcd25f9732b9b32e334c742a413f5742bbb2071f3701354"),
        ("target-grid", 12, 0, {"width": 3},
         "6aa7872eccb06cc87bea72bb307ca54c6ccc1ab226a7689079528814292ec7c7"),
        ("target-random-local", 50, 1, {"window": 5, "max_degree": 3},
         "fd9e8644680b8fbbab3875fe62a1413cb15c06b82ed3765e240bd664812a1264"),
        ("target-random-local", 64, 3, {},
         "b1ea5725eb65f7e98a61d9ccb4515aa52382dfe1d91749e282020e86860f7a0b"),
    ]

    @pytest.mark.parametrize("kind,n,seed,params,digest", PINNED)
    def test_pinned_target_outputs(self, kind, n, seed, params, digest):
        h, lab = gen_target(InstanceSpec(kind, n, seed, dict(params)))
        data = json.dumps([h.size_a, h.size_b, list(h.adj_a),
                           [[v.side.value, v.index] for v in lab.order]])
        assert hashlib.sha256(data.encode()).hexdigest() == digest


def test_python_dash_m_runs_the_command_line():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "bipembed", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: bipembed")


class TestCommands:
    def test_gen_and_pair_check(self, tmp_path, capsys):
        host = tmp_path / "g.bg"
        assert run(["gen-host", "--kind", "blocks", "--blocks", "2",
                    "--block-size", "4", "--out", str(host)]) == 0
        # the full bipartition of two blocks fails the pair check
        code = run(["regularity", "check", "--host", str(host),
                    "--epsilon", "1/4", "--d", "0", "--strategy", "exhaustive"])
        assert code == 1

    # name -> (host, check options, exit code, certificate fields); hosts:
    # a 32+32 min-degree graph (seed 1), two disjoint K_{8,8} and a 4+4 pair whose
    # B-vertex 1 (global id 3) has one neighbour, below d|A| = 2
    SUPER_REGULAR_CHECKS = {
        "super-regular": ("dense", ["--d", "3/10", "--budget", "200", "--seed", "3"], 0, {
            "base_density": "881/1024", "samples_used": 200,
            "strategy": "sampled", "verdict": "certified-super-regular"}),
        "degree-failing": ("low", ["--d", "1/2"], 1, {
            "base_density": "5/8", "failing_vertex": 3,
            "note": "degree below 2 into partner", "samples_used": 0,
            "strategy": "sampled", "verdict": "failed-super-regular"}),
        "irregular": ("blocks", ["--d", "0", "--budget", "100", "--seed", "2"], 1, {
            "base_density": "1/2", "note": "regularity failed", "samples_used": 2,
            "strategy": "sampled", "verdict": "failed-super-regular",
            "witness": {"density": "0", "deviation": "1/2",
                        "subset_a": [0, 1, 2, 3], "subset_b": [9, 12, 14, 15]}}),
        "density-below": ("blocks", ["--d", "3/4"], 1, {
            "base_density": "1/2", "note": "base density 1/2 below d=3/4",
            "samples_used": 0, "strategy": "sampled", "verdict": "failed-super-regular"}),
    }

    @pytest.mark.parametrize("name", sorted(SUPER_REGULAR_CHECKS))
    def test_super_regular_pair_check(self, tmp_path, name):
        graph, options, code, fields = self.SUPER_REGULAR_CHECKS[name]
        host = tmp_path / "g.bg"
        if graph == "low":
            edges = [(a, b) for a in range(4) for b in (0, 2)] + [(0, 1), (0, 3)]
            write_graph(str(host), BipartiteGraph.build(4, 4, edges))
        else:
            kind = (["--n", "32", "--gamma", "3/10", "--seed", "1"] if graph == "dense"
                    else ["--kind", "blocks", "--blocks", "2", "--block-size", "8"])
            assert run(["gen-host", *kind, "--out", str(host)]) == 0
        out = tmp_path / "c.json"
        assert run(["regularity", "check", "--host", str(host), "--super-regular",
                    "--epsilon", "1/4", *options, "--out", str(out)]) == code
        assert json.loads(out.read_text()) == {"kind": "pair-certificate", **fields}

    def test_exhaustive_super_regular_check_meets_the_cap_first(self, tmp_path, capsys):
        # the deviation check runs before the degree gate, so a pair past
        # the enumeration cap is refused even though A-vertex 0 fails degrees
        host = tmp_path / "g.bg"
        write_graph(str(host), BipartiteGraph.build(
            64, 64, [(a, b) for a in range(64) for b in range(64) if a or b < 2]))
        code = run(["regularity", "check", "--host", str(host), "--super-regular",
                    "--epsilon", "1/4", "--d", "1/2", "--strategy", "exhaustive"])
        assert code == 2
        assert "exceed cap" in capsys.readouterr().err

    def test_failed_partition_build_exits_1(self, tmp_path, capsys):
        host = tmp_path / "b.bg"
        assert run(["gen-host", "--kind", "blocks", "--blocks", "3",
                    "--block-size", "16", "--out", str(host)]) == 0
        capsys.readouterr()
        code = run(["regularity", "partition", "--host", str(host),
                    "--k0", "2", "--kmax", "2", "--budget", "50"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("partition failed: ")
        assert "exceeds kmax=2" in err

    def test_partition_build_writes_the_builders_partition(self, tmp_path):
        host = tmp_path / "b.bg"
        out = tmp_path / "p.json"
        assert run(["gen-host", "--kind", "blocks", "--blocks", "4",
                    "--block-size", "16", "--out", str(host)]) == 0
        assert run(["regularity", "partition", "--host", str(host),
                    "--k0", "2", "--kmax", "8", "--out", str(out)]) == 0
        res = build_regular_partition(
            read_graph(str(host)), RegularityParams(Fraction(1, 4), Fraction(3, 10)),
            2, 8, Strategy.SAMPLED, 2000, 0,
        )
        part = res.partition
        assert (part.k, res.rounds, res.fraction_regular) == (4, 6, Fraction(1))
        assert json.loads(out.read_text()) == {
            "kind": "cluster-partition",
            "k": 4,
            "clusters_a": [sorted(c.indices()) for c in part.clusters_a],
            "clusters_b": [sorted(c.indices()) for c in part.clusters_b],
            "exceptional_a": sorted(part.exceptional_a.indices()),
            "exceptional_b": sorted(part.exceptional_b.indices()),
            "fraction_regular": "1",
            "rounds": 6,
            "reduced_edges": sorted(list(e) for e in res.reduced.edges),
        }

    def test_sampled_check_without_budget_exits_2(self, tmp_path, capsys):
        host = tmp_path / "s.bg"
        assert run(["gen-host", "--n", "16", "--gamma", "1/4", "--seed", "1",
                    "--out", str(host)]) == 0
        capsys.readouterr()
        code = run(["regularity", "check", "--host", str(host),
                    "--epsilon", "1/4", "--d", "0", "--budget", "-5"])
        assert code == 2
        out, err = capsys.readouterr()
        assert "certified" not in out and "budget of at least 1" in err

    def test_hamilton_cycle_command(self, tmp_path):
        host = tmp_path / "g.bg"
        out = tmp_path / "cyc.json"
        assert run(["gen-host", "--n", "10", "--gamma", "0.2", "--seed", "3",
                    "--out", str(host)]) == 0
        assert run(["hamilton", "--host", str(host), "--seed", "1",
                    "--out", str(out)]) == 0
        assert run(["verify", "--host", str(host), "--cycle", str(out)]) == 0

    def test_balance_command(self, tmp_path, capsys):
        pieces = tmp_path / "pieces.txt"
        lines = ["# x y"]
        for j in range(40):
            lines.append("10 10")
        pieces.write_text("\n".join(lines) + "\n")
        assert run(["balance", "--ni", "50x8", "--pieces", str(pieces),
                    "--xi", "0.1", "--seed", "0"]) == 0
        outtext = capsys.readouterr().out
        assert "phi:" in outtext and "retries used:" in outtext

    def test_homomorphism_command(self, tmp_path):
        target = tmp_path / "h.bg"
        lab = tmp_path / "h.lab"
        out = tmp_path / "hom.json"
        assert run(["gen-target", "--family", "hamilton-cycle", "--n", "96",
                    "--out", str(target), "--labelling-out", str(lab)]) == 0
        assert run(["homomorphism", "--target", str(target), "--labelling", str(lab),
                    "--ni", "24x4", "--ell", "6", "--xi", "1/4", "--seed", "2",
                    "--loose", "--out", str(out)]) == 0
        assert run(["verify", "--target", str(target), "--homomorphism", str(out),
                    "--ni", "24x4", "--xi", "1/4"]) in (0, 1)

    def test_loose_records_the_lemma_hypotheses(self, tmp_path):
        # targets of 4 and 4 exceed n/8 = 1, so the hypotheses fail
        pieces = tmp_path / "pieces.txt"
        pieces.write_text("3 3\n3 3\n2 2\n")
        out = tmp_path / "phi.json"
        assert run(["balance", "--ni", "4,4", "--pieces", str(pieces), "--xi", "1/4",
                    "--loose", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["hypotheses_hold"] is False
        target = tmp_path / "h.bg"
        lab = tmp_path / "h.lab"
        hom = tmp_path / "hom.json"
        assert run(["gen-target", "--family", "hamilton-cycle", "--n", "96",
                    "--out", str(target), "--labelling-out", str(lab)]) == 0
        for ni, ell, holds in (("24x4", "6", False), ("12x8", "5", True)):
            assert run(["homomorphism", "--target", str(target), "--labelling", str(lab),
                        "--ni", ni, "--ell", ell, "--xi", "1/4", "--seed", "2",
                        "--loose", "--out", str(hom)]) in (0, 1)
            assert json.loads(hom.read_text())["report"]["hypotheses_hold"] is holds

    def test_embed_and_verify_end_to_end(self, tmp_path):
        host = tmp_path / "g.bg"
        target = tmp_path / "h.bg"
        lab = tmp_path / "h.lab"
        emb = tmp_path / "emb.json"
        rep = tmp_path / "rep.json"
        assert run(["gen-host", "--n", "128", "--gamma", "0.3", "--slack", "0.05",
                    "--seed", "5", "--out", str(host)]) == 0
        assert run(["gen-target", "--family", "hamilton-cycle", "--n", "128",
                    "--out", str(target), "--labelling-out", str(lab)]) == 0
        assert run(["embed", "--host", str(host), "--target", str(target),
                    "--labelling", str(lab), "--gamma", "0.3", "--k0", "2",
                    "--ell", "16", "--budget", "300", "--seed", "7",
                    "--out", str(emb), "--report", str(rep)]) == 0
        assert run(["verify", "--host", str(host), "--target", str(target),
                    "--embedding", str(emb)]) == 0
        report = json.loads(rep.read_text())
        assert report["verdict"] == "verified-embedding"

    def test_embed_without_labelling_orders_the_target_itself(self, tmp_path):
        """With no ``--labelling``, ``embed`` labels the target by Cuthill-McKee."""
        host, target = tmp_path / "g.bg", tmp_path / "h.bg"
        emb, rep = tmp_path / "emb.json", tmp_path / "rep.json"
        assert run(["gen-host", "--n", "128", "--gamma", "3/10", "--seed", "3",
                    "--out", str(host)]) == 0
        assert run(["gen-target", "--family", "hamilton-cycle", "--n", "128",
                    "--out", str(target)]) == 0
        assert run(["embed", "--host", str(host), "--target", str(target),
                    "--gamma", "3/10", "--k0", "2", "--seed", "1",
                    "--out", str(emb), "--report", str(rep)]) == 0
        stages = json.loads(rep.read_text())["stages"]
        assert [s["detail"] for s in stages if s["stage"] == "labelling"] == ["bandwidth 2"]
        assert run(["verify", "--host", str(host), "--target", str(target),
                    "--embedding", str(emb)]) == 0

    def test_failed_embed_writes_its_report(self, tmp_path, capsys):
        host = tmp_path / "g.bg"
        target = tmp_path / "h.bg"
        emb = tmp_path / "emb.json"
        rep = tmp_path / "rep.json"
        # two disjoint 16-blocks: min degree 16 is below (1/2+gamma)n
        assert run(["gen-host", "--kind", "blocks", "--blocks", "2",
                    "--block-size", "16", "--out", str(host)]) == 0
        assert run(["gen-target", "--family", "hamilton-cycle", "--n", "32",
                    "--out", str(target)]) == 0
        capsys.readouterr()
        assert run(["embed", "--host", str(host), "--target", str(target),
                    "--out", str(emb), "--report", str(rep)]) == 1
        assert capsys.readouterr().err.startswith("embedding failed: ")
        assert not emb.exists()
        report = json.loads(rep.read_text())
        assert report["verdict"] == "failed"
        assert [(s["stage"], s["ok"]) for s in report["stages"]] == [("hypotheses", False)]

    def test_verify_rejects_corrupted_embedding(self, tmp_path):
        host = tmp_path / "g.bg"
        target = tmp_path / "h.bg"
        lab = tmp_path / "h.lab"
        emb = tmp_path / "emb.json"
        assert run(["gen-host", "--n", "128", "--gamma", "0.3", "--seed", "5",
                    "--out", str(host)]) == 0
        assert run(["gen-target", "--family", "hamilton-cycle", "--n", "128",
                    "--out", str(target), "--labelling-out", str(lab)]) == 0
        assert run(["embed", "--host", str(host), "--target", str(target),
                    "--labelling", str(lab), "--gamma", "0.3", "--k0", "2",
                    "--ell", "16", "--budget", "300", "--seed", "7",
                    "--out", str(emb)]) == 0
        data = json.loads(emb.read_text())
        # swap the image of A_0 with the A image that misses the image of
        # A_0's neighbour b, so the swap breaks the edge (A_0, b)
        g, h = read_graph(str(host)), read_graph(str(target))
        b = next(iter(h.neighbours(VertexId(Side.A, 0))))
        gb = data["pairs"][2 * b.index + 1][1] // 2
        miss = next(x for x in range(g.size_a) if not g.has_edge(x, gb))
        t = next(t for t, (_, gv) in enumerate(data["pairs"]) if gv == 2 * miss)
        data["pairs"][0][1], data["pairs"][t][1] = data["pairs"][t][1], data["pairs"][0][1]
        emb.write_text(json.dumps(data))
        assert run(["verify", "--host", str(host), "--target", str(target),
                    "--embedding", str(emb)]) == 1

    def test_malformed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.bg"
        bad.write_text("bipartite 2 2\n")
        assert run(["hamilton", "--host", str(bad)]) == 2

    def test_bad_piece_line_names_file_and_line(self, tmp_path, capsys):
        pieces = tmp_path / "p.txt"
        pieces.write_text("3 4\nx 5\n")
        assert run(["balance", "--ni", "4x2", "--pieces", str(pieces)]) == 2
        err = capsys.readouterr().err
        assert f"parse error: {pieces}:2: expected '<x> <y>' per piece" in err

    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.bg")
        assert run(["verify", "--host", missing, "--target", missing,
                    "--embedding", str(tmp_path / "e.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("artifact, given, missing", [
        ("--embedding", ["--target"], "--host"),
        ("--embedding", ["--host"], "--target"),
        ("--cycle", [], "--host"),
        ("--homomorphism", [], "--target"),
    ])
    def test_verify_names_a_missing_graph(self, tmp_path, capsys, artifact, given, missing):
        graph = tmp_path / "g.bg"
        graph.write_text("bipartite 1 1 1\n0 0\n")
        argv = ["verify", artifact, str(tmp_path / "artifact.json")]
        for flag in given:
            argv += [flag, str(graph)]
        assert run(argv) == 2
        assert f"{artifact} needs {missing}" in capsys.readouterr().err

    def test_verify_homomorphism_needs_one_target_per_cluster(self, tmp_path, capsys):
        target = tmp_path / "h.bg"
        lab = tmp_path / "h.lab"
        out = tmp_path / "hom.json"
        assert run(["gen-target", "--family", "hamilton-cycle", "--n", "96",
                    "--out", str(target), "--labelling-out", str(lab)]) == 0
        assert run(["homomorphism", "--target", str(target), "--labelling", str(lab),
                    "--ni", "24x4", "--ell", "6", "--seed", "2", "--loose",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["verify", "--target", str(target), "--homomorphism", str(out)]) == 2
        assert run(["verify", "--target", str(target), "--homomorphism", str(out),
                    "--ni", "32x3"]) == 2
        assert "4 clusters" in capsys.readouterr().err

    def test_verify_takes_no_seed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--seed", "1", "--host", "g.bg", "--cycle", "c.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", ["--gamma", "--slack"])
    def test_zero_denominator_is_a_usage_error(self, tmp_path, capsys, option):
        with pytest.raises(SystemExit) as exc:
            run(["gen-host", "--n", "16", option, "1/0", "--out", str(tmp_path / "g.bg")])
        assert exc.value.code == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_gen_host_refuses_a_negative_side(self, tmp_path, capsys):
        out = tmp_path / "g.bg"
        assert run(["gen-host", "--n", "-4", "--out", str(out)]) == 2
        assert "gen_host: n = -4 is below 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["embed", "--host", "g.bg", "--target", "t.bg", "--retries", "-1"],
        ["experiment", "--seeds", "-1"],
        ["experiment", "--retries", "-1"],
        ["balance", "--ni", "4x2", "--pieces", "p.txt", "--retries", "-1"],
        ["homomorphism", "--target", "t.bg", "--labelling", "t.lab", "--ni", "4x2",
         "--ell", "2", "--retries", "-1"],
        ["hamilton", "--host", "g.bg", "--restarts", "-3"],
    ])
    def test_negative_count_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"count {argv[-1]} is negative" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for rep in range(2):
            host = tmp_path / f"g{rep}.bg"
            target = tmp_path / f"h{rep}.bg"
            lab = tmp_path / f"h{rep}.lab"
            emb = tmp_path / f"e{rep}.json"
            run(["gen-host", "--n", "128", "--gamma", "0.3", "--seed", "9",
                 "--out", str(host)])
            run(["gen-target", "--family", "hamilton-cycle", "--n", "128",
                 "--out", str(target), "--labelling-out", str(lab)])
            run(["embed", "--host", str(host), "--target", str(target),
                 "--labelling", str(lab), "--gamma", "0.3", "--k0", "2",
                 "--ell", "16", "--budget", "300", "--seed", "11",
                 "--out", str(emb)])
            outs.append((host.read_bytes(), target.read_bytes(), emb.read_bytes()))
        assert outs[0] == outs[1]

    def test_gen_target_grid_default_height(self, tmp_path):
        out = tmp_path / "grid.bg"
        assert run(["gen-target", "--family", "grid", "--n", "8", "--out", str(out)]) == 0
        g = read_graph(str(out))
        assert (g.size_a, g.size_b, g.edge_count) == (8, 8, 24)  # the 4x4 grid
        assert run(["gen-target", "--family", "grid", "--n", "8", "--width", "2",
                    "--height", "8", "--out", str(out)]) == 0
        assert read_graph(str(out)).edge_count == 22  # the 2x8 grid
        assert run(["gen-target", "--family", "grid", "--n", "8", "--height", "3",
                    "--out", str(out)]) == 2

    def test_experiment_grid_default_height(self, tmp_path):
        out = tmp_path / "agg.json"
        code = run(["experiment", "--n", "16", "--gamma", "0.3", "--seeds", "1",
                    "--k0", "2", "--ell", "8", "--budget", "100",
                    "--family", "grid", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["runs"] == 1

    def test_experiment_refuses_an_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["experiment", "--family", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_experiment_aggregates(self, tmp_path, capsys):
        out = tmp_path / "agg.json"
        code = run(["experiment", "--n", "64", "--gamma", "0.3", "--seeds", "2",
                    "--k0", "2", "--ell", "8", "--budget", "200",
                    "--family", "hamilton-cycle", "--seed", "1", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["runs"] == 2
        assert data["successes"] + data["failures"] == 2


class TestUntrustedArtifacts:
    """``verify`` re-checks an artifact from its content alone: a hand-edited
    file fails verification (exit 1), and a malformed one is a usage error
    (exit 2) rather than a traceback."""

    @pytest.fixture
    def graphs(self, tmp_path):
        host, target = tmp_path / "g.bg", tmp_path / "h.bg"
        host.write_text("bipartite 2 2 4\n0 0\n0 1\n1 0\n1 1\n")
        target.write_text("bipartite 2 2 1\n0 0\n")
        return ["--host", str(host), "--target", str(target)]

    def verify_embedding(self, tmp_path, graphs, data):
        emb = tmp_path / "e.json"
        emb.write_text(json.dumps(data))
        return run(["verify", *graphs, "--embedding", str(emb)])

    @pytest.mark.parametrize("pairs", [
        [[0, 0], [2, -2], [1, 1], [3, 3]],  # A1 -> gid -2, that is A_-1
        [[0, 0], [2, 2], [1, 1], [3, -1]],  # B1 -> gid -1, that is B_-1
    ])
    def test_negative_host_index_fails(self, tmp_path, graphs, capsys, pairs):
        assert self.verify_embedding(tmp_path, graphs, {"kind": "embedding", "pairs": pairs}) == 1
        assert "outside the host" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"kind": "embedding"},
        {"kind": "embedding", "pairs": [[0, None]]},
        {"kind": "embedding", "pairs": [[0, 0, 1]]},
        {"kind": "embedding", "pairs": [[0, "0"]]},
        {"kind": "embedding", "pairs": [[0, 0], [2, 2], [1, 1], [3, 3], [0, 2]]},
        {"kind": "hamilton-cycle", "order": [0, 1, 2, 3]},
        ["embedding"],
    ])
    def test_malformed_embedding_is_a_usage_error(self, tmp_path, graphs, capsys, data):
        assert self.verify_embedding(tmp_path, graphs, data) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_cycle_without_order_is_a_usage_error(self, tmp_path, graphs, capsys):
        cyc = tmp_path / "c.json"
        cyc.write_text('{"kind": "hamilton-cycle"}')
        assert run(["verify", *graphs[:2], "--cycle", str(cyc)]) == 2
        assert "'order'" in capsys.readouterr().err

    @pytest.fixture
    def homomorphism(self, tmp_path):
        target, lab, out = tmp_path / "t.bg", tmp_path / "t.lab", tmp_path / "hom.json"
        assert run(["gen-target", "--n", "64", "--out", str(target),
                    "--labelling-out", str(lab)]) == 0
        assert run(["homomorphism", "--target", str(target), "--labelling", str(lab),
                    "--ni", "16x4", "--ell", "4", "--xi", "1/4", "--loose", "--seed", "1",
                    "--out", str(out)]) == 0
        return target, out, json.loads(out.read_text())

    def verify_homomorphism(self, tmp_path, target, data, ni, xi):
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data))
        return run(["verify", "--target", str(target), "--homomorphism", str(edited),
                    "--ni", ni, "--xi", xi])

    def test_stored_preimage_counts_are_not_trusted(self, tmp_path, capsys, homomorphism):
        target, _, data = homomorphism
        args = ("16,16,16,9", "1/8")
        assert self.verify_homomorphism(tmp_path, target, data, *args) == 1
        assert "preimages: cluster 3: preimages 17/16 not below 17" in capsys.readouterr().err
        data["preimage_a"] = data["preimage_b"] = [1, 1, 1, 1]
        assert self.verify_homomorphism(tmp_path, target, data, *args) == 1
        assert "preimages: cluster 3: preimages 17/16 not below 17" in capsys.readouterr().err

    def test_cluster_outside_the_cycle_fails(self, tmp_path, capsys, homomorphism):
        target, _, data = homomorphism
        assert self.verify_homomorphism(tmp_path, target, data, "16x4", "1/4") == 0
        for key in ("cluster_of_x", "cluster_of_y"):
            data[key] = [-1 if c == 3 else c for c in data[key]]
        assert self.verify_homomorphism(tmp_path, target, data, "16x4", "1/4") == 1
        assert "cluster -1 outside 0..3" in capsys.readouterr().err

    @pytest.mark.parametrize("stray", [1000000, -7])
    def test_linking_vertex_outside_the_target_fails(self, tmp_path, capsys, homomorphism,
                                                     stray):
        target, _, data = homomorphism
        data["linking"][0] = stray
        assert self.verify_homomorphism(tmp_path, target, data, "16x4", "1/4") == 1
        err = capsys.readouterr().err
        assert "linking: linking vertex " in err and " outside the target" in err

    @pytest.mark.parametrize("edit", [
        {"cluster_of_x": None}, {"k": 0}, {"k": "4"}, {"linking": [0.5]}, {"linking": [0, 0]},
    ])
    def test_malformed_homomorphism_is_a_usage_error(self, tmp_path, homomorphism, edit):
        target, _, data = homomorphism
        data.update(edit)
        assert self.verify_homomorphism(tmp_path, target, data, "16x4", "1/4") == 2

    @pytest.mark.parametrize("edit", [{"phi": [0, 10**30]}, {"beta_n": -7}])
    def test_field_no_check_reads_is_still_refused(self, tmp_path, capsys, homomorphism, edit):
        target, _, data = homomorphism
        data.update(edit)
        assert self.verify_homomorphism(tmp_path, target, data, "16x4", "1/4") == 2
        assert f"field {next(iter(edit))!r} is missing or malformed" in capsys.readouterr().err

    def test_short_cluster_map_is_a_usage_error(self, tmp_path, capsys, homomorphism):
        target, _, data = homomorphism
        data["cluster_of_y"].pop()
        assert self.verify_homomorphism(tmp_path, target, data, "16x4", "1/4") == 2
        assert "do not cover the target" in capsys.readouterr().err

    def test_artifact_bytes_keep_the_preimage_counts(self, homomorphism):
        _, out, data = homomorphism
        hom = fileio.homomorphism_from_json(data)
        assert (data["preimage_a"], data["preimage_b"]) == (list(hom.preimage_a), list(hom.preimage_b))
        assert out.read_text() == json.dumps(
            {**fileio.homomorphism_to_json(hom), "report": data["report"]}, indent=2) + "\n"
