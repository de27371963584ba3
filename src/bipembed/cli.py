"""Command-line drivers: generation, pipeline stages, verification, batches.

Exit codes: 0 on success, 1 when a verification or search fails, 2 on
usage errors (including malformed input files).

Each command imports the pipeline modules it calls when it runs, so a
command loads only what it uses: ``verify --embedding`` loads ``fileio`` and
``graphs`` and nothing of the pipeline it checks, ``gen-host`` loads no
pipeline module, and ``gen-target`` only ``homomorphism``, for its
labellings.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import fileio
from .graphs import Check, GraphError, Side, VertexSet, verify_embedding

TARGET_FAMILIES = ("hamilton-cycle", "ladder", "moebius-ladder", "grid", "random-local")


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as e:
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}: zero denominator") from e


def _count(text: str) -> int:
    """A non-negative integer option: a number of seeds, retries or restarts."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(f"count {value} is negative")
    return value


def _indices(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t != ""]


def _sizes(text: str) -> list[int]:
    """Parse '1000x8' (8 clusters of 1000) or '10,20,30'."""
    if "x" in text:
        size, count = text.split("x")
        return [int(size)] * int(count)
    return _indices(text)


def _read_pieces(path: str) -> tuple[list[int], list[int]]:
    xs, ys = [], []
    for no, line in fileio.significant_lines(path):
        try:
            x, y = map(int, line.split())
        except ValueError:
            raise fileio.FileFormatError(path, no, "expected '<x> <y>' per piece") from None
        xs.append(x)
        ys.append(y)
    return xs, ys


def _cert_json(cert) -> dict:
    out = {
        "verdict": cert.verdict.value,
        "base_density": fileio.rational_str(cert.base_density),
        "strategy": cert.strategy.value,
        "samples_used": cert.samples_used,
    }
    if cert.witness is not None:
        out["witness"] = {
            "subset_a": sorted(cert.witness.subset_u.indices()),
            "subset_b": sorted(cert.witness.subset_w.indices()),
            "density": fileio.rational_str(cert.witness.witness_density),
            "deviation": fileio.rational_str(cert.witness.deviation),
        }
    if cert.failing_vertex is not None:
        out["failing_vertex"] = fileio.global_id(cert.failing_vertex)
    if cert.note:
        out["note"] = cert.note
    return out


def _partition_json(part) -> dict:
    return {
        "kind": "cluster-partition",
        "k": part.k,
        "clusters_a": [sorted(c.indices()) for c in part.clusters_a],
        "clusters_b": [sorted(c.indices()) for c in part.clusters_b],
        "exceptional_a": sorted(part.exceptional_a.indices()),
        "exceptional_b": sorted(part.exceptional_b.indices()),
    }


def _write_or_print(out, data):
    if out:
        fileio.write_json(out, data)
    else:
        import json

        print(json.dumps(data, indent=2))


def cmd_gen_host(args) -> int:
    from .generators import InstanceSpec, gen_host

    if args.kind == "random":
        spec = InstanceSpec(
            "host-random-min-degree", args.n, args.seed,
            {"gamma": args.gamma, "slack": args.slack},
        )
    else:
        spec = InstanceSpec(
            "host-planted-blocks", args.blocks * args.block_size, args.seed,
            {"blocks": args.blocks, "block_size": args.block_size},
        )
    g = gen_host(spec)
    fileio.write_graph(args.out, g)
    print(f"wrote {args.out}: {g.size_a}+{g.size_b}, m={g.edge_count}, "
          f"min degree {g.min_degree()}")
    return 0


def _target_params(args) -> dict:
    """gen_target parameters; the grid height only when --height is given,
    so that gen_target's own default (2n / width) applies otherwise."""
    params = {
        "width": args.width, "window": args.window,
        "edge_prob": args.edge_prob, "max_degree": args.max_degree,
    }
    if args.height is not None:
        params["height"] = args.height
    return params


def cmd_gen_target(args) -> int:
    from .generators import InstanceSpec, gen_target

    spec = InstanceSpec(f"target-{args.family}", args.n, args.seed, _target_params(args))
    g, lab = gen_target(spec)
    fileio.write_graph(args.out, g)
    if args.labelling_out:
        fileio.write_labelling(args.labelling_out, lab)
    print(f"wrote {args.out}: {g.size_a}+{g.size_b}, m={g.edge_count}, "
          f"bandwidth {lab.bandwidth}, max degree {g.max_degree()}")
    return 0


def cmd_regularity(args) -> int:
    from .regularity import (
        PartitionBuildError,
        RegularityParams,
        Strategy,
        Verdict,
        build_regular_partition,
        check_regular_pair,
        check_super_regular_pair,
    )

    g = fileio.read_graph(args.host)
    params = RegularityParams(args.epsilon, args.d)
    strategy = Strategy(args.strategy)
    if args.op == "check":
        U = (
            VertexSet.from_indices(Side.A, g.size_a, _indices(args.u))
            if args.u else VertexSet.full(Side.A, g.size_a)
        )
        W = (
            VertexSet.from_indices(Side.B, g.size_b, _indices(args.w))
            if args.w else VertexSet.full(Side.B, g.size_b)
        )
        cert = check_regular_pair(g, U, W, params, strategy, args.budget, args.seed)
        if args.super_regular:
            cert = check_super_regular_pair(g, cert)
        data = {"kind": "pair-certificate", **_cert_json(cert)}
        _write_or_print(args.out, data)
        ok = cert.verdict in (Verdict.REGULAR, Verdict.SUPER_REGULAR)
        return 0 if ok else 1
    # op == "partition"
    try:
        res = build_regular_partition(
            g, params, args.k0, args.kmax, strategy, args.budget, args.seed
        )
    except PartitionBuildError as e:
        print(f"partition failed: {e}", file=sys.stderr)
        return 1
    data = _partition_json(res.partition)
    data["fraction_regular"] = fileio.rational_str(res.fraction_regular)
    data["rounds"] = res.rounds
    data["reduced_edges"] = sorted(list(e) for e in res.reduced.edges)
    _write_or_print(args.out, data)
    return 0


def cmd_hamilton(args) -> int:
    from .hamilton import HamiltonSearchError, find_hamilton_cycle

    g = fileio.read_graph(args.host)
    try:
        cyc = find_hamilton_cycle(g, args.search, args.seed, args.restarts)
    except HamiltonSearchError as e:
        print(f"no cycle: {e} (hypothesis held: {e.hypothesis_held}, "
              f"definitive: {e.definitive})", file=sys.stderr)
        return 1
    if args.out:
        fileio.write_json(args.out, fileio.cycle_to_json(cyc))
    print("cycle:", " ".join(str(fileio.global_id(v)) for v in cyc.order))
    return 0


def cmd_balance(args) -> int:
    from .homomorphism import BalanceError, balance_assignment

    targets = _sizes(args.ni)
    xs, ys = _read_pieces(args.pieces)
    try:
        res = balance_assignment(
            targets, xs, ys, args.xi, args.retries, args.seed, strict=not args.loose
        )
    except (BalanceError, GraphError) as e:
        print(f"balance failed: {e}", file=sys.stderr)
        return 1
    data = {
        "kind": "balancing-assignment",
        "phi": list(res.phi),
        "a_totals": list(res.a_totals),
        "b_totals": list(res.b_totals),
        "class_counts": list(res.class_counts),
        "retries_used": res.retries_used,
        "hypotheses_hold": res.hypothesis_ok,
    }
    _write_or_print(args.out, data)
    print(f"phi: {' '.join(map(str, res.phi))}")
    print(f"a totals: {list(res.a_totals)}")
    print(f"b totals: {list(res.b_totals)}")
    print(f"retries used: {res.retries_used}")
    return 0


def cmd_homomorphism(args) -> int:
    from .homomorphism import (
        BalanceError,
        balance_assignment,
        build_cycle_homomorphism,
        partition_pieces,
        verify_cycle_homomorphism,
    )

    h = fileio.read_graph(args.target)
    lab = fileio.read_labelling(args.labelling, h)
    targets = _sizes(args.ni)
    k = len(targets)
    pieces = partition_pieces(h, lab, args.ell)
    try:
        phi = balance_assignment(
            targets, list(pieces.x_counts), list(pieces.y_counts),
            args.xi, args.retries, args.seed, strict=not args.loose,
        )
        beta_n = args.beta_n if args.beta_n else max(lab.bandwidth, 1)
        hom = build_cycle_homomorphism(h, lab, pieces, phi.phi, beta_n, k)
    except (BalanceError, GraphError) as e:
        print(f"homomorphism failed: {e}", file=sys.stderr)
        return 1
    rep = verify_cycle_homomorphism(h, hom, targets, args.xi)
    data = fileio.homomorphism_to_json(hom)
    data["report"] = {
        "homomorphism": rep.homomorphism.ok,
        "linking_size": rep.linking_size.ok,
        "matching_edges": rep.matching_edges.ok,
        "preimage_bounds": rep.preimage_bounds.ok,
        "hypotheses_hold": phi.hypothesis_ok,
    }
    _write_or_print(args.out, data)
    return 0 if rep.homomorphism.ok else 1


def _embed_config(args):
    """The pipeline configuration of ``embed`` and ``experiment``."""
    from .embedder import EmbedConfig

    return EmbedConfig(
        mode=args.mode, epsilon=args.epsilon, d=args.d, k0=args.k0, ell=args.ell,
        sample_budget=args.budget, pipeline_retries=args.retries,
    )


def cmd_embed(args) -> int:
    from .embedder import EmbeddingPipelineError, embed_bipartite

    g = fileio.read_graph(args.host)
    h = fileio.read_graph(args.target)
    lab = fileio.read_labelling(args.labelling, h) if args.labelling else None
    try:
        res = embed_bipartite(
            g, h, args.gamma, args.max_degree, _embed_config(args), args.seed, lab
        )
    except EmbeddingPipelineError as e:
        print(f"embedding failed: {e}", file=sys.stderr)
        for s in e.report.stages:
            print(f"  [{'ok' if s.ok else 'XX'}] {s.stage}: {s.detail}", file=sys.stderr)
        if args.report:
            fileio.write_json(args.report, fileio.run_report_to_json(e.report))
        return 1
    if args.out:
        fileio.write_json(args.out, fileio.embedding_to_json(res.embedding))
    if args.report:
        fileio.write_json(args.report, fileio.run_report_to_json(res.report))
    print(f"verified embedding found (seed {args.seed}); "
          f"{len(res.embedding.mapping)} vertices placed")
    return 0


def cmd_verify(args) -> int:
    for artifact, inputs in (
        ("embedding", ("host", "target")), ("cycle", ("host",)), ("homomorphism", ("target",)),
    ):
        if getattr(args, artifact):
            missing = [f"--{name}" for name in inputs if not getattr(args, name)]
            if missing:
                print(f"--{artifact} needs {' and '.join(missing)}", file=sys.stderr)
                return 2
            break
    if args.embedding:
        g = fileio.read_graph(args.host)
        h = fileio.read_graph(args.target)
        emb = fileio.embedding_from_json(fileio.read_json(args.embedding))
        check = verify_embedding(g, h, emb)
    elif args.cycle:
        from .hamilton import verify_cycle

        g = fileio.read_graph(args.host)
        cyc = fileio.cycle_from_json(fileio.read_json(args.cycle))
        check = verify_cycle(g, cyc)
    elif args.homomorphism:
        from .homomorphism import verify_cycle_homomorphism

        h = fileio.read_graph(args.target)
        hom = fileio.homomorphism_from_json(fileio.read_json(args.homomorphism))
        targets = _sizes(args.ni)
        if len(targets) != hom.k:
            print(f"--ni gives {len(targets)} cluster targets; the homomorphism has "
                  f"{hom.k} clusters", file=sys.stderr)
            return 2
        rep = verify_cycle_homomorphism(h, hom, targets, args.xi)
        check = Check(rep.ok, "; ".join(
            f"{name}: {cl.detail}" for name, cl in (
                ("homomorphism", rep.homomorphism),
                ("linking", rep.linking_size),
                ("matching", rep.matching_edges),
                ("preimages", rep.preimage_bounds),
            ) if not cl.ok
        ))
    else:
        print("nothing to verify (pass --embedding, --cycle, or --homomorphism)",
              file=sys.stderr)
        return 2
    if check:
        print("verification passed")
        return 0
    print(f"verification FAILED: {check.detail}", file=sys.stderr)
    return 1


def cmd_experiment(args) -> int:
    from .embedder import EmbeddingPipelineError, embed_bipartite
    from .generators import InstanceSpec, gen_host, gen_target

    cfg = _embed_config(args)
    successes = 0
    per_seed = []
    for seed in range(args.seeds):
        host = gen_host(InstanceSpec(
            "host-random-min-degree", args.n, args.seed + seed,
            {"gamma": args.gamma, "slack": args.slack},
        ))
        target, lab = gen_target(InstanceSpec(
            f"target-{args.family}", args.n, args.seed + seed, _target_params(args),
        ))
        try:
            res = embed_bipartite(
                host, target, args.gamma, max(args.max_degree, target.max_degree()),
                cfg, args.seed + seed, lab,
            )
            good = bool(verify_embedding(host, target, res.embedding))
        except EmbeddingPipelineError:
            good = False
        successes += good
        per_seed.append({"seed": args.seed + seed, "verified": good})
        print(f"seed {args.seed + seed}: {'ok' if good else 'failed'}")
    data = {
        "kind": "experiment",
        "runs": args.seeds,
        "successes": successes,
        "failures": args.seeds - successes,
        "per_seed": per_seed,
    }
    _write_or_print(args.out, data)
    print(f"verified embeddings in {successes} of {args.seeds} runs")
    return 0


def _common(p, out_default=None):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=out_default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bipembed",
        description="Embed bounded-degree small-bandwidth balanced bipartite "
                    "graphs into dense balanced bipartite hosts, with "
                    "certifiable intermediate structure.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-host", help="generate a dense balanced host")
    p.add_argument("--kind", choices=["random", "blocks"], default="random")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--gamma", type=_rat, default=Fraction(1, 10))
    p.add_argument("--slack", type=_rat, default=Fraction(1, 20))
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--block-size", type=int, default=8)
    _common(p, "host.bg")
    p.set_defaults(fn=cmd_gen_host)

    p = sub.add_parser("gen-target", help="generate a bounded-bandwidth target")
    p.add_argument("--family", choices=TARGET_FAMILIES, default="hamilton-cycle")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--labelling-out", default=None)
    _common(p, "target.bg")
    p.set_defaults(fn=cmd_gen_target)

    p = sub.add_parser("regularity", help="pair checks and partition building")
    p.add_argument("op", choices=["check", "partition"])
    p.add_argument("--host", required=True)
    p.add_argument("--epsilon", type=_rat, default=Fraction(1, 4))
    p.add_argument("--d", type=_rat, default=Fraction(3, 10))
    p.add_argument("--strategy", choices=["exhaustive", "sampled"], default="sampled")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--u", default=None, help="A-side indices, comma separated")
    p.add_argument("--w", default=None, help="B-side indices, comma separated")
    p.add_argument("--super-regular", action="store_true")
    p.add_argument("--k0", type=int, default=2)
    p.add_argument("--kmax", type=int, default=16)
    _common(p)
    p.set_defaults(fn=cmd_regularity)

    p = sub.add_parser("hamilton", help="find a Hamilton cycle")
    p.add_argument("--host", required=True)
    p.add_argument("--search", choices=["rotation-extension", "exhaustive-small"],
                   default=None)
    p.add_argument("--restarts", type=_count, default=None)
    _common(p)
    p.set_defaults(fn=cmd_hamilton)

    p = sub.add_parser("balance", help="sample a piece-to-cluster assignment")
    p.add_argument("--ni", required=True, help="cluster targets, '1000x8' or list")
    p.add_argument("--pieces", required=True, help="file of '<x> <y>' piece counts")
    p.add_argument("--xi", type=_rat, default=Fraction(1, 20))
    p.add_argument("--retries", type=_count, default=50)
    p.add_argument("--loose", action="store_true",
                   help="record instead of enforce the lemma hypotheses")
    _common(p)
    p.set_defaults(fn=cmd_balance)

    p = sub.add_parser("homomorphism", help="build and verify a cycle homomorphism")
    p.add_argument("--target", required=True)
    p.add_argument("--labelling", required=True)
    p.add_argument("--ni", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--beta-n", type=int, default=0)
    p.add_argument("--xi", type=_rat, default=Fraction(1, 4))
    p.add_argument("--retries", type=_count, default=50)
    p.add_argument("--loose", action="store_true")
    _common(p)
    p.set_defaults(fn=cmd_homomorphism)

    p = sub.add_parser("embed", help="run the full embedding pipeline")
    p.add_argument("--host", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--labelling", default=None)
    p.add_argument("--gamma", type=_rat, default=Fraction(1, 10))
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--k0", type=int, default=8)
    p.add_argument("--ell", type=int, default=64)
    p.add_argument("--epsilon", type=_rat, default=Fraction(1, 4))
    p.add_argument("--d", type=_rat, default=Fraction(3, 10))
    p.add_argument("--budget", type=int, default=800)
    p.add_argument("--retries", type=_count, default=8)
    p.add_argument("--report", default=None)
    p.add_argument("--mode", choices=["faithful", "practical"], default="practical")
    _common(p, "embedding.json")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("verify", help="re-validate a serialized artifact")
    p.add_argument("--host", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--embedding", default=None)
    p.add_argument("--cycle", default=None)
    p.add_argument("--homomorphism", default=None)
    p.add_argument("--ni", default="")
    p.add_argument("--xi", type=_rat, default=Fraction(1, 4))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("experiment", help="batch embed runs over seeds")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--gamma", type=_rat, default=Fraction(3, 10))
    p.add_argument("--slack", type=_rat, default=Fraction(1, 20))
    p.add_argument("--family", choices=TARGET_FAMILIES, default="hamilton-cycle")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--seeds", type=_count, default=5)
    p.add_argument("--k0", type=int, default=2)
    p.add_argument("--ell", type=int, default=16)
    p.add_argument("--epsilon", type=_rat, default=Fraction(1, 4))
    p.add_argument("--d", type=_rat, default=Fraction(3, 10))
    p.add_argument("--budget", type=int, default=400)
    p.add_argument("--retries", type=_count, default=8)
    p.add_argument("--mode", choices=["faithful", "practical"], default="practical")
    _common(p)
    p.set_defaults(fn=cmd_experiment)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except fileio.FileFormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (GraphError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
