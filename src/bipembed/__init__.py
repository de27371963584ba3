"""Constructive embedding of bounded-degree, small-bandwidth balanced
bipartite graphs into dense balanced bipartite hosts.

The pipeline mirrors a regularity-method proof at desk scale: certify a
regular partition of the host, find a Hamilton cycle of its reduced graph,
make the partition super-regular along that cycle, absorb exceptional
vertices, cut the target along a bandwidth order into runs along the
cycle, adjust cluster sizes exactly, and finish with a verified
two-phase embedding.  Every intermediate object is exposed and checkable.

The names below are resolved on first access, each from the module that
defines it, so importing the package (as every ``bipembed`` command does)
loads none of its modules; a command loads only those it runs.
"""

# public name -> the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "graphs": (
            "BipartiteGraph", "Check", "Embedding", "Side", "VertexId", "VertexSet",
            "density", "edges_between", "verify_embedding",
        ),
        "regularity": (
            "ClusterPartition", "PairCertificate", "ReducedGraph", "RegularityParams",
            "Strategy", "Verdict", "build_regular_partition", "check_regular_pair",
            "check_super_regular_pair", "maximal_reduced_graph",
            "rebound_after_perturbation", "super_regularize",
        ),
        "hamilton": (
            "HamiltonCycle", "find_hamilton_cycle", "hamilton_cycle_exists", "verify_cycle",
        ),
        "homomorphism": (
            "BalancingAssignment", "BandwidthLabelling", "CycleHomomorphism",
            "PiecePartition", "balance_assignment", "bandwidth_labelling",
            "build_cycle_homomorphism", "partition_pieces", "partition_runs",
            "verify_cycle_homomorphism",
        ),
        "partitioner": (
            "HostPartitionState", "ParameterSchedule", "absorb_exceptional_vertices",
            "candidate_index_set", "derive_parameter_schedule", "prepare_host_partition",
            "redistribute_cluster_sizes", "resize_host_partition",
        ),
        "embedder": (
            "CompatibilityReport", "EmbedConfig", "compatibility_report",
            "embed_bipartite", "embed_compatible",
        ),
        "generators": ("InstanceSpec", "gen_host", "gen_target"),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its module and kept here on first use."""
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
