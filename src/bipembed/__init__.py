"""Constructive embedding of bounded-degree, small-bandwidth balanced
bipartite graphs into dense balanced bipartite hosts.

The pipeline mirrors a regularity-method proof at desk scale: certify a
regular partition of the host, find a Hamilton cycle of its reduced graph,
make the partition super-regular along that cycle, absorb exceptional
vertices, cut the target along a bandwidth order into runs along the
cycle, adjust cluster sizes exactly, and finish with a verified
two-phase embedding.  Every intermediate object is exposed and checkable.
"""

from .graphs import (
    BipartiteGraph,
    Check,
    Side,
    VertexId,
    VertexSet,
    degree_into,
    density,
    edges_between,
)
from .regularity import (
    ClusterPartition,
    PairCertificate,
    ReducedGraph,
    RegularityParams,
    Strategy,
    Verdict,
    build_regular_partition,
    check_regular_pair,
    check_super_regular_pair,
    maximal_reduced_graph,
    rebound_after_perturbation,
    super_regularize,
)
from .hamilton import HamiltonCycle, find_hamilton_cycle, hamilton_cycle_exists, verify_cycle
from .homomorphism import (
    BalancingAssignment,
    BandwidthLabelling,
    CycleHomomorphism,
    PiecePartition,
    balance_assignment,
    bandwidth_labelling,
    build_cycle_homomorphism,
    failure_probability_bound,
    partition_pieces,
    partition_runs,
    verify_cycle_homomorphism,
)
from .partitioner import (
    HostPartitionState,
    ParameterSchedule,
    absorb_exceptional_vertices,
    candidate_index_set,
    derive_parameter_schedule,
    prepare_host_partition,
    redistribute_cluster_sizes,
    resize_host_partition,
)
from .embedder import (
    CompatibilityReport,
    EmbedConfig,
    Embedding,
    compatibility_report,
    embed_bipartite,
    embed_compatible,
    verify_embedding,
)
from .generators import InstanceSpec, gen_host, gen_target

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
