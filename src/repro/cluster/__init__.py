"""Multi-DPU clusters, the A9 network path, and rack provisioning."""

from .network import FabricConfig, IBFabric
from .rack import PAPER_RACK, Cluster, RackSpec
from .recovery import (
    ClusterError,
    RecoveryConfig,
    RecoveryManager,
    RecoveryStats,
)
from .scaleout import (
    ScaleOutResult,
    cluster_batched_queries,
    cluster_compiled_query,
    cluster_filter_count,
    cluster_groupby,
    cluster_hll,
    cluster_partitioned_join_count,
    cluster_topk,
)
from .shuffle import (
    ShuffleRackModel,
    ShuffleResult,
    partition_source,
    shuffle_cids,
    shuffle_exchange,
    shuffle_spec,
)

__all__ = [
    "Cluster",
    "ClusterError",
    "FabricConfig",
    "IBFabric",
    "PAPER_RACK",
    "RackSpec",
    "RecoveryConfig",
    "RecoveryManager",
    "RecoveryStats",
    "ScaleOutResult",
    "ShuffleRackModel",
    "ShuffleResult",
    "cluster_batched_queries",
    "cluster_compiled_query",
    "cluster_filter_count",
    "cluster_groupby",
    "cluster_hll",
    "cluster_partitioned_join_count",
    "cluster_topk",
    "partition_source",
    "shuffle_cids",
    "shuffle_exchange",
    "shuffle_spec",
]
