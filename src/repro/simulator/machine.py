"""Machine models.

The default parameters approximate a Marenostrum III compute node (two 8-core
Sandy Bridge sockets, ~50 GB/s of memory bandwidth, FDR-10 InfiniBand between
nodes).  Absolute accuracy is not the goal — the reproduction compares shapes,
not wall-clock seconds — but the ratios (compute throughput vs. memory
bandwidth vs. network bandwidth) drive which benchmarks scale and which do
not, so they are kept realistic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive, check_positive_int


@dataclass(frozen=True)
class MachineSpec:
    """A homogeneous cluster of multi-core nodes.

    Attributes
    ----------
    n_nodes:
        Number of nodes.
    cores_per_node:
        Worker cores per node available to original tasks.
    spare_cores_per_node:
        Cores reserved for replicas ("task replicas are executed on spare
        cores").  The paper's complete-replication experiments imply a full
        second set of cores; selective replication needs fewer.
    memory_bandwidth_Bps:
        Sustained per-node memory bandwidth shared by all cores of the node.
    core_flops:
        Sustained per-core floating-point throughput used to convert benchmark
        flop counts into durations.
    network_latency_s / network_bandwidth_Bps:
        Inter-node link characteristics for the distributed benchmarks.
    """

    n_nodes: int = 1
    cores_per_node: int = 16
    spare_cores_per_node: int = 16
    memory_bandwidth_Bps: float = 50e9
    core_flops: float = 10e9
    network_latency_s: float = 1.5e-6
    network_bandwidth_Bps: float = 4e9

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes")
        check_positive_int(self.cores_per_node, "cores_per_node")
        check_non_negative(self.spare_cores_per_node, "spare_cores_per_node")
        check_positive(self.memory_bandwidth_Bps, "memory_bandwidth_Bps")
        check_positive(self.core_flops, "core_flops")
        check_non_negative(self.network_latency_s, "network_latency_s")
        check_positive(self.network_bandwidth_Bps, "network_bandwidth_Bps")

    @property
    def total_cores(self) -> int:
        """Total worker cores across the cluster (excluding spares)."""
        return self.n_nodes * self.cores_per_node

    @property
    def total_spare_cores(self) -> int:
        """Total spare cores across the cluster."""
        return self.n_nodes * self.spare_cores_per_node

    def with_cores(self, cores_per_node: int, spare_cores_per_node: int | None = None) -> "MachineSpec":
        """A copy with a different core count (spares default to matching)."""
        from dataclasses import replace

        if spare_cores_per_node is None:
            spare_cores_per_node = cores_per_node
        return replace(
            self, cores_per_node=cores_per_node, spare_cores_per_node=spare_cores_per_node
        )

    def with_nodes(self, n_nodes: int) -> "MachineSpec":
        """A copy with a different node count."""
        from dataclasses import replace

        return replace(self, n_nodes=n_nodes)


def shared_memory_node(cores: int = 16, spare_cores: int | None = None) -> MachineSpec:
    """One Marenostrum-like node, as used by the shared-memory experiments."""
    if spare_cores is None:
        spare_cores = cores
    return MachineSpec(n_nodes=1, cores_per_node=cores, spare_cores_per_node=spare_cores)


def marenostrum_cluster(n_nodes: int = 64, cores_per_node: int = 16) -> MachineSpec:
    """The distributed configuration of the paper: up to 64 nodes x 16 cores."""
    return MachineSpec(
        n_nodes=n_nodes,
        cores_per_node=cores_per_node,
        spare_cores_per_node=cores_per_node,
    )
