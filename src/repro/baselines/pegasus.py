"""A PEGASUS-like GIM-V engine over a MapReduce cost model ([13], §2).

PEGASUS expresses graph algorithms as *generalized iterated matrix-vector
multiplication* on Hadoop: every iteration is a full MapReduce job that
joins the edge file with the vector file, shuffles, and reduces.  The
paper's related-work point is that this works tolerably for PageRank-like
computations and terribly for traversals — every iteration pays the full
scan-shuffle-materialise cost no matter how small the frontier, plus the
per-job scheduling latency Hadoop is famous for.

Only job times are modelled: the traces come from
:mod:`repro.baselines.common`, the costs from the MapReduce model.
"""

from dataclasses import dataclass
from typing import Optional

from repro.baselines.common import (
    BaselineReport,
    bfs_trace,
    pagerank_trace,
    wcc_trace,
)
from repro.graph.builder import GraphImage


@dataclass(frozen=True)
class PegasusCostModel:
    """Hadoop-cluster constants (modest cluster of the paper's era)."""

    #: Worker machines in the Hadoop cluster.
    num_machines: int = 16
    #: Per-machine streaming bandwidth for scan + shuffle, bytes/second.
    machine_bandwidth: float = 100e6
    #: Bytes of the edge file touched per iteration, per edge (join input).
    bytes_per_edge: float = 16.0
    #: Bytes shuffled per produced partial result.
    bytes_per_message: float = 24.0
    #: Per-job scheduling and startup latency (the MapReduce floor).
    job_latency: float = 15.0
    #: CPU per edge combined in map+reduce.
    cpu_per_edge: float = 60e-9
    #: Cores per machine.
    cores_per_machine: int = 8


class PegasusEngine:
    """Runs GIM-V workloads under the MapReduce cost model."""

    SUPPORTED = ("pagerank", "wcc", "bfs")
    name = "pegasus"

    def __init__(
        self, image: GraphImage, cost_model: Optional[PegasusCostModel] = None
    ) -> None:
        self.image = image
        self.cost = cost_model or PegasusCostModel()

    def run(self, algorithm: str, source: int = 0, max_iterations: int = 30) -> BaselineReport:
        """Execute ``algorithm`` and report MapReduce-cluster time."""
        if algorithm == "pagerank":
            _, trace = pagerank_trace(self.image, max_iterations=max_iterations)
        elif algorithm == "wcc":
            _, trace = wcc_trace(self.image)
        elif algorithm == "bfs":
            # Sparse-vector GIM-V still scans the full matrix per job.
            _, trace = bfs_trace(self.image, source)
        else:
            raise ValueError(f"unsupported algorithm {algorithm!r}")
        cost = self.cost
        total_edges = self.image.out_csr.num_edges
        cluster_bandwidth = cost.num_machines * cost.machine_bandwidth
        cluster_cores = cost.num_machines * cost.cores_per_machine
        runtime = 0.0
        bytes_read = 0.0
        for stats in trace.iterations:
            scan = total_edges * cost.bytes_per_edge
            shuffle = stats.edges_traversed * cost.bytes_per_message
            io_time = (scan + shuffle) / cluster_bandwidth
            cpu_time = total_edges * cost.cpu_per_edge / cluster_cores
            runtime += max(io_time, cpu_time) + cost.job_latency
            bytes_read += scan + shuffle
        return BaselineReport(
            system=self.name,
            algorithm=trace.algorithm,
            runtime=runtime,
            iterations=trace.num_iterations,
            bytes_read=bytes_read,
            bytes_written=bytes_read,  # materialised between jobs
            memory_bytes=cost.num_machines * 64e6,
            details={"total_edges_processed": trace.total_edges},
        )
