"""Calibrated CPU cost model for the simulated machine.

The paper's testbed is a four-socket Intel Xeon E5-4620 (32 cores, 64
hardware threads) running 32 worker threads.  All constants below are
per-operation CPU times in **simulated seconds**; they were chosen so that

- in-memory FlashGraph lands in the same band as Galois (Figure 10),
- semi-external FlashGraph saturates CPU before I/O for CPU-heavy
  applications (WCC, PageRank) and saturates I/O for BFS (Figure 9),
- per-request kernel-side I/O cost is large enough that merging requests in
  the engine visibly beats merging in the filesystem (Figure 12).

The absolute values are unremarkable commodity-server numbers (a few
nanoseconds per edge, a couple of microseconds per I/O request); only the
*ratios* matter for reproducing the paper's shapes.
"""

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU costs and machine geometry.

    Instances are immutable; use :meth:`with_overrides` to derive variants
    (e.g. the Galois baseline lowers ``cpu_per_edge_mem``).
    """

    #: Worker threads the engine simulates (paper: 32 for every engine).
    num_threads: int = 32
    #: Physical cores; with hyperthreading the paper treats 50% utilisation
    #: of 64 hardware threads as CPU-saturated, i.e. 32 busy cores.
    num_cores: int = 32

    #: Parsing and processing one edge out of a cached SAFS page.
    cpu_per_edge_sem: float = 9e-9
    #: Processing one edge from an in-memory edge array (no page parsing).
    cpu_per_edge_mem: float = 6e-9
    #: Invoking ``run()`` on an active vertex (scheduling + state check).
    cpu_per_vertex_run: float = 120e-9
    #: Delivering one vertex message (buffered send + receive + dispatch).
    cpu_per_message: float = 30e-9
    #: Multicast delivery: one copy per *thread*, amortised per recipient.
    cpu_per_multicast_recipient: float = 12e-9

    #: Issuing one asynchronous I/O request through the SAFS user-task
    #: interface (no buffer allocation, no copy).
    cpu_per_io_request: float = 2.0e-6
    #: Issuing one request through a kernel filesystem (baselines; also used
    #: by the "merge in SAFS / in the block layer" ablation of Figure 12).
    cpu_per_io_request_kernel: float = 9.0e-6
    #: Looking a page up in the SAFS page cache (hit path).
    cpu_per_cache_lookup: float = 0.4e-6
    #: Kernel CPU consumed per 4KB page moved from SSD to the page cache.
    #: This is what makes triangle counting burn "almost 8 CPU cores" in
    #: kernel space in Figure 9.
    cpu_per_page_transfer: float = 1.1e-6

    #: Decoding one byte of a compressed (format v2) edge list: tag-byte
    #: read, shift/mask unpack and the delta prefix sum, amortised per
    #: encoded byte.  v1 pays nothing (its parse is a zero-copy cast).
    #: At ~2.2 encoded bytes per edge this adds ~3 ns/edge on top of
    #: ``cpu_per_edge_sem`` — decode stays far cheaper than the SSD bytes
    #: it saves, matching the BigSparse/Graphyti observation.
    cpu_per_decode_byte: float = 1.5e-9

    #: Extra per-vertex cost when the load balancer executes a stolen vertex
    #: (vertex state lives on a remote NUMA node; §3.8.1).
    cpu_steal_penalty: float = 60e-9

    #: Wall-clock cost of the per-iteration barrier (waking 32 workers,
    #: swapping frontier queues).  Comparable to Galois's scheduler round
    #: cost; matters only on small or high-diameter graphs.
    iteration_barrier: float = 25e-6

    def with_overrides(self, **overrides: float) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


#: The default machine used throughout the evaluation.
DEFAULT_COST_MODEL = CostModel()
