"""External-memory graph construction (the "Init time" of Table 2).

FlashGraph amortises construction cost: the image is built once and one
external-memory structure serves every algorithm (§3.5.2).  Construction
of a graph bigger than RAM is an external merge-sort of the edge list:

1. **chunk**: stream the raw edge list from storage in RAM-sized chunks,
   sort each by source vertex, write sorted runs back;
2. **merge**: k-way merge the runs into the final vertex-ID-ordered
   edge-list files (out-edges, then the transpose pass for in-edges);
3. **index**: distill the degree array into the compact graph index.

This module performs the construction *for real* on the in-memory edge
arrays (numpy sorts standing in for the run sorts) while modelling the
time of every storage pass through the array's read bandwidth and the
SAFS write path — giving Table 2's init column a mechanical basis rather
than a guess.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.builder import GraphImage, build_directed
from repro.safs.write_path import GraphLoader, WriteModel
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector

#: Bytes per raw input edge (two u32 endpoints).
RAW_EDGE_BYTES = 8


@dataclass(frozen=True)
class ConstructionConfig:
    """Knobs of the external sort."""

    #: RAM available for sorting, in bytes — determines run count.
    sort_memory_bytes: int = 1 << 20
    #: CPU cost per edge per sort/merge pass.
    cpu_per_edge: float = 20e-9
    #: Cores participating in the sort.
    num_cores: int = 32


@dataclass
class ConstructionReport:
    """What building one image cost."""

    image: GraphImage
    #: Simulated seconds for the whole construction.
    seconds: float
    #: External sort runs (1 = the edge list fit in memory).
    num_runs: int
    #: Bytes read from / written to the array across all passes.
    bytes_read: float
    bytes_written: float
    #: Flash pages programmed, including write amplification (wear).
    flash_pages_programmed: int


class GraphConstructor:
    """Builds images and accounts the external-sort passes."""

    def __init__(
        self,
        array: Optional[SSDArray] = None,
        config: Optional[ConstructionConfig] = None,
        write_model: Optional[WriteModel] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.stats = stats if stats is not None else StatsCollector()
        self.array = array or SSDArray(SSDArrayConfig(), self.stats)
        self.config = config or ConstructionConfig()
        if self.config.sort_memory_bytes <= 0:
            raise ValueError("sort memory must be positive")
        self.loader = GraphLoader(self.array, write_model, self.stats)

    def num_runs(self, num_edges: int) -> int:
        """Sorted runs the chunk phase produces."""
        run_edges = max(1, self.config.sort_memory_bytes // RAW_EDGE_BYTES)
        return max(1, (num_edges + run_edges - 1) // run_edges)

    def build(
        self, edges: np.ndarray, num_vertices: int, name: str = "graph"
    ) -> ConstructionReport:
        """Construct a directed image and report the simulated cost.

        The edge data really is sorted and serialized (via the builder,
        which takes integer edges at their own width); the report prices
        the equivalent external passes.
        """
        edges = np.asarray(edges).reshape(-1, 2)
        num_edges = int(edges.shape[0])
        raw_bytes = float(num_edges * RAW_EDGE_BYTES)
        runs = self.num_runs(num_edges)

        read_bw = self.array.config.max_bandwidth
        seconds = 0.0
        bytes_read = 0.0
        bytes_written = 0.0

        # Pass 1 — chunk: read raw edges, sort runs in RAM, write runs.
        seconds += raw_bytes / read_bw
        seconds += self.loader.write_time(int(raw_bytes))
        seconds += num_edges * self.config.cpu_per_edge / self.config.num_cores
        bytes_read += raw_bytes
        bytes_written += raw_bytes

        # Pass 2 — merge runs into the out-edge file (skipped if 1 run),
        # then pass 3 — the transpose sort for the in-edge file.
        transpose_passes = 1
        merge_passes = (1 if runs > 1 else 0) + transpose_passes
        for _ in range(merge_passes):
            seconds += raw_bytes / read_bw
            seconds += self.loader.write_time(int(raw_bytes))
            seconds += num_edges * self.config.cpu_per_edge / self.config.num_cores
            bytes_read += raw_bytes
            bytes_written += raw_bytes

        # The actual construction (exact bytes, exact index).
        image = build_directed(edges, num_vertices, name=name)

        # Final write of the serialized image files (and the wear bill).
        write_seconds, programmed = self.loader.load_image(image)
        seconds += write_seconds
        bytes_written += image.storage_bytes()

        return ConstructionReport(
            image=image,
            seconds=seconds,
            num_runs=runs,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            flash_pages_programmed=programmed,
        )


def init_time(
    image: GraphImage, array: Optional[SSDArray] = None
) -> float:
    """Table 2's init column: loading an already-constructed image.

    Init scans the on-SSD edge-list headers once to distill degrees into
    the compact index, then allocates engine state — a sequential read of
    the image plus per-vertex index work.
    """
    array = array or SSDArray(SSDArrayConfig())
    scan = image.storage_bytes() / array.config.max_bandwidth
    index_build = image.num_vertices * 25e-9
    return scan + index_build
