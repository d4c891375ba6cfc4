"""Graph algorithms expressed as FlashGraph vertex programs (§4).

The six applications the paper evaluates, spanning its three I/O classes:

1. traversal, touching a vertex subset per iteration — :mod:`bfs`,
   :mod:`bc` (betweenness centrality);
2. all-active, mostly-sequential I/O — :mod:`pagerank`, :mod:`wcc`;
3. vertices reading many *other* vertices' edge lists — :mod:`triangle_count`,
   :mod:`scan_statistics`.

Extensions beyond the paper's evaluation set, each run by an example or
a bench row: :mod:`sssp`, :mod:`communities` (label propagation),
:mod:`louvain` and :mod:`diameter` (Table 1's diameter column).
"""

from repro.algorithms.bc import BetweennessCentralityProgram, betweenness_centrality
from repro.algorithms.communities import (
    LabelPropagationProgram,
    label_propagation,
    modularity,
)
from repro.algorithms.bfs import BFSProgram, bfs
from repro.algorithms.diameter import estimate_diameter
from repro.algorithms.louvain import LouvainResult, louvain
from repro.algorithms.pagerank import PageRankProgram, pagerank
from repro.algorithms.scan_statistics import ScanStatisticsProgram, scan_statistics
from repro.algorithms.sssp import SSSPProgram, sssp
from repro.algorithms.triangle_count import TriangleCountProgram, triangle_count
from repro.algorithms.wcc import WCCProgram, wcc

__all__ = [
    "BetweennessCentralityProgram",
    "betweenness_centrality",
    "LabelPropagationProgram",
    "label_propagation",
    "modularity",
    "BFSProgram",
    "bfs",
    "estimate_diameter",
    "LouvainResult",
    "louvain",
    "PageRankProgram",
    "pagerank",
    "ScanStatisticsProgram",
    "scan_statistics",
    "SSSPProgram",
    "sssp",
    "TriangleCountProgram",
    "triangle_count",
    "WCCProgram",
    "wcc",
]
