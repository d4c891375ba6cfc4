"""Graph data representations (§3.5).

FlashGraph keeps two representations of a graph:

- **on SSDs** (:mod:`repro.graph.format`): edge lists sorted by vertex ID,
  each with a small header, in-edge and out-edge lists stored in separate
  files, edge attributes detached into their own files.  Format ``v2``
  (opt-in) stores each list's sorted neighbors as delta + group-varint
  bytes — see ``docs/graph_format.md``;
- **in memory** (:mod:`repro.graph.index`): a compact graph index that
  stores one degree byte per vertex (large degrees spill to a hash table)
  plus one exact byte offset every 32 edge lists, so edge-list locations
  are *computed* rather than stored — slightly over 1.25 bytes per vertex
  per direction.

:mod:`repro.graph.builder` turns raw edge arrays into both representations,
:mod:`repro.graph.generators` fabricates the scaled-down stand-ins for the
paper's Twitter/subdomain/page datasets, and
:mod:`repro.graph.page_vertex` parses edge lists straight out of cached
SAFS pages.
"""

from repro.graph.builder import GraphImage, build_directed, build_undirected
from repro.graph.format import (
    EDGE_BYTES,
    FORMAT_V1,
    FORMAT_V2,
    FORMATS,
    HEADER_BYTES,
    decode_lists_v2,
    edge_list_size,
    parse_edge_list,
    parse_edge_list_v2,
    serialize_adjacency,
    serialize_adjacency_v2,
    v2_edge_list_sizes,
)
from repro.graph.generators import (
    erdos_renyi_graph,
    page_sim,
    rmat_graph,
    subdomain_sim,
    twitter_sim,
    web_graph,
)
from repro.graph.index import GraphIndex, GraphIndexV2, build_index_v2
from repro.graph.page_vertex import PageVertex, PageVertexBatch
from repro.graph.stats import degree_stats, degree_histogram, id_locality
from repro.graph.transform import (
    edge_array,
    largest_wcc,
    reverse,
    subgraph,
    to_undirected,
)
from repro.graph.types import EdgeType, INVALID_VERTEX, VertexID
from repro.graph.validation import ValidationReport, validate_image

__all__ = [
    "GraphImage",
    "build_directed",
    "build_undirected",
    "EDGE_BYTES",
    "FORMAT_V1",
    "FORMAT_V2",
    "FORMATS",
    "HEADER_BYTES",
    "decode_lists_v2",
    "edge_list_size",
    "parse_edge_list",
    "parse_edge_list_v2",
    "serialize_adjacency",
    "serialize_adjacency_v2",
    "v2_edge_list_sizes",
    "erdos_renyi_graph",
    "page_sim",
    "rmat_graph",
    "subdomain_sim",
    "twitter_sim",
    "web_graph",
    "GraphIndex",
    "GraphIndexV2",
    "build_index_v2",
    "PageVertex",
    "PageVertexBatch",
    "degree_stats",
    "degree_histogram",
    "id_locality",
    "edge_array",
    "largest_wcc",
    "reverse",
    "subgraph",
    "to_undirected",
    "EdgeType",
    "INVALID_VERTEX",
    "VertexID",
    "ValidationReport",
    "validate_image",
]
