"""Graph-image integrity checking.

A storage system needs a fsck.  :func:`validate_image` cross-checks the
three representations a :class:`~repro.graph.builder.GraphImage` carries —
serialized edge-list files, compact index, CSR adjacency — against each
other and reports every inconsistency:

- every edge list parses, in the image's format, at exactly the offset
  the index computes, with the vertex ID and degree the index promises;
- file sizes match the index's computed layout;
- for directed graphs, the in-edge file is the exact transpose of the
  out-edge file;
- neighbor IDs are in range and sorted (the on-SSD invariant merging and
  intersection algorithms rely on).
"""

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.graph.builder import GraphImage
from repro.graph.format import FORMAT_V2, csr_keys, parse_edge_list, parse_edge_list_v2
from repro.graph.types import EdgeType


@dataclass
class ValidationReport:
    """The outcome of one integrity check."""

    errors: List[str] = field(default_factory=list)
    vertices_checked: int = 0
    edges_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, message: str) -> None:
        self.errors.append(message)

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.errors)} errors"
        return (
            f"ValidationReport({status}, vertices={self.vertices_checked}, "
            f"edges={self.edges_checked})"
        )


def _validate_direction(image: GraphImage, direction: EdgeType, report: ValidationReport) -> None:
    index = image.index(direction)
    data = memoryview(image.file_bytes(direction))
    csr = image.csr(direction)
    if index.file_size != len(data):
        report.add(
            f"{direction.value}: index says {index.file_size} bytes, "
            f"file holds {len(data)}"
        )
        return
    num_vertices = image.num_vertices
    offsets, sizes = index.locate_many(np.arange(num_vertices))
    parse = parse_edge_list_v2 if image.fmt == FORMAT_V2 else parse_edge_list
    for vertex in range(num_vertices):
        try:
            vid, neighbors = parse(data, int(offsets[vertex]))
        except ValueError as exc:
            report.add(f"{direction.value}: vertex {vertex} unparseable: {exc}")
            continue
        if vid != vertex:
            report.add(
                f"{direction.value}: offset of vertex {vertex} holds header "
                f"of vertex {vid}"
            )
            continue
        expected_degree = index.degree(vertex)
        if neighbors.size != expected_degree:
            report.add(
                f"{direction.value}: vertex {vertex} degree {neighbors.size} "
                f"on disk vs {expected_degree} in index"
            )
        in_csr = csr.neighbors(vertex)
        if not np.array_equal(neighbors, in_csr):
            report.add(
                f"{direction.value}: vertex {vertex} neighbors differ "
                f"between file and CSR"
            )
        if neighbors.size:
            if int(neighbors.max()) >= num_vertices:
                report.add(
                    f"{direction.value}: vertex {vertex} has out-of-range "
                    f"neighbor {int(neighbors.max())}"
                )
            if np.any(np.diff(neighbors.astype(np.int64)) < 0):
                report.add(
                    f"{direction.value}: vertex {vertex} neighbors not sorted"
                )
        report.vertices_checked += 1
        report.edges_checked += int(neighbors.size)


def _validate_transpose(image: GraphImage, report: ValidationReport) -> None:
    # Both directions keyed src * n + dst, the in-edges transposed back.
    n, out_csr, in_csr = image.num_vertices, image.out_csr, image.in_csr
    out_edges = set(csr_keys(out_csr.indptr, out_csr.indices, n).tolist())
    in_edges = set(csr_keys(in_csr.indptr, in_csr.indices, n, transpose=True).tolist())
    missing = out_edges - in_edges
    extra = in_edges - out_edges
    if missing:
        report.add(f"transpose: {len(missing)} out-edges absent from in-file")
    if extra:
        report.add(f"transpose: {len(extra)} in-edges absent from out-file")


def validate_image(image: GraphImage, check_transpose: bool = True) -> ValidationReport:
    """Full integrity check of a graph image.

    ``check_transpose`` compares the two directions edge-by-edge (O(E)
    memory); disable it for very large images.
    """
    report = ValidationReport()
    _validate_direction(image, EdgeType.OUT, report)
    if image.directed:
        _validate_direction(image, EdgeType.IN, report)
        if check_transpose:
            _validate_transpose(image, report)
    return report
