"""Zero-copy edge-list views handed to vertex programs.

When an I/O request completes, the vertex program reads the vertex's
edge list in place: this is the ``page_vertex`` argument of
``run_on_vertex`` in the paper's API (Figure 3).  A delivered wave is one
:class:`PageVertexBatch`; each of its lists is a :class:`PageVertex` view
of the wave's one neighbor array, so no edge data is copied into
per-vertex buffers.
"""

from typing import Optional

import numpy as np

from repro.graph.format import gather_ranges, scatter_positions
from repro.graph.types import EdgeType

__all__ = [
    "DIRECTIONS",
    "PageVertex",
    "PageVertexBatch",
    "gather_ranges",
    "scatter_positions",
]


class PageVertex:
    """A vertex's edge list, a view of a delivered wave's arrays."""

    __slots__ = ("_vertex_id", "_edges", "_edge_type", "_attrs")

    @classmethod
    def from_arrays(
        cls,
        vertex_id: int,
        edges: np.ndarray,
        edge_type: EdgeType = EdgeType.OUT,
        attrs: Optional[np.ndarray] = None,
    ) -> "PageVertex":
        """A view of ``edges`` (and ``attrs``), built without ``__init__``."""
        view = cls.__new__(cls)
        view._vertex_id = int(vertex_id)
        view._edges = np.asarray(edges, dtype=np.uint32)
        view._edge_type = edge_type
        view._attrs = attrs
        return view

    @property
    def vertex_id(self) -> int:
        """The vertex this edge list belongs to."""
        return self._vertex_id

    @property
    def edge_type(self) -> EdgeType:
        """Which direction's list this is (IN or OUT)."""
        return self._edge_type

    @property
    def num_edges(self) -> int:
        """Degree in this direction."""
        return int(self._edges.size)

    def read_edges(self) -> np.ndarray:
        """The neighbor IDs, zero-copy (paper: ``v.read_edges(dest_buf)``)."""
        return self._edges

    def read_edge_attrs(self) -> np.ndarray:
        """Per-edge attributes, when the algorithm requested them."""
        if self._attrs is None:
            raise ValueError(
                f"vertex {self._vertex_id}: edge attributes were not requested"
            )
        return self._attrs

    @property
    def has_attrs(self) -> bool:
        return self._attrs is not None

    def __repr__(self) -> str:
        return (
            f"PageVertex(id={self._vertex_id}, degree={self.num_edges}, "
            f"type={self._edge_type.value})"
        )


# gather_ranges / scatter_positions live in repro.graph.format (the v2
# codec needs them below PageVertex in the import graph); they are
# re-exported here for existing callers.


#: A list's direction code (:attr:`PageVertexBatch.directions`) indexes
#: this tuple.
DIRECTIONS = (EdgeType.OUT, EdgeType.IN)


class PageVertexBatch:
    """Edge lists of a whole delivered wave, parsed as flat arrays.

    The batched twin of :class:`PageVertex`: list ``i`` was requested by
    ``vertices[i]`` and is the ``DIRECTIONS[directions[i]]`` edge list of
    ``owners[i]``, holding ``degrees[i]`` neighbors.  Every list sits
    concatenated in delivery order inside one array; so does every
    list's attribute block, one float32 per edge, where ``has_attrs[i]``
    (``None``: no list of the wave was requested with attributes).
    Handed to ``VertexProgram.run_on_vertices`` so data-parallel
    algorithms touch numpy arrays instead of one ``PageVertex`` per list.
    """

    __slots__ = ("vertices", "owners", "directions", "degrees", "has_attrs", "_edges", "_attrs")

    def __init__(
        self,
        vertices: np.ndarray,
        owners: np.ndarray,
        directions: np.ndarray,
        degrees: np.ndarray,
        edges: np.ndarray,
        has_attrs: Optional[np.ndarray] = None,
        attrs: Optional[np.ndarray] = None,
    ) -> None:
        self.vertices = vertices
        self.owners = owners
        self.directions = directions
        self.degrees = degrees
        self.has_attrs = has_attrs
        self._edges = edges
        self._attrs = attrs

    @property
    def num_lists(self) -> int:
        """Delivered edge lists (one per requesting vertex occurrence)."""
        return int(self.vertices.size)

    @property
    def total_edges(self) -> int:
        return int(self._edges.size)

    def read_edges_concat(self) -> np.ndarray:
        """All neighbor IDs, list after list in delivery order."""
        return self._edges

    def read_edge_attrs_concat(self) -> np.ndarray:
        """Every edge's attribute, aligned with :meth:`read_edges_concat`
        (NaN on the edges of a list delivered without attributes)."""
        if self._attrs is None:
            raise ValueError("edge attributes were not requested")
        return self._attrs

    def repeat(self, per_list_values: np.ndarray) -> np.ndarray:
        """Expand one value per list to one value per edge (the batched
        form of multicasting a scalar message payload to every neighbor)."""
        return np.repeat(np.asarray(per_list_values), self.degrees)

    def page_vertices(self):
        """Each list as the ``(vertices[i], PageVertex)`` pair
        ``run_on_vertex`` receives, in delivery order (zero-copy views)."""
        edges, attrs, has_attrs = self._edges, self._attrs, self.has_attrs
        with_attrs = [False] * self.num_lists if has_attrs is None else has_attrs.tolist()
        start = 0
        for vertex, owner, code, end, has in zip(
            self.vertices.tolist(),
            self.owners.tolist(),
            self.directions.tolist(),
            np.cumsum(self.degrees).tolist(),
            with_attrs,
        ):
            yield vertex, PageVertex.from_arrays(
                owner, edges[start:end], DIRECTIONS[code], attrs[start:end] if has else None
            )
            start = end
