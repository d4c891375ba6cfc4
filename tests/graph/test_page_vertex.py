"""Unit tests for PageVertex views."""

import numpy as np
import pytest

from repro.graph.page_vertex import PageVertex
from repro.graph.types import EdgeType


class TestPageVertex:
    def test_from_arrays(self):
        view = PageVertex.from_arrays(7, np.array([1, 2]), EdgeType.IN)
        assert view.vertex_id == 7
        assert view.read_edges().tolist() == [1, 2]
        assert view.edge_type is EdgeType.IN

    def test_empty_edge_list(self):
        view = PageVertex.from_arrays(0, np.array([], dtype=np.uint32))
        assert view.num_edges == 0
        assert view.read_edges().size == 0

    def test_attrs(self):
        attrs = np.array([0.5, 1.5], dtype=np.float32)
        view = PageVertex.from_arrays(0, np.array([1, 2]), attrs=attrs)
        assert view.has_attrs
        assert view.read_edge_attrs().tolist() == [0.5, 1.5]

    def test_missing_attrs_raise(self):
        view = PageVertex.from_arrays(0, np.array([1]))
        assert not view.has_attrs
        with pytest.raises(ValueError):
            view.read_edge_attrs()

    def test_repr(self):
        view = PageVertex.from_arrays(4, np.array([9]))
        assert "id=4" in repr(view)


class TestEdgeType:
    def test_directions(self):
        assert EdgeType.OUT.directions() == (EdgeType.OUT,)
        assert EdgeType.IN.directions() == (EdgeType.IN,)
        assert EdgeType.BOTH.directions() == (EdgeType.OUT, EdgeType.IN)
