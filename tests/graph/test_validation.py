"""Tests for the image integrity checker."""

import numpy as np
import pytest

from repro.graph.builder import build_directed, build_undirected
from repro.graph.generators import rmat_graph
from repro.graph.validation import ValidationReport, validate_image

BUILDS = {"directed": build_directed, "undirected": build_undirected}


class TestCleanImages:
    def test_directed_image_validates(self, er_image):
        report = validate_image(er_image)
        assert report.ok, report.errors[:3]
        assert report.vertices_checked == 2 * er_image.num_vertices
        assert report.edges_checked == 2 * er_image.out_csr.num_edges

    def test_undirected_image_validates(self, er_uimage):
        report = validate_image(er_uimage)
        assert report.ok

    def test_rmat_image_validates(self, rmat_image):
        assert validate_image(rmat_image).ok

    def test_empty_graph_validates(self):
        image = build_directed(np.zeros((0, 2), dtype=np.int64), 4, name="v-empty")
        assert validate_image(image).ok

    def test_transpose_check_optional(self, er_image):
        report = validate_image(er_image, check_transpose=False)
        assert report.ok


@pytest.mark.parametrize("fmt", ["v1", "v2"])
@pytest.mark.parametrize("kind", sorted(BUILDS))
class TestEveryFormat:
    """Each list is parsed in its image's format (a v2 image used to be
    parsed as v1 and fail on every nonempty list)."""

    def test_clean_image_validates(self, fmt, kind):
        edges, n = rmat_graph(8, 8)
        image = BUILDS[kind](edges, n, name="v-fmt", fmt=fmt)
        report = validate_image(image)
        assert report.ok, report.errors[:3]
        directions = 2 if image.directed else 1
        assert report.vertices_checked == directions * n
        assert report.edges_checked == directions * image.out_csr.num_edges

    def test_corrupted_neighbor_reported(self, fmt, kind):
        image = BUILDS[kind](np.array([[0, 1], [0, 2], [1, 2]]), 3, name="v-fmt-c", fmt=fmt)
        data = bytearray(image.out_bytes)
        data[image.out_index.locate(0)[0] + 8 + (fmt == "v2")] += 1  # vertex 0's first neighbor
        image.out_bytes = bytes(data)
        report = validate_image(image)
        assert any("vertex 0 neighbors differ" in e for e in report.errors), report.errors


class TestCorruptionDetection:
    def test_flipped_header_vertex_id(self):
        image = build_directed(np.array([[0, 1], [1, 2]]), 3, name="v-c1")
        data = bytearray(image.out_bytes)
        data[0] = 99  # vertex 0's on-disk id
        image.out_bytes = bytes(data)
        report = validate_image(image)
        assert not report.ok
        assert any("holds header of vertex" in e for e in report.errors)

    def test_corrupted_degree(self):
        image = build_directed(np.array([[0, 1], [0, 2]]), 3, name="v-c2")
        data = bytearray(image.out_bytes)
        data[4] = 1  # vertex 0 claims degree 1 instead of 2
        image.out_bytes = bytes(data)
        report = validate_image(image)
        assert not report.ok

    def test_truncated_file(self):
        image = build_directed(np.array([[0, 1], [1, 2]]), 3, name="v-c3")
        image.out_bytes = image.out_bytes[:-4]
        report = validate_image(image)
        assert not report.ok
        assert any("bytes" in e for e in report.errors)

    def test_unsorted_neighbors_detected(self):
        image = build_directed(np.array([[0, 1], [0, 2]]), 3, name="v-c4")
        data = bytearray(image.out_bytes)
        # Swap vertex 0's two neighbor words (offsets 8..12 and 12..16).
        data[8:12], data[12:16] = data[12:16], data[8:12]
        image.out_bytes = bytes(data)
        report = validate_image(image)
        assert not report.ok
        assert any("not sorted" in e or "differ" in e for e in report.errors)

    def test_report_repr(self):
        report = ValidationReport()
        assert "ok" in repr(report)
        report.add("boom")
        assert "1 errors" in repr(report)
