"""Tests for the label-propagation extension and modularity."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.communities import (
    LabelPropagationProgram,
    label_propagation,
    modularity,
)
from repro.core.config import ExecutionMode
from repro.graph.builder import build_directed, build_undirected

from tests.conftest import engine_for


def two_cliques(size=8, bridge=True):
    edges = []
    for base in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                edges.append([base + i, base + j])
    if bridge:
        edges.append([0, size])
    return build_undirected(np.asarray(edges), 2 * size, name="cliques")


class TestLabelPropagation:
    def test_two_cliques_found(self):
        image = two_cliques()
        labels, result = label_propagation(engine_for(image, range_shift=2))
        assert len(set(labels[:8].tolist())) == 1
        assert len(set(labels[8:].tolist())) == 1
        assert labels[0] != labels[8]

    def test_modes_agree(self):
        image = two_cliques()
        sem, _ = label_propagation(engine_for(image, range_shift=2))
        mem, _ = label_propagation(
            engine_for(image, mode=ExecutionMode.IN_MEMORY, range_shift=2)
        )
        assert np.array_equal(sem, mem)

    def test_respects_round_cap(self, er_uimage):
        _, result = label_propagation(engine_for(er_uimage), max_rounds=3)
        assert result.iterations <= 3

    def test_directed_graph_supported(self, er_image):
        labels, _ = label_propagation(engine_for(er_image), max_rounds=5)
        assert labels.size == er_image.num_vertices

    def test_num_communities(self):
        image = two_cliques(bridge=False)
        engine = engine_for(image, range_shift=2)
        program = LabelPropagationProgram(image.num_vertices, image.directed)
        engine.run(program, max_iterations=program.max_rounds)
        assert program.num_communities() == 2

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            LabelPropagationProgram(4, False, max_rounds=0)


class TestModularity:
    def test_perfect_split_beats_random(self):
        image = two_cliques()
        perfect = np.concatenate([np.zeros(8), np.ones(8)])
        rng = np.random.default_rng(0)
        scrambled = rng.integers(0, 2, size=16)
        assert modularity(image, perfect) > modularity(image, scrambled)

    def test_matches_networkx(self):
        image = two_cliques()
        labels = np.concatenate([np.zeros(8, dtype=int), np.ones(8, dtype=int)])
        graph = nx.Graph()
        graph.add_nodes_from(range(16))
        for v in range(16):
            for u in image.out_csr.neighbors(v):
                graph.add_edge(v, int(u))
        expected = nx.community.modularity(
            graph, [set(range(8)), set(range(8, 16))]
        )
        assert modularity(image, labels) == pytest.approx(expected)

    def test_single_community_modularity_zero(self):
        image = two_cliques(bridge=False)
        labels = np.zeros(16, dtype=int)
        # One community holding everything: Q = 1 - 1 = 0.
        assert modularity(image, labels) == pytest.approx(0.0)

    def test_empty_graph(self):
        image = build_undirected(np.zeros((0, 2), dtype=np.int64), 3)
        assert modularity(image, np.zeros(3)) == 0.0

    def test_wrong_length_rejected(self):
        image = two_cliques()
        with pytest.raises(ValueError):
            modularity(image, np.zeros(3))
