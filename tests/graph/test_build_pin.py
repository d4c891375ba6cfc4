"""Pins every byte the image builder produces, and the edges it is fed.

The generators' outputs (``page_sim``, ``twitter_sim``, ``subdomain_sim``,
R-MAT, Erdős–Rényi and ``web_graph`` at three localities) are pinned by
sha256.  Each is then built as an image under format v1 and v2, directed
and undirected, without and with weights.  The weights are drawn for an
edge array that repeats a third of its edges in reverse order, so every
duplicate carries a different weight and the first one must win.  Each
image pins the digests of both CSRs, both edge files, the attribute
bytes and offsets, ``edge_count`` and each index's ``file_size``.

Regenerate (only when the builder's output legitimately changes)::

    PYTHONPATH=src python tests/graph/test_build_pin.py --regen
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.graph.builder import build_directed, build_undirected
from repro.graph.generators import (
    erdos_renyi_graph,
    page_sim,
    rmat_graph,
    subdomain_sim,
    twitter_sim,
    web_graph,
)

FIXTURE = Path(__file__).resolve().parent / "golden_build.json"

GENERATORS = {
    "page_sim": lambda: page_sim(1 << 12),
    "twitter_sim": lambda: twitter_sim(10),
    "subdomain_sim": lambda: subdomain_sim(10),
    "rmat": lambda: rmat_graph(9, edge_factor=8, seed=7),
    "er": lambda: erdos_renyi_graph(700, 5000, seed=5),
    "web_l0": lambda: web_graph(4096, edge_factor=8, locality=0.0, seed=0),
    "web_l05": lambda: web_graph(4096, edge_factor=8, locality=0.5, seed=1),
    "web_l09": lambda: web_graph(4096, edge_factor=8, locality=0.9, seed=2),
}

CASES = [
    f"{gen}-{fmt}-{kind}-{weights}"
    for gen in GENERATORS
    for fmt in ("v1", "v2")
    for kind in ("directed", "undirected")
    for weights in ("plain", "weighted")
]


def _digest(array) -> str:
    """sha256 over dtype, shape and bytes, so a dtype change shows too."""
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def _bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@lru_cache(maxsize=None)
def _generated(gen: str):
    return GENERATORS[gen]()


def generator_digest(gen: str) -> dict:
    edges, n = _generated(gen)
    return {"num_vertices": n, "edges": _digest(edges)}


def run_case(case: str) -> dict:
    gen, fmt, kind, weighted = case.split("-")
    edges, n = _generated(gen)
    weights = None
    if weighted == "weighted":
        edges = np.concatenate([edges, edges[::3][::-1]])
        weights = np.random.default_rng(11).uniform(0.5, 2.0, size=edges.shape[0])
        weights = weights.astype(np.float32)
    build = build_directed if kind == "directed" else build_undirected
    image = build(edges, n, name=case, weights=weights, fmt=fmt)
    return {
        "out_indptr": _digest(image.out_csr.indptr),
        "out_indices": _digest(image.out_csr.indices),
        "in_indptr": _digest(image.in_csr.indptr),
        "in_indices": _digest(image.in_csr.indices),
        "out_bytes": _bytes_digest(image.out_bytes),
        "in_bytes": _bytes_digest(image.in_bytes),
        "attr_bytes": {
            t.value: _bytes_digest(data) for t, data in image.attr_bytes.items()
        },
        "attr_offsets": {
            t.value: _digest(offsets) for t, offsets in image.attr_offsets.items()
        },
        "edge_count": image.edge_count,
        "out_file_size": image.out_index.file_size,
        "in_file_size": image.in_index.file_size,
    }


def record() -> dict:
    return {
        "generators": {gen: generator_digest(gen) for gen in GENERATORS},
        "images": {case: run_case(case) for case in CASES},
    }


@lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("gen", list(GENERATORS))
def test_generator_pinned(gen):
    assert generator_digest(gen) == _golden()["generators"][gen]


@pytest.mark.parametrize("case", CASES)
def test_image_pinned(case):
    # Through JSON and back, so the comparison sees what was stored.
    got = json.loads(json.dumps(run_case(case)))
    assert got == _golden()["images"][case]


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/graph/test_build_pin.py --regen")
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(GENERATORS)} generators, {len(CASES)} images)")
