"""Loading and saving edge lists (text and ``.npz``), plus networkx bridges.

FlashGraph's inputs are plain edge lists; these helpers exist so the
examples can persist generated graphs and so tests can round-trip against
networkx reference implementations.
"""

from pathlib import Path
from typing import Optional, Tuple, Union

import networkx as nx
import numpy as np

from repro.graph.builder import GraphImage

PathLike = Union[str, Path]


def save_edges_text(path: PathLike, edges: np.ndarray, num_vertices: int) -> None:
    """Write one ``src dst`` pair per line, with a header comment."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    with open(path, "w") as f:
        f.write(f"# vertices: {num_vertices}\n")
        for u, v in edges:
            f.write(f"{u} {v}\n")


def load_edges_text(path: PathLike) -> Tuple[np.ndarray, int]:
    """Read an edge list written by :func:`save_edges_text`.

    Files without the header infer ``num_vertices`` as ``max id + 1``.

    Parsing is chunked and vectorized: each ~1 MB block of lines becomes
    one numpy string array, tokens split in bulk with a sentinel marking
    line boundaries, and the ids cast with a single ``astype`` — no
    per-line Python loop.  The ``# vertices:`` header and the exact
    malformed-line errors of the scalar parser are preserved.
    """
    num_vertices: Optional[int] = None
    parts = []
    with open(path) as f:
        while True:
            lines = f.readlines(1 << 20)
            if not lines:
                break
            arr = np.char.strip(np.asarray(lines, dtype=str))
            comments = np.char.startswith(arr, "#")
            headers = comments & (np.char.find(arr, "vertices:") >= 0)
            for header in arr[headers]:
                num_vertices = int(header.split("vertices:")[1])
            data = arr[(arr != "") & ~comments]
            if data.size == 0:
                continue
            # A NUL sentinel between lines keeps per-line token counts
            # recoverable after one bulk split — a malformed line cannot
            # silently re-pair its tokens with a neighbour's.
            tokens = np.asarray(" \x00 ".join(data.tolist()).split())
            sep = tokens == "\x00"
            bounds = np.concatenate(([-1], np.flatnonzero(sep), [tokens.size]))
            counts = np.diff(bounds) - 1
            if np.any(counts != 2):
                bad = int(np.flatnonzero(counts != 2)[0])
                raise ValueError(f"malformed edge line: {str(data[bad])!r}")
            try:
                parts.append(tokens[~sep].astype(np.int64))
            except ValueError:
                # Re-raise with the scalar parser's per-token message.
                for line in data.tolist():
                    for token in line.split():
                        int(token)
                raise
    if parts:
        edges = np.concatenate(parts).reshape(-1, 2)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    if num_vertices is None:
        num_vertices = int(edges.max()) + 1 if edges.size else 0
    return edges, num_vertices


def save_edges_npz(
    path: PathLike,
    edges: np.ndarray,
    num_vertices: int,
    fmt: Optional[str] = None,
) -> None:
    """Persist an edge array compactly.

    ``fmt``, when given, records the preferred on-SSD edge-list format
    (``repro generate --graph-format``); loaders that build images can
    honour it via :func:`stored_graph_format`.
    """
    payload = {
        "edges": np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        "num_vertices": np.int64(num_vertices),
    }
    if fmt is not None:
        payload["graph_format"] = np.asarray(fmt)
    np.savez_compressed(path, **payload)


def load_edges_npz(path: PathLike) -> Tuple[np.ndarray, int]:
    """Load an edge array written by :func:`save_edges_npz`."""
    with np.load(path) as data:
        return data["edges"], int(data["num_vertices"])


def stored_graph_format(path: PathLike) -> Optional[str]:
    """The ``fmt`` recorded by :func:`save_edges_npz`, or ``None``."""
    with np.load(path) as data:
        if "graph_format" in data.files:
            return str(data["graph_format"])
    return None


def edges_from_networkx(graph: nx.Graph) -> Tuple[np.ndarray, int]:
    """Convert a networkx (di)graph with integer nodes into our edge array."""
    nodes = sorted(graph.nodes())
    if nodes and (nodes[0] != 0 or nodes[-1] != len(nodes) - 1):
        relabel = {node: i for i, node in enumerate(nodes)}
        graph = nx.relabel_nodes(graph, relabel)
    edges = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    return edges, graph.number_of_nodes()


def image_to_networkx(image: GraphImage) -> nx.Graph:
    """Rebuild a networkx graph from a :class:`GraphImage` (for tests)."""
    graph = nx.DiGraph() if image.directed else nx.Graph()
    graph.add_nodes_from(range(image.num_vertices))
    sources = np.repeat(np.arange(image.num_vertices), image.out_csr.degrees())
    graph.add_edges_from(zip(sources.tolist(), image.out_csr.indices.tolist()))
    return graph
