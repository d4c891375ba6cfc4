"""Set operations over sorted edge lists, with no loop over vertices.

Triangle counting, scan statistics and the host-side utilities around
them read the undirected projection of an image.  It is built here once,
as a CSR, by the builder's sort-reduce (``docs/graph_format.md``), and
its rows are intersected pair by pair with ``searchsorted`` over the keys
``row * n + neighbor``.
"""

import numpy as np

from repro.graph.builder import CSR, GraphImage
from repro.graph.format import csr_from_sorted_keys, csr_keys, gather_ranges, run_starts

#: Members looked up per chunk of :func:`intersect_count_segments`: it
#: bounds one chunk's int64 temporaries to a few MiB.
INTERSECT_CHUNK_MEMBERS = 1 << 18


def union_segments(image: GraphImage) -> CSR:
    """The undirected projection of ``image``: row ``v`` holds ``v``'s out-
    and in-neighbors, sorted and duplicate-free, self-loop dropped."""
    n = image.num_vertices
    csrs = (image.out_csr, image.in_csr) if image.directed else (image.out_csr,)
    keys = np.concatenate([csr_keys(csr.indptr, csr.indices, n) for csr in csrs])
    # A self-loop's key is v * n + v = v * (n + 1).
    keys = keys[keys % (n + 1) != 0]
    keys.sort()
    return CSR(*csr_from_sorted_keys(keys[run_starts(keys)], n))


def rows_union(csr: CSR, rows: np.ndarray) -> np.ndarray:
    """The distinct members of ``csr``'s ``rows``, ascending, as int64."""
    members = gather_ranges(
        csr.indices, csr.indptr[rows], csr.indptr[rows + 1] - csr.indptr[rows]
    ).astype(np.int64)
    members.sort()
    return members[run_starts(members)]


def intersect_count_segments(
    csr: CSR, a: np.ndarray, b: np.ndarray, above: np.ndarray
) -> np.ndarray:
    """For each pair ``i``, how many members rows ``a[i]`` and ``b[i]`` of
    ``csr`` share that are greater than ``above[i]`` (int64).

    The rows must be sorted and duplicate-free, as the builder's lists and
    :func:`union_segments`'s rows are.  Each pair enumerates its members
    above the threshold from whichever row has fewer and looks them up in
    the other row's keys, :data:`INTERSECT_CHUNK_MEMBERS` at a time.
    """
    n = csr.indptr.size - 1
    keys = csr_keys(csr.indptr, csr.indices, n)
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    above = np.clip(np.asarray(above, dtype=np.int64), -1, n - 1)
    # Row r's members above t start at the first key past r * n + t.
    first_a = keys.searchsorted(a * n + above, side="right")
    first_b = keys.searchsorted(b * n + above, side="right")
    from_a = csr.indptr[a + 1] - first_a <= csr.indptr[b + 1] - first_b
    first = np.where(from_a, first_a, first_b)
    lengths = np.where(from_a, csr.indptr[a + 1], csr.indptr[b + 1]) - first
    other = np.where(from_a, b, a) * n
    ends = lengths.cumsum()
    step = INTERSECT_CHUNK_MEMBERS
    cuts = ends.searchsorted(np.arange(step, ends[-1:].sum(), step), side="right").tolist()
    counts = np.zeros(a.size, dtype=np.int64)
    for lo, hi in zip([0] + cuts, cuts + [a.size]):
        chunk = lengths[lo:hi]
        probes = other[lo:hi].repeat(chunk)
        probes += gather_ranges(csr.indices, first[lo:hi], chunk)
        if probes.size:
            hit = keys.searchsorted(probes).clip(max=keys.size - 1)
            found = np.concatenate([[0], (keys[hit] == probes).cumsum()])
            stops = chunk.cumsum()
            counts[lo:hi] = found[stops] - found[stops - chunk]
    return counts


def loopless_degrees(csr: CSR) -> np.ndarray:
    """Each row's length less its self-loop, as int64."""
    degrees = csr.degrees().astype(np.int64)
    rows = np.repeat(np.arange(degrees.size), degrees)
    degrees -= np.bincount(rows[csr.indices == rows], minlength=degrees.size)
    return degrees
