"""In-memory edge storage (the paper's "FG-mem" build).

For the in-memory comparison the authors replace SAFS with in-memory data
structures holding the edge lists; everything else — the engine, the
programming interface, scheduling — is unchanged.  The engine serves
edge-list requests straight from the CSR adjacency with zero latency and
charges the (cheaper) in-memory per-edge CPU rate instead of the
page-parsing SEM rate; this store accounts the RAM those arrays hold.
"""

from repro.graph.builder import GraphImage


class InMemoryEdgeStore:
    """The RAM-resident adjacency arrays of an in-memory run."""

    def __init__(self, image: GraphImage) -> None:
        self.image = image

    def memory_bytes(self) -> int:
        """RAM held by the in-memory edge lists (both directions)."""
        total = self.image.out_csr.indptr.nbytes + self.image.out_csr.indices.nbytes
        if self.image.directed:
            total += self.image.in_csr.indptr.nbytes + self.image.in_csr.indices.nbytes
        return total
