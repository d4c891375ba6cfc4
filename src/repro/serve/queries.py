"""Query construction: one arrival's app name → a runnable program.

The factory owns the per-service invariants a query needs — the shared
graph image, the default BFS source (highest out-degree, the harness
convention), the optional undirected image k-core requires, and the
k-core degree vector (computed once, not per query) — so building a
query per arrival is cheap and deterministic.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.algorithms.bfs import BFSProgram
from repro.algorithms.kcore import KCoreProgram
from repro.algorithms.pagerank import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    PageRankProgram,
)
from repro.algorithms.wcc import WCCProgram
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import GraphImage
from repro.graph.sets import loopless_degrees
from repro.serve.results import image_digest

#: k for "kcore" queries.
KCORE_K = 4


@dataclass
class Query:
    """One runnable query: the program plus its run() arguments."""

    app: str
    image: GraphImage
    program: VertexProgram
    initial_active: Optional[np.ndarray]
    max_iterations: Optional[int]
    #: Extracts the algorithm's output vector from ``program`` after the
    #: run (used by the chaos suite to check results).
    values: Callable[[], np.ndarray]


class QueryFactory:
    """Builds :class:`Query` objects for a service's app mix.

    Supported apps: ``pr`` (delta PageRank capped at ``pr_iterations``),
    ``pr30`` (the paper's 30-iteration run), ``bfs``, ``wcc``, and
    ``kcore`` when an undirected image is supplied (k-core peeling is
    undefined on a directed image, so without one the app is simply not
    offered).
    """

    def __init__(
        self,
        image: GraphImage,
        undirected_image: Optional[GraphImage] = None,
        pr_iterations: int = 5,
        source: Optional[int] = None,
    ) -> None:
        if pr_iterations < 1:
            raise ValueError("pr_iterations must be at least 1")
        self.image = image
        self.undirected_image = undirected_image
        self.pr_iterations = pr_iterations
        if source is None:
            source = int(np.argmax(image.out_csr.degrees()))
        self.source = source
        self._kcore_degrees: Optional[np.ndarray] = None
        self._builders: Dict[str, Callable[[], Query]] = {
            "pr": lambda: self._pagerank(self.pr_iterations),
            "pr30": lambda: self._pagerank(DEFAULT_MAX_ITERATIONS),
            "bfs": self._bfs,
            "wcc": self._wcc,
        }
        if undirected_image is not None:
            self._builders["kcore"] = self._kcore
        self._image_digests: Dict[int, str] = {}

    def supported_apps(self) -> Tuple[str, ...]:
        return tuple(self._builders)

    def _digest(self, image: GraphImage) -> str:
        key = id(image)
        digest = self._image_digests.get(key)
        if digest is None:
            digest = image_digest(image)
            self._image_digests[key] = digest
        return digest

    def fingerprint(
        self,
        app: str,
        pr_iterations: Optional[int] = None,
        pr_tolerance_factor: float = 1.0,
    ) -> str:
        """The canonical identity of the query :meth:`build` would make.

        Two arrivals with equal fingerprints produce byte-identical
        output vectors, which is what lets the result cache answer the
        second one without running it: the fingerprint folds in the
        algorithm, its *effective* parameters (the post-brownout
        iteration cap and tolerance for PageRank, the source for BFS,
        ``k`` for k-core), and the digest plus storage format of the
        graph image the app runs against — so a degraded build, a
        different source, or a rebuilt image never aliases.
        """
        self._check(app)
        image = self.undirected_image if app == "kcore" else self.image
        parts = [app, f"fmt={image.fmt}", f"image={self._digest(image)}"]
        if app in ("pr", "pr30"):
            tolerance = DEFAULT_TOLERANCE * pr_tolerance_factor
            parts.append(f"iters={self._pr_cap(app, pr_iterations)}")
            parts.append(f"tol={tolerance!r}")
        elif app == "bfs":
            parts.append(f"source={self.source}")
        elif app == "kcore":
            parts.append(f"k={KCORE_K}")
        return "|".join(parts)

    def build(
        self,
        app: str,
        pr_iterations: Optional[int] = None,
        pr_tolerance_factor: float = 1.0,
    ) -> Query:
        """Build ``app``, optionally at reduced fidelity.

        ``pr_iterations`` caps a PageRank query below its configured
        iteration budget and ``pr_tolerance_factor`` coarsens its
        convergence tolerance — the brownout degradation hooks.  Both
        are no-ops for non-PageRank apps: traversals have no fidelity
        dial, they are shed or aborted instead.
        """
        self._check(app)
        if app in ("pr", "pr30") and (
            pr_iterations is not None or pr_tolerance_factor != 1.0
        ):
            return self._pagerank(
                self._pr_cap(app, pr_iterations), pr_tolerance_factor
            )
        return self._builders[app]()

    def _check(self, app: str) -> None:
        if app not in self._builders:
            raise ValueError(
                f"unsupported app {app!r} (supported: "
                f"{', '.join(self._builders)})"
            )

    def _pr_cap(self, app: str, pr_iterations: Optional[int]) -> int:
        """A PageRank app's iteration cap, lowered to ``pr_iterations``."""
        full = self.pr_iterations if app == "pr" else DEFAULT_MAX_ITERATIONS
        return full if pr_iterations is None else min(full, pr_iterations)

    def _pagerank(
        self, max_iterations: int, tolerance_factor: float = 1.0
    ) -> Query:
        program = PageRankProgram(
            self.image.num_vertices,
            tolerance=DEFAULT_TOLERANCE * tolerance_factor,
        )
        return Query(
            app="pr",
            image=self.image,
            program=program,
            initial_active=None,
            max_iterations=max_iterations,
            values=lambda: program.rank + program.pending,
        )

    def _bfs(self) -> Query:
        program = BFSProgram(self.image.num_vertices)
        return Query(
            app="bfs",
            image=self.image,
            program=program,
            initial_active=np.asarray([self.source]),
            max_iterations=None,
            values=lambda: program.level,
        )

    def _wcc(self) -> Query:
        program = WCCProgram(self.image.num_vertices)
        return Query(
            app="wcc",
            image=self.image,
            program=program,
            initial_active=None,
            max_iterations=None,
            values=lambda: program.component,
        )

    def _kcore(self) -> Query:
        image = self.undirected_image
        if self._kcore_degrees is None:
            # Self-loops do not contribute to core degree (the same
            # correction repro.algorithms.kcore.kcore applies per run).
            self._kcore_degrees = loopless_degrees(image.out_csr)
        program = KCoreProgram(
            image.num_vertices, KCORE_K, self._kcore_degrees.copy()
        )
        return Query(
            app="kcore",
            image=image,
            program=program,
            initial_active=None,
            max_iterations=None,
            values=lambda: program.alive,
        )
