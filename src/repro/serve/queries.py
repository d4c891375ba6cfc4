"""Query construction: one arrival's app name → a runnable program.

The factory owns the per-service invariants a query needs — the shared
graph image and the default BFS source (highest out-degree, the harness
convention) — so building a query per arrival is cheap and
deterministic.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.algorithms.bfs import BFSProgram
from repro.algorithms.pagerank import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    PageRankProgram,
)
from repro.algorithms.wcc import WCCProgram
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import GraphImage
from repro.serve.results import image_digest

#: The apps a query can name (see :class:`QueryFactory`).
APPS = ("pr", "pr30", "bfs", "wcc")


@dataclass
class Query:
    """One runnable query: the program plus its run() arguments."""

    app: str
    program: VertexProgram
    initial_active: Optional[np.ndarray]
    max_iterations: Optional[int]
    #: Extracts the algorithm's output vector from ``program`` after the
    #: run (used by the chaos suite to check results).
    values: Callable[[], np.ndarray]


class QueryFactory:
    """Builds :class:`Query` objects for a service's app mix.

    Supported apps: ``pr`` (delta PageRank capped at ``pr_iterations``),
    ``pr30`` (the paper's 30-iteration run), ``bfs`` and ``wcc``.
    """

    def __init__(
        self,
        image: GraphImage,
        pr_iterations: int = 5,
        source: Optional[int] = None,
    ) -> None:
        if pr_iterations < 1:
            raise ValueError("pr_iterations must be at least 1")
        self.image = image
        self.pr_iterations = pr_iterations
        if source is None:
            source = int(np.argmax(image.out_csr.degrees()))
        self.source = source
        self._image_digest: Optional[str] = None

    def _digest(self) -> str:
        if self._image_digest is None:
            self._image_digest = image_digest(self.image)
        return self._image_digest

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
        iteration cap and tolerance for PageRank, the source for BFS),
        and the digest plus storage format of the graph image — so a
        degraded build, a different source, or a rebuilt image never
        aliases.
        """
        self._check(app)
        parts = [app, f"fmt={self.image.fmt}", f"image={self._digest()}"]
        if app in ("pr", "pr30"):
            tolerance = DEFAULT_TOLERANCE * pr_tolerance_factor
            parts.append(f"iters={self._pr_cap(app, pr_iterations)}")
            parts.append(f"tol={tolerance!r}")
        elif app == "bfs":
            parts.append(f"source={self.source}")
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
        if app in ("pr", "pr30"):
            return self._pagerank(
                self._pr_cap(app, pr_iterations), pr_tolerance_factor
            )
        return self._bfs() if app == "bfs" else self._wcc()

    def _check(self, app: str) -> None:
        if app not in APPS:
            raise ValueError(f"unsupported app {app!r} (supported: {', '.join(APPS)})")

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
            program=program,
            initial_active=None,
            max_iterations=max_iterations,
            values=lambda: program.rank + program.pending,
        )

    def _bfs(self) -> Query:
        program = BFSProgram(self.image.num_vertices)
        return Query(
            app="bfs",
            program=program,
            initial_active=np.asarray([self.source]),
            max_iterations=None,
            values=lambda: program.level,
        )

    def _wcc(self) -> Query:
        program = WCCProgram(self.image.num_vertices)
        return Query(
            app="wcc",
            program=program,
            initial_active=None,
            max_iterations=None,
            values=lambda: program.component,
        )
