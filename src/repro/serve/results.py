"""Cross-query result caching: repeat queries answered at admission.

Graph-query serving traffic repeats itself — the app mixes are Zipf
weighted, the graph image is shared, and PageRank over the same image
with the same parameters produces the same output vector every time.
The :class:`ResultCache` exploits that determinism: completed queries
deposit their output under a canonical *fingerprint* (algorithm,
effective parameters, graph-image digest, storage format), and a later
query with the same fingerprint is answered straight from the cache at
near-zero simulated cost, never touching the admission quota, the page
cache or the SSD array.

Fingerprints are computed by
:meth:`~repro.serve.queries.QueryFactory.fingerprint` from the
*effective* parameters — a brownout-degraded PageRank (fewer
iterations, coarser tolerance) fingerprints differently from the
full-fidelity run, so degraded outputs can never masquerade as
full-fidelity answers.

Sharing policy is per tenant (``TenantSpec.result_cache``): ``shared``
tenants read and write one communal scope, ``private`` tenants get a
scope keyed by their own name, and ``off`` opts out entirely.
Freshness is a TTL on the simulated clock plus an explicit
:meth:`ResultCache.invalidate` hook for graph-image updates.

Determinism: the cache is keyed and timed purely on the DES clock and
never touches the shared stats collector mid-run — the service flushes
the tallies kept here into ``serve.result_cache_*`` counters once,
after the last job.
"""

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import registry as reg

#: Scope key for communally shared entries (tenant names are non-empty,
#: so the empty string can never collide with a private scope).
RESULT_SCOPE_SHARED = ""

#: Per-tenant sharing policies (``TenantSpec.result_cache``).
RESULT_CACHE_POLICIES = ("shared", "private", "off")

#: Simulated seconds a cache hit costs the querying tenant (fingerprint
#: lookup + handing back the vector).
HIT_COST_S = 5e-5


def image_digest(image) -> str:
    """A stable digest of a graph image's identity.

    Hashes the attributes that determine query outputs and I/O shape —
    name, vertex count, storage format, and the edge-file sizes — not
    the edge bytes themselves (hashing gigabytes per query would defeat
    the near-zero-cost contract; images are immutable within a serve
    run, and a rebuilt image changes ``out_bytes``/``in_bytes``).
    """
    h = hashlib.sha256()
    for part in (
        image.name,
        image.num_vertices,
        image.fmt,
        image.out_bytes,
        image.in_bytes,
    ):
        h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


@dataclass
class CachedResult:
    """One deposited query output."""

    fingerprint: str
    #: The algorithm's output vector, as deposited (callers copy on
    #: insert so later program state cannot mutate it).
    values: object
    iterations: int
    app: str
    #: Simulated deposit time (TTL anchor).
    inserted_at: float
    #: ``Arrival.index`` of the producing query — the trace join key.
    source_index: int


class ResultCache:
    """Fingerprint-keyed store of completed query outputs.

    One instance per :class:`~repro.serve.service.GraphService`; scopes
    (shared vs. per-tenant) partition the key space, so a ``private``
    tenant never reads another tenant's deposits.  ``ttl_s`` is the
    entry lifetime on the simulated clock (``None`` never expires).
    """

    def __init__(self, ttl_s: Optional[float] = None) -> None:
        if ttl_s is not None and ttl_s <= 0.0:
            raise ValueError("ttl_s must be positive")
        self.ttl_s = ttl_s
        self._entries: Dict[Tuple[str, str], CachedResult] = {}
        # Local tallies, flushed to serve.result_cache_* by the service
        # after the last job (never mid-run).
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.expirations = 0
        self.invalidations = 0
        self.hits_by_tenant: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, scope: str, fingerprint: str, now: float
    ) -> Optional[CachedResult]:
        """The live entry under ``(scope, fingerprint)``, or ``None``.

        An entry past its TTL at simulated ``now`` is expired on probe
        and reported as a miss.
        """
        key = (scope, fingerprint)
        entry = self._entries.get(key)
        ttl = self.ttl_s
        if (
            entry is not None
            and ttl is not None
            and now - entry.inserted_at > ttl
        ):
            del self._entries[key]
            self.expirations += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def insert(
        self,
        scope: str,
        fingerprint: str,
        values,
        iterations: int,
        app: str,
        now: float,
        source_index: int,
    ) -> None:
        """Deposit one completed query's output (latest deposit wins)."""
        self._entries[(scope, fingerprint)] = CachedResult(
            fingerprint=fingerprint,
            values=values,
            iterations=iterations,
            app=app,
            inserted_at=now,
            source_index=source_index,
        )
        self.insertions += 1

    def invalidate(
        self, predicate: Optional[Callable[[CachedResult], bool]] = None
    ) -> int:
        """Drop entries matching ``predicate`` (all entries when
        ``None``) — the hook a graph-image update calls.  Returns the
        number of entries dropped."""
        if predicate is None:
            doomed = list(self._entries)
        else:
            doomed = [
                key
                for key, entry in self._entries.items()
                if predicate(entry)
            ]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def counters(self, tenants: List[str]) -> Dict[str, float]:
        """The ``serve.result_cache_*`` counters, in flush order."""
        rows = {
            reg.SERVE_RESULT_CACHE_HITS_TOTAL: self.hits,
            reg.SERVE_RESULT_CACHE_MISSES_TOTAL: self.misses,
            reg.SERVE_RESULT_CACHE_INSERTIONS_TOTAL: self.insertions,
            reg.SERVE_RESULT_CACHE_EXPIRATIONS_TOTAL: self.expirations,
        }
        for name in tenants:
            rows[f"{reg.SERVE_RESULT_CACHE_HITS}.{name}"] = (
                self.hits_by_tenant.get(name, 0)
            )
        return rows

    def summary(self) -> dict:
        """Run-level outcome for :class:`ServiceReport`."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
            "hits_by_tenant": dict(sorted(self.hits_by_tenant.items())),
        }
