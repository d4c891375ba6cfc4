"""Adaptive tenant cache sizing: ghost-LRU driven capacity rebalancing.

Static per-tenant page-cache partitions (``TenantSpec.cache_bytes``)
protect tenants from each other but waste capacity whenever load is
uneven: an idle tenant's partition holds cold pages while a hot
tenant's partition thrashes.  The :class:`CacheRebalancer` closes that
gap with the classic shadow-cache policy: every partition keeps a ghost
LRU of recently evicted keys
(:meth:`~repro.safs.page_cache.PageCache.enable_ghost_tracking`), and a
miss whose key is still on the ghost list is evidence the partition
would have hit with more capacity.  At fixed DES-clock intervals the
rebalancer compares windowed *marginal benefit* — ghost hits per lookup
— across partitions and moves one per-set capacity unit from the
partition with the least benefit to the one with the most, never
shrinking anyone below a floor fraction of its initial capacity, so no
tenant is starved of the quota it paid for.

Determinism: decisions are pure functions of partition tallies on the
DES clock, ties break lexicographically by tenant name, and every
decision is appended to :attr:`log` — two same-seed runs replay the
same decision sequence bit for bit.  Counter tallies stay local until
the service flushes them (``serve.cache_rebalances`` etc.) after the
last job; only gauge *series* (``serve.cache_share.<tenant>``), which
live outside counter snapshots, are sampled as decisions happen.
"""

import math
from typing import Dict, List

from repro.obs import registry as reg
from repro.safs.page_cache import PageCache

#: No partition shrinks below this fraction of its *initial* per-set
#: capacity (rounded up, never below one page per set).
FLOOR_FRACTION = 0.5
#: Per-set pages moved per decision (small steps keep the policy
#: stable; capacity moves at ``STEP_SETS × num_sets`` pages a step).
STEP_SETS = 1


class CacheRebalancer:
    """Periodically shifts set capacity between tenant partitions.

    Bound to the partitions of one
    :class:`~repro.serve.service.GraphService` run; the service's event
    loop calls :meth:`note_time` whenever its frontier crosses
    :attr:`next_boundary_s` (the same one-float-compare hot-loop
    discipline as the timeline sampler).  ``interval_s`` is the decision
    interval in simulated seconds; the default matches the timeline
    sampler's window scale — a few queries' worth of lookups per
    decision.
    """

    def __init__(
        self,
        partitions: Dict[str, PageCache],
        interval_s: float = 0.01,
        stats=None,
    ) -> None:
        if len(partitions) < 2:
            raise ValueError(
                "cache rebalancing needs at least two tenant cache "
                "partitions to move capacity between"
            )
        if interval_s <= 0.0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.partitions = partitions
        #: Stats collector for gauge sampling; ``None`` = no gauges.
        self.stats = stats
        self._tenants = sorted(partitions)
        self._floor: Dict[str, int] = {}
        for name in self._tenants:
            cache = partitions[name]
            cache.enable_ghost_tracking()
            self._floor[name] = max(1, math.ceil(cache._set_cap * FLOOR_FRACTION))
        # Windowed tallies: last-seen cumulative lookups/ghost hits.
        self._last: Dict[str, tuple] = {name: (0, 0) for name in self._tenants}
        self._window = 0
        #: End of the currently open interval (hot-loop compare bound).
        self.next_boundary_s = self.interval_s
        # Local counters, flushed by the service after the last job.
        self.moves = 0
        self.pages_moved = 0
        self.evictions = 0
        #: Deterministic decision log, one dict per interval that moved
        #: capacity.
        self.log: List[dict] = []

    def shares(self) -> Dict[str, float]:
        """Each partition's fraction of the total partitioned capacity."""
        total = sum(
            self.partitions[name].set_capacity_pages for name in self._tenants
        )
        if total == 0:
            return {name: 0.0 for name in self._tenants}
        return {
            name: self.partitions[name].set_capacity_pages / total
            for name in self._tenants
        }

    def note_time(self, now: float) -> None:
        """Close every rebalance interval the frontier crossed."""
        while now >= (self._window + 1) * self.interval_s:
            self._close_window()

    def _close_window(self) -> None:
        benefits: Dict[str, float] = {}
        for name in self._tenants:
            cache = self.partitions[name]
            last_lookups, last_ghost = self._last[name]
            lookups = cache.lookups - last_lookups
            ghost = cache.ghost_hits - last_ghost
            self._last[name] = (cache.lookups, cache.ghost_hits)
            benefits[name] = ghost / lookups if lookups else 0.0
        self._window += 1
        self.next_boundary_s = (self._window + 1) * self.interval_s
        # Receiver: best marginal benefit; donor: worst benefit still
        # above its floor.  Lexicographic tie-breaks keep same-seed runs
        # replaying the same decisions.
        receiver = min(
            self._tenants, key=lambda name: (-benefits[name], name)
        )
        if benefits[receiver] <= 0.0:
            return
        step = STEP_SETS
        donors = [
            name
            for name in self._tenants
            if name != receiver
            and self.partitions[name]._set_cap - step >= self._floor[name]
            and benefits[name] < benefits[receiver]
        ]
        if not donors:
            return
        donor = min(donors, key=lambda name: (benefits[name], name))
        donor_cache = self.partitions[donor]
        receiver_cache = self.partitions[receiver]
        evicted = donor_cache.resize_set_capacity(donor_cache._set_cap - step)
        receiver_cache.resize_set_capacity(receiver_cache._set_cap + step)
        self.moves += 1
        self.pages_moved += step * donor_cache.config.num_sets
        self.evictions += evicted
        end = self._window * self.interval_s
        self.log.append(
            {
                "window": self._window - 1,
                "time_s": end,
                "donor": donor,
                "receiver": receiver,
                "benefits": {k: benefits[k] for k in self._tenants},
                "evicted": evicted,
            }
        )
        if self.stats is not None:
            for name, share in self.shares().items():
                self.stats.sample(
                    f"{reg.GAUGE_SERVE_CACHE_SHARE}.{name}", end, share
                )

    def counters(self, tenants: List[str]) -> Dict[str, float]:
        """The ``serve.cache_*`` counters, in flush order."""
        return {
            reg.SERVE_CACHE_REBALANCES: self.moves,
            reg.SERVE_CACHE_PAGES_MOVED: self.pages_moved,
            reg.SERVE_CACHE_REBALANCE_EVICTIONS: self.evictions,
        }

    def summary(self) -> dict:
        """Run-level outcome for :class:`ServiceReport`."""
        return {
            "moves": self.moves,
            "pages_moved": self.pages_moved,
            "evictions": self.evictions,
            "shares": {k: v for k, v in sorted(self.shares().items())},
            "set_capacities": {
                name: self.partitions[name]._set_cap
                for name in self._tenants
            },
            "floors": dict(sorted(self._floor.items())),
        }
