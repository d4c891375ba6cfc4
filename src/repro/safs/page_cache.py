"""The set-associative SAFS page cache.

SAFS organises cached pages in a hashtable whose slots each hold several
pages [31].  Hashing a page to one small slot keeps locking local to the
slot and makes the cache cheap when hit rates are low — the property that
lets FlashGraph leave the cache on for every application and "increase
application-perceived performance linearly along with the cache hit rate".

The simulation reproduces the *placement policy* exactly: a page hashes to
one set, eviction is LRU within the set only, so conflict misses of a real
set-associative cache (as opposed to an idealised global LRU) show up in
the measured hit rates.

The cache is a residency model of page *keys*: it computes hit, miss and
eviction exactly and never holds a byte — the engine decodes straight from
the immutable file image, SAFS only reports *when* a span is cached.  A
merged span is served by two calls: :meth:`PageCache.lookup_range` walks it
once and answers with the runs of missing pages,
:meth:`PageCache.insert_range` installs one fetched run.  Counters and
per-set recency state evolve exactly as a page-by-page walk would
(``tests/safs/reference_page_cache.py`` is that walk, kept as the oracle).
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.obs import registry as reg
from repro.safs.page import DEFAULT_PAGE_SIZE
from repro.sim.stats import StatsCollector

PageKey = Tuple[int, int]


#: Supported per-set eviction policies.  SAFS's parallel page cache [31]
#: uses a gclock variant; LRU is the simpler default here and an ablation
#: bench compares the two.
EVICTION_POLICIES = ("lru", "gclock")


@dataclass(frozen=True)
class PageCacheConfig:
    """Cache geometry.

    ``capacity_bytes`` is the headline knob the paper sweeps (Figure 14:
    1GB → 32GB).  ``associativity`` is the number of pages per hashtable
    slot; SAFS uses a small constant (8 here).
    """

    capacity_bytes: int = 1 << 30
    page_size: int = DEFAULT_PAGE_SIZE
    associativity: int = 8
    eviction: str = "lru"

    @property
    def capacity_pages(self) -> int:
        """Total pages the cache may hold."""
        return max(1, self.capacity_bytes // self.page_size)

    @property
    def num_sets(self) -> int:
        """Number of hashtable slots."""
        return max(1, self.capacity_pages // self.associativity)

    @property
    def set_capacity(self) -> int:
        """Pages per slot (the whole capacity for tiny caches)."""
        return min(self.associativity, self.capacity_pages)


class PageCache:
    """A set-associative cache of page keys with per-set eviction."""

    def __init__(
        self,
        config: Optional[PageCacheConfig] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.config = config or PageCacheConfig()
        if self.config.capacity_bytes < 0:
            raise ValueError("cache capacity must be non-negative")
        if self.config.page_size <= 0:
            raise ValueError("page size must be positive")
        if self.config.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.config.eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.config.eviction!r}; "
                f"pick from {EVICTION_POLICIES}"
            )
        self.stats = stats if stats is not None else StatsCollector()
        # Per-instance lookup/hit tallies.  The shared stats counters
        # aggregate across every cache on the collector (the flat cache
        # plus all tenant partitions), so ``hit_rate`` must not read
        # them: these plain ints keep the rate partition-local without
        # touching the bit-identical counter stream.
        self.lookups = 0
        self.hits = 0
        # The geometry, cached off the frozen config for the per-page loops.
        self._set_cap = self.config.set_capacity
        self._num_sets = self.config.num_sets
        # Per set, the resident keys in recency order (values unused).
        self._sets: Dict[int, "OrderedDict[PageKey, None]"] = {}
        # All resident keys, mirrored across sets: bulk lookups answer the
        # (dominant) miss case with one set-membership test instead of a
        # hash + per-set dict probe per page.
        self._resident: Set[PageKey] = set()
        # gclock state: per-set reference bits, clock hand position, and the
        # key ring the hand sweeps.  The ring mirrors the set's insertion
        # order incrementally (append on insert, pop on evict) so evictions
        # never rebuild it from the dict.
        self._ref_bits: Dict[int, Dict[PageKey, bool]] = {}
        self._hands: Dict[int, int] = {}
        self._rings: Dict[int, List[PageKey]] = {}
        # Opt-in per-set lookup/hit tallies (``enable_set_tracking``).
        # ``None`` keeps the miss fast path free of set hashing — arming an
        # observer turns them on; a disarmed run never pays for them.
        self._set_lookups: Optional[np.ndarray] = None
        self._set_hits: Optional[np.ndarray] = None

    def enable_set_tracking(self) -> None:
        """Start tallying lookups and hits per cache set.

        Off by default: the miss fast path skips set hashing entirely, so
        the tallies exist only when something (the observer's :func:`arm`)
        asks for them.  Idempotent; tallies are cumulative from the first
        call.
        """
        if self._set_lookups is None:
            self._set_lookups = np.zeros(self.config.num_sets, dtype=np.int64)
            self._set_hits = np.zeros(self.config.num_sets, dtype=np.int64)

    def set_hit_rate_samples(self) -> Dict[int, float]:
        """``{set index: cumulative hit rate}`` for every probed set.

        Empty when tracking is off (:meth:`enable_set_tracking`) or no
        lookup has landed yet; sets never probed are omitted rather than
        reported as 0.0.
        """
        if self._set_lookups is None:
            return {}
        probed = np.flatnonzero(self._set_lookups)
        rates = self._set_hits[probed] / self._set_lookups[probed]
        return {int(i): float(r) for i, r in zip(probed, rates)}

    def _set_index(self, key: PageKey) -> int:
        # A multiplicative hash keeps adjacent pages in different sets so a
        # sequential scan does not thrash a single slot.
        file_id, page_no = key
        h = (page_no * 2654435761 + file_id * 40503) & 0xFFFFFFFF
        return h % self._num_sets

    def lookup_range(
        self, file_id: int, first_page: int, last_page: int
    ) -> List[Tuple[int, int]]:
        """Probe every page of ``[first_page, last_page]`` in ascending order.

        Returns the runs of missing pages as ``[(first_page, count), ...]``
        — empty on a full hit.  A hit refreshes the page's recency and
        counts one ``cache.hits``; a miss counts one ``cache.misses``,
        touching nothing else.
        """
        resident = self._resident
        lru = self.config.eviction == "lru"
        tracking = self._set_lookups is not None
        runs: List[Tuple[int, int]] = []
        run_start = -1
        for page_no in range(first_page, last_page + 1):
            key = (file_id, page_no)
            if key in resident:
                if run_start >= 0:
                    runs.append((run_start, page_no - run_start))
                    run_start = -1
                index = self._set_index(key)
                if tracking:
                    self._set_lookups[index] += 1
                    self._set_hits[index] += 1
                if lru:
                    self._sets[index].move_to_end(key)
                else:
                    self._ref_bits[index][key] = True
            else:
                if run_start < 0:
                    run_start = page_no
                if tracking:
                    self._set_lookups[self._set_index(key)] += 1
        if run_start >= 0:
            runs.append((run_start, last_page + 1 - run_start))
        n = last_page - first_page + 1
        misses = sum(count for _, count in runs)
        hits = n - misses
        self.lookups += n
        self.hits += hits
        if hits:
            self.stats.add(reg.CACHE_HITS, hits)
        if misses:
            self.stats.add(reg.CACHE_MISSES, misses)
        return runs

    def contains(self, file_id: int, page_no: int) -> bool:
        """Whether the page is cached, without touching recency or stats."""
        return (file_id, page_no) in self._resident

    def insert_range(self, file_id: int, first_page: int, count: int) -> int:
        """Cache pages ``[first_page, first_page + count)`` in ascending
        order; returns the number of evictions.

        Each page evicts its set's victim when the set is full (pages of
        one run may evict each other); a page already resident is only
        refreshed.  ``cache.evictions`` and ``cache.insertions`` are
        added once per call.
        """
        gclock = self.config.eviction == "gclock"
        resident = self._resident
        evictions = 0
        insertions = 0
        for page_no in range(first_page, first_page + count):
            key = (file_id, page_no)
            index = self._set_index(key)
            cache_set = self._sets.get(index)
            if cache_set is None:
                cache_set = self._sets[index] = OrderedDict()
                if gclock:
                    self._ref_bits[index] = {}
                    self._hands[index] = 0
                    self._rings[index] = []
            if key in cache_set:
                if gclock:
                    self._ref_bits[index][key] = True
                else:
                    cache_set.move_to_end(key)
                continue
            if len(cache_set) >= self._set_cap:
                if gclock:
                    resident.discard(self._gclock_evict(index, cache_set))
                else:
                    resident.discard(cache_set.popitem(last=False)[0])
                evictions += 1
            cache_set[key] = None
            resident.add(key)
            if gclock:
                # New pages start unreferenced; a hit sets the bit, so pages
                # touched since the last sweep outlive ones merely loaded.
                self._ref_bits[index][key] = False
                self._rings[index].append(key)
            insertions += 1
        if evictions:
            self.stats.add(reg.CACHE_EVICTIONS, evictions)
        if insertions:
            self.stats.add(reg.CACHE_INSERTIONS, insertions)
        return evictions

    def _gclock_evict(self, index: int, cache_set) -> PageKey:
        """Sweep the set's clock hand, clearing reference bits, until an
        unreferenced page is found (guaranteed within two sweeps)."""
        ref_bits = self._ref_bits[index]
        ring = self._rings[index]
        hand = self._hands[index] % len(ring)
        for _ in range(2 * len(ring) + 1):
            key = ring[hand]
            if ref_bits.get(key, False):
                ref_bits[key] = False
                hand = (hand + 1) % len(ring)
            else:
                # Removing the victim shifts its successors left one slot,
                # so the unchanged hand already points at the next page —
                # the same resume position the full rebuild used to land on.
                self._hands[index] = hand
                ring.pop(hand)
                del cache_set[key]
                ref_bits.pop(key, None)
                return key
        raise RuntimeError("gclock failed to find a victim")  # pragma: no cover

    def invalidate(self, file_id: int, page_no: int) -> bool:
        """Drop one page from the cache, if present.

        Used by the fault machinery: an aborted dispatch rolls back the
        pages it installed so a degraded re-run observes a consistent
        cache.  Returns whether the page was resident; counts one
        ``cache.invalidations`` when it was.
        """
        key = (file_id, page_no)
        if key not in self._resident:
            return False
        index = self._set_index(key)
        del self._sets[index][key]
        self._resident.discard(key)
        if self.config.eviction == "gclock":
            ring = self._rings[index]
            pos = ring.index(key)
            ring.pop(pos)
            hand = self._hands[index]
            # Keep the hand on the same page it pointed at: entries after
            # ``pos`` shifted left one slot; a hand past the end wraps.
            if pos < hand:
                hand -= 1
            if ring and hand >= len(ring):
                hand %= len(ring)
            self._hands[index] = 0 if not ring else hand
            self._ref_bits[index].pop(key, None)
        self.stats.add(reg.CACHE_INVALIDATIONS)
        return True

    def __len__(self) -> int:
        return len(self._resident)

    def hit_rate(self) -> float:
        """*This* cache's hits over lookups so far, 0.0 before any
        lookup.  Tallied per instance, not from the shared stats — under
        tenant partitions several caches share one collector, and the
        aggregate counters would misreport every partition's rate."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def export_state(self) -> Dict:
        """Placement and recency state for checkpointing.

        Captures, per set, the resident keys in recency order (the
        OrderedDict order LRU evicts from) and — under gclock — the key
        ring, hand position and reference bits.  That is the whole cache:
        it holds no page content.
        """
        state: Dict = {
            "keys": {
                index: list(cache_set.keys())
                for index, cache_set in self._sets.items()
                if cache_set
            }
        }
        if self.config.eviction == "gclock":
            state["rings"] = {i: list(ring) for i, ring in self._rings.items()}
            state["hands"] = dict(self._hands)
            state["ref_bits"] = {
                i: dict(bits) for i, bits in self._ref_bits.items()
            }
        return state

    def restore_state(self, state: Dict) -> None:
        """Reinstate :meth:`export_state` output.

        No stats are touched — the checkpoint restores the counter stream
        separately.
        """
        self.clear()
        gclock = self.config.eviction == "gclock"
        for index, keys in state["keys"].items():
            index = int(index)
            cache_set: "OrderedDict[PageKey, None]" = OrderedDict()
            for raw_key in keys:
                key = (int(raw_key[0]), int(raw_key[1]))
                if self._set_index(key) != index:
                    raise ValueError(
                        f"checkpointed page {key} does not hash to set {index}"
                    )
                cache_set[key] = None
                self._resident.add(key)
            self._sets[index] = cache_set
            if gclock:
                self._ref_bits[index] = {}
                self._hands[index] = 0
                self._rings[index] = []
        if gclock and "rings" in state:
            for index, ring in state["rings"].items():
                self._rings[int(index)] = [
                    (int(k[0]), int(k[1])) for k in ring
                ]
            for index, hand in state["hands"].items():
                self._hands[int(index)] = int(hand)
            for index, bits in state["ref_bits"].items():
                self._ref_bits[int(index)] = {
                    (int(k[0]), int(k[1])): bool(v) for k, v in bits.items()
                }

    def clear(self) -> None:
        """Drop every cached page (stats are left alone)."""
        self._sets.clear()
        self._resident.clear()
        self._ref_bits.clear()
        self._hands.clear()
        self._rings.clear()
