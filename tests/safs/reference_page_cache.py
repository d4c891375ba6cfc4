"""The page-by-page cache walk, kept as the oracle for ``PageCache``.

``PageCache.lookup_range`` / ``insert_range`` serve a whole span per call
and batch their stats updates.  :class:`ReferencePageCache` adds the
one-page-at-a-time ``lookup`` / ``insert`` they replaced — every counter
bumped per page, every policy branch (LRU, gclock, per-set tallies)
spelled out — so the property tests can drive the same operations
through both and require identical miss runs, counters and recency state.
"""

from collections import OrderedDict
from typing import Optional

from repro.obs import registry as reg
from repro.safs.page_cache import PageCache, PageKey


class ReferencePageCache(PageCache):
    """``PageCache`` plus the per-page entry points, for comparison only."""

    def lookup(self, file_id: int, page_no: int) -> bool:
        """Probe one page: count a hit or a miss, refresh recency on a hit."""
        key = (file_id, page_no)
        self.lookups += 1
        if key not in self._resident:
            if self._set_lookups is not None:
                self._set_lookups[self._set_index(key)] += 1
            self.stats.add(reg.CACHE_MISSES)
            return False
        self.hits += 1
        index = self._set_index(key)
        if self._set_lookups is not None:
            self._set_lookups[index] += 1
            self._set_hits[index] += 1
        if self.config.eviction == "lru":
            self._sets[index].move_to_end(key)
        else:
            self._ref_bits[index][key] = True
        self.stats.add(reg.CACHE_HITS)
        return True

    def insert(self, file_id: int, page_no: int) -> Optional[PageKey]:
        """Cache one page; returns the key it evicted, or ``None``."""
        key = (file_id, page_no)
        index = self._set_index(key)
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = OrderedDict()
            self._sets[index] = cache_set
            if self.config.eviction == "gclock":
                self._ref_bits[index] = {}
                self._hands[index] = 0
                self._rings[index] = []
        if key in cache_set:
            if self.config.eviction == "lru":
                cache_set.move_to_end(key)
            else:
                self._ref_bits[index][key] = True
            return None
        evicted: Optional[PageKey] = None
        if len(cache_set) >= self._set_cap:
            if self.config.eviction == "lru":
                evicted, _ = cache_set.popitem(last=False)
            else:
                evicted = self._gclock_evict(index, cache_set)
            self._resident.discard(evicted)
            self.stats.add(reg.CACHE_EVICTIONS)
        cache_set[key] = None
        self._resident.add(key)
        if self.config.eviction == "gclock":
            self._ref_bits[index][key] = False
            self._rings[index].append(key)
        self.stats.add(reg.CACHE_INSERTIONS)
        return evicted
