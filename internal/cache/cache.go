// Package cache implements the co-processor's column cache: the slice of
// device memory that holds copies of base columns so operators find their
// inputs locally (paper §2.1).
//
// The cache replaces the least recently used column (the paper's LFU-versus-
// LRU comparison of Appendix E is Algorithm 1's ranking, internal/placement),
// pins for the data-placement manager (§3.2), and counts references so
// running queries never lose a column under their feet — condemned entries
// are evicted as soon as the last reference drops (paper §3.2: "we use
// reference counters for access structures ... and can clean up evicted data
// when it is no longer used").
package cache

import (
	"fmt"
	"sort"

	"robustdb/internal/table"
)

// StatCounter is the minimal sink for cache statistics. It is
// satisfied by *trace.Counter without making this package depend on the
// metrics layer; implementations must be safe for concurrent reads (the
// observability surface scrapes them while the simulator mutates the cache).
type StatCounter interface {
	Inc()
}

// Stats is where the cache counts: each statistic is incremented in the
// external counter installed for it, the moment it happens, and nowhere else
// — so live monitoring reads the one copy atomically from another goroutine.
// Nil fields are skipped.
type Stats struct {
	// Hits / Misses count Lookup outcomes.
	Hits, Misses StatCounter
	// Evictions counts every entry leaving the cache by replacement,
	// explicit eviction, or flush.
	Evictions StatCounter
	// Readmits counts insertions of a column that was evicted earlier in
	// the cache's lifetime — the evict-then-readmit churn that defines cache
	// thrashing (paper §2.3, Figure 2).
	Readmits StatCounter
	// FailedInserts counts rejected insertions.
	FailedInserts StatCounter
}

func statInc(c StatCounter) {
	if c != nil {
		c.Inc()
	}
}

type entry struct {
	id        table.ColumnID
	bytes     int64
	pinned    bool
	refs      int
	condemned bool
	lastUsed  int64 // logical clock of last access: no two entries share one
}

// Cache is a device column cache. It is not safe for concurrent use; the
// simulator serializes all access.
type Cache struct {
	capacity int64
	used     int64
	entries  map[table.ColumnID]*entry
	clock    int64

	// evictedOnce remembers every column that was ever evicted, so a later
	// insertion of the same column counts as a readmission. Bounded by the
	// number of distinct columns in the catalog.
	evictedOnce map[table.ColumnID]struct{}
	stats       Stats
}

// New creates a cache of the given byte capacity.
func New(capacity int64) *Cache {
	if capacity < 0 {
		panic(fmt.Sprintf("cache: negative capacity %d", capacity))
	}
	return &Cache{
		capacity:    capacity,
		entries:     make(map[table.ColumnID]*entry),
		evictedOnce: make(map[table.ColumnID]struct{}),
	}
}

// SetStats installs the statistics counters. Pass the zero Stats to remove them.
func (c *Cache) SetStats(s Stats) { c.stats = s }

// Capacity returns the cache capacity in bytes.
func (c *Cache) Capacity() int64 { return c.capacity }

// Used returns the cached bytes.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached columns.
func (c *Cache) Len() int { return len(c.entries) }

// Contains reports whether id is cached, without touching statistics.
func (c *Cache) Contains(id table.ColumnID) bool {
	e, ok := c.entries[id]
	return ok && !e.condemned
}

// Lookup reports whether id is cached and records the access (recency for
// replacement, hit/miss counters).
func (c *Cache) Lookup(id table.ColumnID) bool {
	c.clock++
	e, ok := c.entries[id]
	if !ok || e.condemned {
		statInc(c.stats.Misses)
		return false
	}
	e.lastUsed = c.clock
	statInc(c.stats.Hits)
	return true
}

// Insert caches id with the given size, evicting least recently used
// victims as needed. It reports whether the insertion succeeded and the
// evicted ids. Insertion fails when the column cannot fit even after
// evicting every unpinned, unreferenced entry — the caller then streams the
// data through heap memory instead of caching it. Inserting an already
// cached id only refreshes its recency.
func (c *Cache) Insert(id table.ColumnID, bytes int64) (evicted []table.ColumnID, ok bool) {
	if bytes < 0 {
		panic(fmt.Sprintf("cache: negative size for %s", id))
	}
	c.clock++
	if e, exists := c.entries[id]; exists {
		if !e.condemned {
			e.lastUsed = c.clock
			return nil, true
		}
		// A condemned copy is still referenced by a running operator and
		// occupies its bytes until the last unreference; inserting a second
		// copy under the same id would corrupt the accounting. The caller
		// streams the column through heap memory instead.
		statInc(c.stats.FailedInserts)
		return nil, false
	}
	if bytes > c.capacity {
		statInc(c.stats.FailedInserts)
		return nil, false
	}
	for c.used+bytes > c.capacity {
		v := c.victim()
		if v == nil {
			statInc(c.stats.FailedInserts)
			return evicted, false
		}
		c.remove(v)
		evicted = append(evicted, v.id)
	}
	c.entries[id] = &entry{id: id, bytes: bytes, lastUsed: c.clock}
	c.used += bytes
	if _, was := c.evictedOnce[id]; was {
		delete(c.evictedOnce, id)
		statInc(c.stats.Readmits)
	}
	return evicted, true
}

// victim selects the least recently used entry that is neither pinned nor
// referenced, or nil if there is none. Every access ticks the clock, so the
// choice is unique whatever order the map iterates in.
func (c *Cache) victim() *entry {
	var best *entry
	for _, e := range c.entries {
		if e.pinned || e.refs > 0 || e.condemned {
			continue
		}
		if best == nil || e.lastUsed < best.lastUsed {
			best = e
		}
	}
	return best
}

func (c *Cache) remove(e *entry) {
	delete(c.entries, e.id)
	c.used -= e.bytes
	c.evictedOnce[e.id] = struct{}{}
	statInc(c.stats.Evictions)
}

// Evict removes id immediately if it is unreferenced; a referenced entry is
// condemned and removed when its last reference drops. Evicting an absent id
// is a no-op. It reports whether the entry left the cache immediately.
func (c *Cache) Evict(id table.ColumnID) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	if e.refs > 0 {
		e.condemned = true
		return false
	}
	c.remove(e)
	return true
}

// Flush empties the cache — the column-cache half of a device reset. Pins do
// not survive (the device memory backing them is gone); entries referenced by
// running operators are condemned and leave at their last unreference, all
// others leave immediately. It returns the number of entries dropped or
// condemned.
func (c *Cache) Flush() int {
	ids := c.Contents() // sorted: deterministic flush order
	for _, id := range ids {
		if e, ok := c.entries[id]; ok {
			e.pinned = false
			c.Evict(id)
		}
	}
	return len(ids)
}

// Pin protects id from replacement; used by the data-placement manager for
// the column set chosen by Algorithm 1.
func (c *Cache) Pin(id table.ColumnID) error {
	e, ok := c.entries[id]
	if !ok {
		return fmt.Errorf("cache: cannot pin absent column %s", id)
	}
	e.pinned = true
	return nil
}

// Unpin releases the pin on id.
func (c *Cache) Unpin(id table.ColumnID) error {
	e, ok := c.entries[id]
	if !ok {
		return fmt.Errorf("cache: cannot unpin absent column %s", id)
	}
	e.pinned = false
	return nil
}

// Ref marks id as in use by a running operator, blocking eviction.
func (c *Cache) Ref(id table.ColumnID) error {
	e, ok := c.entries[id]
	if !ok {
		return fmt.Errorf("cache: cannot reference absent column %s", id)
	}
	e.refs++
	return nil
}

// Unref drops one operator reference; a condemned entry with no remaining
// references is cleaned up immediately.
func (c *Cache) Unref(id table.ColumnID) {
	e, ok := c.entries[id]
	if !ok {
		return // already evicted after condemnation
	}
	if e.refs <= 0 {
		panic(fmt.Sprintf("cache: unref of unreferenced column %s", id))
	}
	e.refs--
	if e.refs == 0 && e.condemned {
		c.remove(e)
	}
}

// Pinned reports whether id is cached and pinned.
func (c *Cache) Pinned(id table.ColumnID) bool {
	e, ok := c.entries[id]
	return ok && e.pinned
}

// Contents returns the cached column ids in deterministic (sorted) order,
// including condemned-but-referenced entries.
func (c *Cache) Contents() []table.ColumnID {
	ids := make([]table.ColumnID, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
