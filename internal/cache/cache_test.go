package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"robustdb/internal/table"
)

func id(s string) table.ColumnID { return table.ColumnID("t." + s) }

// countingStat is a StatCounter recording increments.
type countingStat struct{ n int64 }

func (c *countingStat) Inc() { c.n++ }

// counts is a full set of statistics counters, as the engine installs one.
type counts struct{ hits, misses, evictions, readmits, failedInserts countingStat }

// newCounted returns a cache that counts into n.
func newCounted(capacity int64) (c *Cache, n *counts) {
	c, n = New(capacity), new(counts)
	c.SetStats(Stats{Hits: &n.hits, Misses: &n.misses, Evictions: &n.evictions,
		Readmits: &n.readmits, FailedInserts: &n.failedInserts})
	return c, n
}

func TestInsertLookupBasics(t *testing.T) {
	c, n := newCounted(100)
	if c.Capacity() != 100 || c.Len() != 0 {
		t.Fatal("metadata wrong")
	}
	if ev, ok := c.Insert(id("a"), 40); !ok || len(ev) != 0 {
		t.Fatal("insert a failed")
	}
	if !c.Contains(id("a")) || c.Used() != 40 {
		t.Fatal("contains/used wrong")
	}
	if !c.Lookup(id("a")) {
		t.Fatal("lookup a should hit")
	}
	if c.Lookup(id("b")) {
		t.Fatal("lookup b should miss")
	}
	if n.hits.n != 1 || n.misses.n != 1 {
		t.Fatalf("hit/miss = %d/%d", n.hits.n, n.misses.n)
	}
	// Re-inserting refreshes, does not duplicate.
	if _, ok := c.Insert(id("a"), 40); !ok {
		t.Fatal("re-insert failed")
	}
	if c.Used() != 40 || c.Len() != 1 {
		t.Fatal("re-insert duplicated")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c, n := newCounted(100)
	c.Insert(id("a"), 40)
	c.Insert(id("b"), 40)
	c.Lookup(id("a")) // a is now more recent than b
	ev, ok := c.Insert(id("c"), 40)
	if !ok || len(ev) != 1 || ev[0] != id("b") {
		t.Fatalf("LRU should evict b, got %v", ev)
	}
	if !c.Contains(id("a")) || !c.Contains(id("c")) || c.Contains(id("b")) {
		t.Fatal("cache contents wrong after eviction")
	}
	if n.evictions.n != 1 {
		t.Fatal("eviction count wrong")
	}
}

// Without lookups the older insertion is the least recently used.
func TestEvictionTieBreaksOnInsertionOrder(t *testing.T) {
	c := New(80)
	c.Insert(id("a"), 40) // older
	c.Insert(id("b"), 40) // newer
	ev, ok := c.Insert(id("c"), 40)
	if !ok || len(ev) != 1 || ev[0] != id("a") {
		t.Fatalf("tie should evict older insertion a, got %v", ev)
	}
}

func TestInsertTooLargeAndAllProtected(t *testing.T) {
	c, n := newCounted(50)
	if _, ok := c.Insert(id("big"), 60); ok {
		t.Fatal("oversized insert should fail")
	}
	if n.failedInserts.n != 1 {
		t.Fatal("failed insert not counted")
	}
	c.Insert(id("a"), 50)
	if err := c.Pin(id("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Insert(id("b"), 10); ok {
		t.Fatal("insert must fail when every entry is pinned")
	}
	if err := c.Unpin(id("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Insert(id("b"), 10); !ok {
		t.Fatal("insert should succeed after unpin")
	}
}

func TestRefBlocksEviction(t *testing.T) {
	c := New(50)
	c.Insert(id("a"), 50)
	if err := c.Ref(id("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Insert(id("b"), 10); ok {
		t.Fatal("referenced entry must not be evicted")
	}
	c.Unref(id("a"))
	if _, ok := c.Insert(id("b"), 10); !ok {
		t.Fatal("insert should succeed after unref")
	}
}

func TestCondemnedEvictionDeferred(t *testing.T) {
	c := New(100)
	c.Insert(id("a"), 40)
	c.Ref(id("a"))
	if c.Evict(id("a")) {
		t.Fatal("referenced entry must not leave immediately")
	}
	// Condemned: no longer visible to Contains/Lookup but still holds bytes.
	if c.Contains(id("a")) {
		t.Fatal("condemned entry must not be Contains-visible")
	}
	if c.Lookup(id("a")) {
		t.Fatal("condemned entry must not hit")
	}
	if c.Used() != 40 {
		t.Fatal("condemned entry still holds memory")
	}
	c.Unref(id("a"))
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("condemned entry must be cleaned at last unref")
	}
	// Unref after cleanup is a no-op.
	c.Unref(id("a"))
}

func TestEvictImmediate(t *testing.T) {
	c := New(100)
	c.Insert(id("a"), 40)
	if !c.Evict(id("a")) {
		t.Fatal("unreferenced evict should be immediate")
	}
	if c.Evict(id("zz")) {
		t.Fatal("absent evict should report false")
	}
}

func TestPinErrors(t *testing.T) {
	c := New(10)
	if err := c.Pin(id("zz")); err == nil {
		t.Fatal("pin absent should error")
	}
	if err := c.Unpin(id("zz")); err == nil {
		t.Fatal("unpin absent should error")
	}
	if err := c.Ref(id("zz")); err == nil {
		t.Fatal("ref absent should error")
	}
	c.Insert(id("a"), 5)
	c.Pin(id("a"))
	if !c.Pinned(id("a")) || c.Pinned(id("zz")) {
		t.Fatal("Pinned wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unref of unreferenced entry should panic")
		}
	}()
	c.Unref(id("a"))
}

func TestNegativeSizesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestInsertNegativePanics(t *testing.T) {
	c := New(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Insert(id("a"), -1)
}

func TestContents(t *testing.T) {
	c := New(100)
	c.Insert(id("b"), 10)
	c.Insert(id("a"), 10)
	got := c.Contents()
	if len(got) != 2 || got[0] != id("a") || got[1] != id("b") {
		t.Fatalf("Contents = %v", got)
	}
}

// Property: used never exceeds capacity, and pinned entries survive any
// insertion sequence.
func TestCacheInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(1000)
		c.Insert(id("pinned"), 100)
		c.Pin(id("pinned"))
		for i := 0; i < 400; i++ {
			n := rng.Intn(26)
			colID := id(string(rune('a' + n)))
			switch rng.Intn(3) {
			case 0:
				c.Insert(colID, rng.Int63n(400))
			case 1:
				c.Lookup(colID)
			case 2:
				c.Evict(colID)
			}
			if c.Used() > c.Capacity() || c.Used() < 0 {
				return false
			}
			if !c.Contains(id("pinned")) {
				return false
			}
		}
		// Accounting: sum of entry sizes equals used. Re-insert everything
		// with size 0 to count via Contents length only.
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: an entry that was just looked up is never the next LRU victim
// while another unpinned entry exists.
func TestLRUNeverEvictsMostRecent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(300)
		names := []string{"a", "b", "c", "d"}
		for _, n := range names {
			c.Insert(id(n), 100) // only 3 fit
		}
		for i := 0; i < 50; i++ {
			n := names[rng.Intn(len(names))]
			if !c.Lookup(id(n)) {
				ev, ok := c.Insert(id(n), 100)
				if !ok {
					return false
				}
				for _, e := range ev {
					if e == id(n) {
						return false // evicted what we inserted
					}
				}
			}
			if !c.Contains(id(n)) {
				return false // the touched entry must be resident
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Flush empties the cache like a device reset: pins are dropped, referenced
// entries are condemned and leave at their last unreference.
func TestFlush(t *testing.T) {
	c := New(100)
	c.Insert("a", 30)
	c.Insert("b", 30)
	c.Insert("c", 30)
	if err := c.Pin("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Ref("b"); err != nil {
		t.Fatal(err)
	}
	if n := c.Flush(); n != 3 {
		t.Fatalf("flush dropped %d entries, want 3", n)
	}
	// a (pinned) and c left immediately; b survives condemned until unref.
	if c.Contains("a") || c.Contains("b") || c.Contains("c") {
		t.Fatal("flushed entries still visible")
	}
	if c.Used() != 30 {
		t.Fatalf("used = %d, want 30 (condemned b still occupies bytes)", c.Used())
	}
	c.Unref("b")
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatalf("after unref: used=%d len=%d, want empty", c.Used(), c.Len())
	}
	if c.Flush() != 0 {
		t.Fatal("flushing an empty cache must drop nothing")
	}
}

// Re-inserting a column whose condemned copy is still referenced must fail:
// a second copy under the same id would corrupt the byte accounting.
func TestInsertOverCondemnedFails(t *testing.T) {
	c, n := newCounted(100)
	c.Insert("a", 40)
	if err := c.Ref("a"); err != nil {
		t.Fatal(err)
	}
	c.Evict("a") // condemned, still referenced
	failedBefore := n.failedInserts.n
	if _, ok := c.Insert("a", 40); ok {
		t.Fatal("insert over a condemned referenced entry must fail")
	}
	if n.failedInserts.n != failedBefore+1 {
		t.Fatal("failed insert not counted")
	}
	if c.Used() != 40 {
		t.Fatalf("used = %d, want 40", c.Used())
	}
	c.Unref("a")
	if c.Used() != 0 {
		t.Fatal("condemned entry not cleaned up")
	}
	// With the old copy gone the column is insertable again.
	if _, ok := c.Insert("a", 40); !ok {
		t.Fatal("insert after cleanup failed")
	}
}

func TestReadmitTracking(t *testing.T) {
	c, n := newCounted(100)
	if _, ok := c.Insert(id("a"), 60); !ok {
		t.Fatal("insert a")
	}
	if _, ok := c.Insert(id("b"), 60); !ok {
		t.Fatal("insert b (evicts a)")
	}
	if n.evictions.n != 1 || n.readmits.n != 0 {
		t.Fatalf("evictions=%d readmits=%d, want 1/0", n.evictions.n, n.readmits.n)
	}
	// Re-inserting the evicted column is the thrashing signature.
	if _, ok := c.Insert(id("a"), 60); !ok {
		t.Fatal("readmit a")
	}
	if n.readmits.n != 1 {
		t.Fatalf("readmits=%d, want 1", n.readmits.n)
	}
	// Re-inserting evicted b, then evicted a again: both count — every
	// round trip through eviction and back is churn.
	if _, ok := c.Insert(id("b"), 60); !ok {
		t.Fatal("insert b again")
	}
	if _, ok := c.Insert(id("a"), 60); !ok {
		t.Fatal("readmit a again")
	}
	if n.readmits.n != 3 {
		t.Fatalf("readmits=%d, want 3", n.readmits.n)
	}
	// A brand-new column is not a readmission.
	if _, ok := c.Insert(id("c"), 10); !ok {
		t.Fatal("insert c")
	}
	if n.readmits.n != 3 {
		t.Fatalf("fresh insert counted as readmit: %d", n.readmits.n)
	}
}

func TestStatsMirror(t *testing.T) {
	c, n := newCounted(100)
	c.Insert(id("a"), 60)
	c.Lookup(id("a"))      // hit
	c.Lookup(id("x"))      // miss
	c.Insert(id("b"), 60)  // evicts a
	c.Insert(id("a"), 60)  // readmits a, evicts b
	c.Insert(id("z"), 200) // too large: failed insert
	if n.hits.n != 1 || n.misses.n != 1 || n.evictions.n != 2 || n.readmits.n != 1 || n.failedInserts.n != 1 {
		t.Fatalf("unexpected counts: %+v", *n)
	}
	// Nil fields are skipped: the zero Stats stops the counting without
	// disturbing the cache.
	c.SetStats(Stats{})
	c.Lookup(id("a"))
	c.Lookup(id("x"))
	c.Insert(id("b"), 60)
	c.Insert(id("z"), 200)
	if n.hits.n != 1 || n.misses.n != 1 || n.evictions.n != 2 || n.readmits.n != 1 || n.failedInserts.n != 1 {
		t.Fatalf("counters still installed after removal: %+v", *n)
	}
}
