package core

import "testing"

// TestLRUEvictsColdEntries pins the size-aware bound: inserts past the
// budget drop the least-recently-used entries first, and a get refreshes
// recency.
func TestLRUEvictsColdEntries(t *testing.T) {
	c := newLRUCache[int](100)
	c.put("a", 1, 40)
	c.put("b", 2, 40)
	if _, ok := c.get("a"); !ok { // a is now hotter than b
		t.Fatal("a missing before any eviction")
	}
	c.put("c", 3, 40) // 120 > 100: evicts b (the cold end)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past the budget")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted out of recency order", k)
		}
	}
	if c.len() != 2 || c.bytes() != 80 {
		t.Fatalf("len %d bytes %d, want 2/80", c.len(), c.bytes())
	}
	if c.evicted() != 1 {
		t.Fatalf("evictions %d, want 1", c.evicted())
	}
}

// TestLRUResizeAppliesBudget covers the two-phase sizing the session
// uses: entries are claimed at a placeholder cost and resized once
// built; the resize itself must enforce the budget without evicting the
// entry just resized.
func TestLRUResizeAppliesBudget(t *testing.T) {
	c := newLRUCache[int](100)
	c.put("a", 1, 10)
	c.put("b", 2, 10)
	c.resize("b", 95) // 105 > 100: evicts a, never b
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived the resize overflow")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("resize evicted the entry being resized")
	}
	if c.bytes() != 95 {
		t.Fatalf("bytes %d, want 95", c.bytes())
	}
	// Resizing an evicted key is a no-op, not a resurrection.
	c.resize("a", 1)
	if c.len() != 1 {
		t.Fatalf("resize of an evicted key changed the cache: len %d", c.len())
	}
}

// TestLRUKeepsOversizedNewest: an entry bigger than the whole budget is
// still admitted (the caller is about to use it) and everything else
// goes.
func TestLRUKeepsOversizedNewest(t *testing.T) {
	c := newLRUCache[int](100)
	c.put("a", 1, 50)
	c.put("big", 2, 500)
	if _, ok := c.get("big"); !ok {
		t.Fatal("oversized entry evicted on insert")
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("cold entry survived an oversized insert")
	}
	if c.len() != 1 {
		t.Fatalf("len %d, want 1", c.len())
	}
}

// TestLRUUnbounded: budget <= 0 never evicts.
func TestLRUUnbounded(t *testing.T) {
	c := newLRUCache[int](0)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.put(k, i, 1<<30)
	}
	if c.len() != 4 || c.evicted() != 0 {
		t.Fatalf("unbounded cache evicted: len %d evictions %d", c.len(), c.evicted())
	}
}

// TestLRUReplace: re-putting a key updates value and size in place.
func TestLRUReplace(t *testing.T) {
	c := newLRUCache[int](100)
	c.put("a", 1, 30)
	c.put("a", 2, 60)
	if v, ok := c.get("a"); !ok || v != 2 {
		t.Fatalf("replaced entry reads %d/%v, want 2/true", v, ok)
	}
	if c.len() != 1 || c.bytes() != 60 {
		t.Fatalf("len %d bytes %d, want 1/60", c.len(), c.bytes())
	}
}
