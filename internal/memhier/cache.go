package memhier

import "fmt"

// Cache simulates a set-associative cache with LRU replacement in front of
// a backing layer. The paper's platform uses a software-controlled
// scratchpad rather than a cache for L1, but the profiler supports cached
// hierarchies too: `dmprofile -cache` and examples/custom_hierarchy attach
// this model (profile.Options.Caches) to show per-layer accounting with a
// hardware-managed level. Exploration sessions never attach one.
//
// The model is trace-exact for hits/misses given word-granular addresses:
// each access touches one line; a miss evicts the LRU way of the set and
// fetches the line from the backing layer (counted as LineWords backing
// reads, plus LineWords backing writes if the victim was dirty).
type Cache struct {
	lineWords uint64
	sets      uint64
	ways      int

	// tags[set][way], valid[set][way], dirty[set][way], age[set][way]
	tags  [][]uint64
	valid [][]bool
	dirty [][]bool
	age   [][]uint64

	clock uint64

	hits        uint64
	misses      uint64
	evictions   uint64
	writebacks  uint64
	fetchWords  uint64
	writeBWords uint64
}

// NewCache builds a cache of the given total size in words, line size in
// words, and associativity. sizeWords must be divisible by lineWords*ways.
func NewCache(sizeWords, lineWords uint64, ways int) (*Cache, error) {
	if sizeWords == 0 || lineWords == 0 || ways <= 0 {
		return nil, fmt.Errorf("memhier: cache parameters must be positive")
	}
	if lineWords&(lineWords-1) != 0 {
		return nil, fmt.Errorf("memhier: line size %d not a power of two", lineWords)
	}
	lines := sizeWords / lineWords
	if lines == 0 || lines%uint64(ways) != 0 {
		return nil, fmt.Errorf("memhier: %d words / %d-word lines not divisible into %d ways",
			sizeWords, lineWords, ways)
	}
	sets := lines / uint64(ways)
	c := &Cache{lineWords: lineWords, sets: sets, ways: ways}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.dirty = make([][]bool, sets)
	c.age = make([][]uint64, sets)
	for s := uint64(0); s < sets; s++ {
		c.tags[s] = make([]uint64, ways)
		c.valid[s] = make([]bool, ways)
		c.dirty[s] = make([]bool, ways)
		c.age[s] = make([]uint64, ways)
	}
	return c, nil
}

// AccessResult describes the backing-layer traffic one access caused.
type AccessResult struct {
	Hit          bool
	BackingReads uint64 // words fetched from the backing layer
	BackingWrite uint64 // words written back to the backing layer
}

// Access simulates one word access at addr (word-granular address).
// write marks the line dirty on stores.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.clock++
	line := addr / c.lineWords
	set := line % c.sets
	tag := line / c.sets

	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.hits++
			c.age[set][w] = c.clock
			if write {
				c.dirty[set][w] = true
			}
			return AccessResult{Hit: true}
		}
	}

	c.misses++
	// Choose victim: first invalid way, else LRU.
	victim := 0
	found := false
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			victim = w
			found = true
			break
		}
	}
	if !found {
		oldest := c.age[set][0]
		for w := 1; w < c.ways; w++ {
			if c.age[set][w] < oldest {
				oldest = c.age[set][w]
				victim = w
			}
		}
	}

	res := AccessResult{BackingReads: c.lineWords}
	if c.valid[set][victim] {
		c.evictions++
		if c.dirty[set][victim] {
			c.writebacks++
			res.BackingWrite = c.lineWords
		}
	}
	c.tags[set][victim] = tag
	c.valid[set][victim] = true
	c.dirty[set][victim] = write
	c.age[set][victim] = c.clock
	c.fetchWords += res.BackingReads
	c.writeBWords += res.BackingWrite
	return res
}

// Flush writes back all dirty lines and invalidates the cache, returning
// the number of words written back.
func (c *Cache) Flush() uint64 {
	var words uint64
	for s := uint64(0); s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			if c.valid[s][w] && c.dirty[s][w] {
				words += c.lineWords
				c.writebacks++
			}
			c.valid[s][w] = false
			c.dirty[s][w] = false
		}
	}
	c.writeBWords += words
	return words
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions, Writebacks uint64
	FetchWords, WritebackWords          uint64
}

// Stats returns the counter snapshot.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Writebacks: c.writebacks,
		FetchWords: c.fetchWords, WritebackWords: c.writeBWords,
	}
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
