package core

import "sync"

// lruCache is a size-aware least-recently-used cache bounding the
// session's partition cache and pool-run memo and the persisted Store:
// entries carry a byte cost, a budget caps the total, and inserts evict
// from the cold end until the total fits. Eviction only drops the
// cache's reference — workers holding a pointer to an evicted entry keep
// using it safely (partitions and pool runs are immutable); a later
// lookup simply rebuilds. Not safe for concurrent use; callers hold their own mutex.
type lruCache[V any] struct {
	budget    int64 // max total bytes; <= 0 means unbounded
	size      int64
	evictions uint64

	entries    map[string]*lruNode[V]
	head, tail *lruNode[V] // head = most recently used
}

// onceCache is a concurrent lruCache of values built once per key: the
// session's partition cache and pool-run memo. A lookup claims or gets
// the key's entry under the lock; the build runs outside it, once, while
// concurrent lookups of the key wait; a successful build is resized to
// its real cost. A failed build stays cached until evicted.
type onceCache[V memSized] struct {
	mu  sync.Mutex
	lru lruCache[*onceEntry[V]]
}

// memSized is a cached value that reports the bytes it retains.
type memSized interface{ MemBytes() int64 }

// onceEntry is one key's build: its value and whether it succeeded, and
// the key, which the build resizes by.
type onceEntry[V any] struct {
	once sync.Once
	key  string
	val  V
	ok   bool
}

// onceEntryBytes is an entry's cost before (or beyond) its value: map
// slot, recency-list node, entry struct.
const onceEntryBytes = 128

// newOnceCache returns a cache bounded to budget bytes (<= 0: unbounded).
func newOnceCache[V memSized](budget int64) *onceCache[V] {
	return &onceCache[V]{lru: *newLRUCache[*onceEntry[V]](budget)}
}

// reserve sizes an empty cache's map for n entries, so its first n
// claims do not grow it.
func (c *onceCache[V]) reserve(n int) *onceCache[V] {
	c.lru.entries = make(map[string]*lruNode[*onceEntry[V]], n)
	return c
}

// get returns key's value and whether its build succeeded, running build
// on the first request for key. A lookup of a resident key does not
// copy it; the key string is allocated once, when the key is claimed.
func (c *onceCache[V]) get(key []byte, build func() (V, bool)) (V, bool) {
	c.mu.Lock()
	e, ok := c.lru.getBytes(key)
	if !ok {
		e = &onceEntry[V]{key: string(key)}
		c.lru.put(e.key, e, onceEntryBytes)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if e.val, e.ok = build(); e.ok {
			// The budget may now evict colder keys, never this one.
			c.mu.Lock()
			c.lru.resize(e.key, onceEntryBytes+e.val.MemBytes())
			c.mu.Unlock()
		}
	})
	return e.val, e.ok
}

// stats returns the resident entries, their accounted bytes and how many
// entries the budget has evicted.
func (c *onceCache[V]) stats() (entries int, bytes int64, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.len(), c.lru.bytes(), c.lru.evicted()
}

// lruNode is one resident entry in the cache's recency list.
type lruNode[V any] struct {
	key        string
	val        V
	bytes      int64
	prev, next *lruNode[V]
}

// newLRUCache returns a cache bounded to budget bytes (<= 0: unbounded).
func newLRUCache[V any](budget int64) *lruCache[V] {
	return &lruCache[V]{budget: budget, entries: make(map[string]*lruNode[V])}
}

// get returns the entry for key, marking it most recently used.
func (c *lruCache[V]) get(key string) (V, bool) { return c.found(c.entries[key]) }

// getBytes is get for a key held as bytes, which it does not copy.
func (c *lruCache[V]) getBytes(key []byte) (V, bool) { return c.found(c.entries[string(key)]) }

// found returns n's value, marking it most recently used; a nil n is a
// missing key.
func (c *lruCache[V]) found(n *lruNode[V]) (V, bool) {
	if n == nil {
		var zero V
		return zero, false
	}
	c.touch(n)
	return n.val, true
}

// put inserts (or replaces) key at the hot end with the given byte cost,
// then evicts cold entries until the budget holds. The entry just put is
// never evicted, even when it alone exceeds the budget — the caller is
// about to use it.
func (c *lruCache[V]) put(key string, v V, bytes int64) {
	if n, ok := c.entries[key]; ok {
		c.size += bytes - n.bytes
		n.val = v
		n.bytes = bytes
		c.touch(n)
		c.evict(n)
		return
	}
	n := &lruNode[V]{key: key, val: v, bytes: bytes}
	c.entries[key] = n
	c.size += bytes
	c.pushFront(n)
	c.evict(n)
}

// resize updates key's byte cost once its real size is known (entries
// are claimed before their builds complete) and applies the budget. A
// key already evicted is left alone.
func (c *lruCache[V]) resize(key string, bytes int64) {
	n, ok := c.entries[key]
	if !ok {
		return
	}
	c.size += bytes - n.bytes
	n.bytes = bytes
	c.touch(n)
	c.evict(n)
}

// len returns the resident entry count.
func (c *lruCache[V]) len() int { return len(c.entries) }

// bytes returns the accounted resident size.
func (c *lruCache[V]) bytes() int64 { return c.size }

// evicted returns how many entries the budget has pushed out.
func (c *lruCache[V]) evicted() uint64 { return c.evictions }

// each calls fn for every resident entry, coldest first.
func (c *lruCache[V]) each(fn func(key string, v V)) {
	for n := c.tail; n != nil; n = n.prev {
		fn(n.key, n.val)
	}
}

// evict drops cold-end entries until the budget holds, sparing keep.
func (c *lruCache[V]) evict(keep *lruNode[V]) {
	if c.budget <= 0 {
		return
	}
	for c.size > c.budget && c.tail != nil && c.tail != keep {
		n := c.tail
		c.unlink(n)
		delete(c.entries, n.key)
		c.size -= n.bytes
		c.evictions++
	}
}

func (c *lruCache[V]) touch(n *lruNode[V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *lruCache[V]) pushFront(n *lruNode[V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
