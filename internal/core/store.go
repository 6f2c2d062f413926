package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"dmexplore/internal/profile"
)

// Store persists evaluation results across tool invocations, so a
// repeated or interrupted exploration only simulates what no earlier run
// has. It holds two record kinds in one JSON-lines file:
//
//   - metrics: one configuration's profiling result. A hit skips the
//     evaluation entirely (Result.CacheHit), and therefore any Options
//     side effects (raw logs, series) for that configuration.
//   - pool run: one standalone general-pool replay (profile.PoolRun). A
//     hit composes with the probing partition in O(ops) and no
//     simulation (Result.Composed). The session verifies the full op
//     sequence (PoolRun.MatchesOps) before composing, so a content-hash
//     collision degrades to a fresh replay, never a wrong result.
//
// Both kinds are keyed by storeKey, which includes the hierarchy's
// Fingerprint: a result never crosses cost models. Entries share one byte
// budget under LRU eviction (lruCache). Save writes them coldest first,
// so a reload under the same budget keeps the same survivors. Records
// from another schema version, and pool runs of invalid shape, are
// dropped at load and counted stale.
type Store struct {
	path string

	mu      sync.Mutex
	entries *lruCache[storeEntry]
	dirty   bool

	// Accounting, atomically updated so Stats can be read while an
	// exploration's workers are probing the store.
	hits   atomic.Uint64 // a lookup found its key
	misses atomic.Uint64 // a lookup found nothing
	stale  atomic.Uint64 // records dropped at load (version skew, bad shape)
	loaded uint64        // entries resident after load
}

// storeEntry is one resident record: exactly one field is set.
type storeEntry struct {
	metrics *profile.Metrics
	run     *profile.PoolRun
}

// storeVersion is the on-disk schema version. Any change to the record
// layout, Metrics, PoolRunState or the key derivation must bump it, so
// older records are dropped as stale instead of serving results whose
// meaning has drifted. Version 2 added the hierarchy fingerprint to the
// keys and merged the two record kinds into one file.
const storeVersion = 2

// storeRecord is one line of the store file.
type storeRecord struct {
	Version int                   `json:"v"`
	Key     string                `json:"key"`
	Metrics *profile.Metrics      `json:"metrics,omitempty"`
	Run     *profile.PoolRunState `json:"run,omitempty"`
}

// Record-kind tags, the first component of every key.
const (
	kindMetrics = "metrics"
	kindPoolRun = "poolrun"
)

// storeKey derives the key of both record kinds: the kind tag, the
// hierarchy fingerprint (capacities, energies, latencies and leakage of
// every layer) and the kind's subject — trace identity plus configuration
// ID for metrics, recorded-op content hash plus general-pool parameters
// for pool runs.
func storeKey(kind, hierarchy, subject string) string {
	return kind + "\x1f" + hierarchy + "\x1f" + subject
}

// OpenStore loads the store at path, creating an empty one when the file
// does not exist yet. budgetBytes bounds the retained entries (least
// recently used dropped first); <= 0 is unbounded. A line that is not a
// well-formed record is an error.
func OpenStore(path string, budgetBytes int64) (*Store, error) {
	st := &Store{path: path, entries: newLRUCache[storeEntry](budgetBytes)}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := st.load(f); err != nil {
		return nil, fmt.Errorf("core: store %s: %w", path, err)
	}
	return st, nil
}

// load reads records in file order, coldest first.
func (st *Store) load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var rec storeRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if rec.Key == "" || (rec.Metrics == nil) == (rec.Run == nil) {
			return fmt.Errorf("line %d: incomplete entry", line)
		}
		e := storeEntry{metrics: rec.Metrics}
		if rec.Run != nil {
			e.run = profile.PoolRunFromState(*rec.Run)
		}
		if rec.Version != storeVersion || (rec.Run != nil && e.run == nil) {
			st.stale.Add(1)
			st.dirty = true // dropping records rewrites the file on Save
			continue
		}
		st.entries.put(rec.Key, e, e.bytes(rec.Key))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	st.loaded = uint64(st.entries.len())
	if st.entries.evicted() > 0 {
		st.dirty = true
	}
	return nil
}

// bytes is the budget charge for one entry: its payload plus the key,
// map slot and recency-list node. A pool run's ops slice is charged
// here, unlike in the session memo, because the store owns it.
func (e storeEntry) bytes(key string) int64 {
	n := int64(len(key)) + 128
	if m := e.metrics; m != nil {
		n += 160 + int64(len(m.ConfigID)+len(m.ConfigLabel)+len(m.Workload)) +
			int64(len(m.PerLayer))*48 + int64(len(m.Series))*24
	}
	if e.run != nil {
		n += e.run.MemBytes() + int64(e.run.Ops())*8
	}
	return n
}

// get returns the entry for key (the zero entry when absent).
func (st *Store) get(key string) storeEntry {
	st.mu.Lock()
	e, _ := st.entries.get(key)
	st.mu.Unlock()
	return e
}

// count records one lookup's outcome.
func (st *Store) count(hit bool) {
	if hit {
		st.hits.Add(1)
	} else {
		st.misses.Add(1)
	}
}

// put stores e under key, replacing any earlier entry.
func (st *Store) put(key string, e storeEntry) {
	st.mu.Lock()
	st.entries.put(key, e, e.bytes(key))
	st.dirty = true
	st.mu.Unlock()
}

// Metrics returns the stored metrics for key, if present.
func (st *Store) Metrics(key string) (*profile.Metrics, bool) {
	m := st.get(key).metrics
	st.count(m != nil)
	return m, m != nil
}

// PoolRun returns the stored pool run for key, if present. The caller
// must verify it against its partition (MatchesOps) before composing.
func (st *Store) PoolRun(key string) (*profile.PoolRun, bool) {
	run := st.get(key).run
	st.count(run != nil)
	return run, run != nil
}

// PutMetrics stores one configuration's metrics under key.
func (st *Store) PutMetrics(key string, m *profile.Metrics) {
	if m != nil {
		st.put(key, storeEntry{metrics: m})
	}
}

// PutPoolRun stores one standalone general-pool replay under key.
func (st *Store) PutPoolRun(key string, run *profile.PoolRun) {
	if run != nil {
		st.put(key, storeEntry{run: run})
	}
}

// Len returns the number of resident entries of both kinds.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries.len()
}

// StoreStats is the store's accounting since open.
type StoreStats struct {
	Hits    uint64 // lookups of either kind that found their key
	Misses  uint64 // lookups that found nothing
	Stale   uint64 // records dropped at load: version skew or invalid shape
	Evicted uint64 // entries the byte budget pushed out
	Loaded  uint64 // entries resident after load
	Bytes   int64  // current retained-byte estimate
}

// Stats returns a snapshot of the accounting. Safe to call while an
// exploration is using the store.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	evicted, size := st.entries.evicted(), st.entries.bytes()
	st.mu.Unlock()
	return StoreStats{
		Hits:    st.hits.Load(),
		Misses:  st.misses.Load(),
		Stale:   st.stale.Load(),
		Evicted: evicted,
		Loaded:  st.loaded,
		Bytes:   size,
	}
}

// Save writes the store atomically (write a temporary file, then rename
// it over the old one), coldest entry first. The output is a function of
// the resident entries and their recency order alone. A store with no
// entry added or dropped since open or the last Save is not rewritten.
func (st *Store) Save() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.dirty {
		return nil
	}
	tmp := st.path + ".tmp"
	f, err := os.Create(tmp)
	if err == nil {
		err = st.write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, st.path)
		}
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	st.dirty = false
	return nil
}

// write encodes every resident entry, coldest first. Callers hold mu.
func (st *Store) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var err error
	st.entries.each(func(key string, e storeEntry) {
		if err != nil {
			return
		}
		rec := storeRecord{Version: storeVersion, Key: key, Metrics: e.metrics}
		if e.run != nil {
			state := e.run.State()
			rec.Run = &state
		}
		err = enc.Encode(rec)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
