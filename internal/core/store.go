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

// Store persists configurations' metrics across tool invocations, so a
// repeated or interrupted exploration only simulates what no earlier run
// has. Each line of its JSON-lines file is one configuration's profiling
// result; a hit skips the evaluation entirely (Result.CacheHit), and
// therefore any Options side effects (raw logs, series) for that
// configuration.
//
// Records are keyed by storeKey, which includes the hierarchy's
// Fingerprint: a result never crosses cost models. They share one byte
// budget under LRU eviction (lruCache). Save writes them coldest first,
// so a reload under the same budget keeps the same survivors. Records
// from another schema version, and the general-pool runs earlier stores
// also kept ("run" records), are dropped at load and counted stale.
type Store struct {
	path string

	mu      sync.Mutex
	entries *lruCache[*profile.Metrics]
	dirty   bool

	// Accounting, atomically updated so Stats can be read while an
	// exploration's workers are probing the store.
	hits   atomic.Uint64 // a lookup found its key
	misses atomic.Uint64 // a lookup found nothing
	stale  atomic.Uint64 // records dropped at load (version skew, pool runs)
	loaded uint64        // entries resident after load
}

// storeVersion is the on-disk schema version. Any change to the record
// layout, Metrics or the key derivation must bump it, so older records
// are dropped as stale instead of serving results whose meaning has
// drifted. Version 2 added the hierarchy fingerprint to the keys.
const storeVersion = 2

// storeRecord is one line of the store file. Run is only read, to
// recognize a pool-run record of an earlier store, whose content is
// never decoded.
type storeRecord struct {
	Version int              `json:"v"`
	Key     string           `json:"key"`
	Metrics *profile.Metrics `json:"metrics,omitempty"`
	Run     *json.RawMessage `json:"run,omitempty"`
}

// storeKey derives a metrics record's key: the hierarchy fingerprint
// (capacities, energies, latencies and leakage of every layer) and the
// subject, trace identity plus configuration ID. The "metrics" tag is
// kept from when the store held two record kinds, so older files still
// hit.
func storeKey(hierarchy, subject string) string {
	return "metrics\x1f" + hierarchy + "\x1f" + subject
}

// OpenStore loads the store at path, creating an empty one when the file
// does not exist yet. budgetBytes bounds the retained entries (least
// recently used dropped first); <= 0 is unbounded. A line that is not a
// well-formed record is an error.
func OpenStore(path string, budgetBytes int64) (*Store, error) {
	st := &Store{path: path, entries: newLRUCache[*profile.Metrics](budgetBytes)}
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
		if rec.Version != storeVersion || rec.Run != nil {
			st.stale.Add(1)
			st.dirty = true // dropping records rewrites the file on Save
			continue
		}
		st.entries.put(rec.Key, rec.Metrics, metricsBytes(rec.Key, rec.Metrics))
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

// metricsBytes is the budget charge for one record: its metrics plus
// the key, map slot and recency-list node.
func metricsBytes(key string, m *profile.Metrics) int64 {
	return int64(len(key)) + 288 + int64(len(m.ConfigLabel)+len(m.Workload)) +
		int64(len(m.PerLayer))*48 + int64(len(m.Series))*24
}

// Metrics returns the stored metrics for key, if present.
func (st *Store) Metrics(key string) (*profile.Metrics, bool) {
	st.mu.Lock()
	m, ok := st.entries.get(key)
	st.mu.Unlock()
	if ok {
		st.hits.Add(1)
	} else {
		st.misses.Add(1)
	}
	return m, ok
}

// PutMetrics stores one configuration's metrics under key, replacing any
// earlier record.
func (st *Store) PutMetrics(key string, m *profile.Metrics) {
	if m == nil {
		return
	}
	st.mu.Lock()
	st.entries.put(key, m, metricsBytes(key, m))
	st.dirty = true
	st.mu.Unlock()
}

// Len returns the number of resident entries.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries.len()
}

// StoreStats is the store's accounting since open.
type StoreStats struct {
	Hits    uint64 // lookups that found their key
	Misses  uint64 // lookups that found nothing
	Stale   uint64 // records dropped at load: version skew or pool runs
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
	st.entries.each(func(key string, m *profile.Metrics) {
		if err == nil {
			err = enc.Encode(storeRecord{Version: storeVersion, Key: key, Metrics: m})
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
