package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"dmexplore/internal/telemetry/span"
)

// Record is one journal line: the outcome of one configuration in a
// sweep. The journal is the run's flight recorder — when a gigabyte-scale
// sweep dies at configuration 48213, the journal says which configuration,
// how long each one took, and what the cache did, without re-running
// anything.
type Record struct {
	Index  int      `json:"index"`
	Labels []string `json:"labels,omitempty"`

	DurationMS float64 `json:"duration_ms"`
	CacheHit   bool    `json:"cache_hit"`
	MemoHit    bool    `json:"memo_hit,omitempty"`

	// Incremental is set when the configuration was evaluated by the
	// partial-replay path; EventsSkipped is how many trace events that
	// avoided re-simulating versus a full replay. Composed marks the
	// evaluations served by the pool-run memo: a cached standalone
	// general-pool run composed with the partition, no simulation at all.
	Incremental   bool   `json:"incremental,omitempty"`
	EventsSkipped uint64 `json:"events_skipped,omitempty"`
	Composed      bool   `json:"composed,omitempty"`

	// Predicted holds the surrogate's per-objective predictions made when
	// this configuration was submitted for exact evaluation — the pairs
	// the accuracy digest (Spearman rank correlation, MAE) is computed
	// over. Only surrogate-assisted runs populate it.
	Predicted map[string]float64 `json:"predicted,omitempty"`

	// Origin is the configuration's search provenance (strategy, wave,
	// operator, parents, surrogate decision) — present on the record of
	// its first exact evaluation. See Origin and `dmreport -lineage`.
	Origin *Origin `json:"origin,omitempty"`

	// Distributed provenance, stamped by the coordinator/worker service
	// (internal/serve): the 1-based shard and island the record came from
	// and the worker that evaluated it. Zero/empty on local runs, so
	// single-process journals are byte-identical to pre-service ones.
	Shard  int    `json:"shard,omitempty"`
	Island int    `json:"island,omitempty"`
	Worker string `json:"worker,omitempty"`

	// Headline metrics (omitted on error).
	Accesses       uint64  `json:"accesses,omitempty"`
	FootprintBytes int64   `json:"footprint_bytes,omitempty"`
	EnergyNJ       float64 `json:"energy_nj,omitempty"`
	Cycles         uint64  `json:"cycles,omitempty"`
	Failures       uint64  `json:"failures,omitempty"`

	Error string `json:"error,omitempty"`
}

// Journal is an append-only JSONL writer, safe for concurrent use by the
// exploration workers. Writes are buffered; Close flushes.
type Journal struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	n   int

	// rec holds the record being encoded, so Encode reads it through a
	// pointer into the Journal instead of a boxed copy per line.
	rec Record
}

// NewJournal wraps an open writer (testing, in-memory use).
func NewJournal(w io.Writer) *Journal {
	bw := bufio.NewWriter(w)
	return &Journal{bw: bw, enc: json.NewEncoder(bw)}
}

// CreateJournal creates (truncating) the journal file at path.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := NewJournal(f)
	j.c = f
	return j, nil
}

// Record appends one line.
func (j *Journal) Record(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec = r
	err := j.enc.Encode(&j.rec)
	j.rec = Record{} // keep no reference to the caller's labels and maps
	if err != nil {
		return err
	}
	j.n++
	return nil
}

// Len returns the number of records appended so far.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Flush pushes buffered records to the underlying writer without
// closing it — the signal-driven finalize path, where workers may still
// be appending and the process is about to exit.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bw.Flush()
}

// Close flushes buffered records and closes the underlying file, if any.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.bw.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
		j.c = nil
	}
	return err
}

// ReadJournal parses a JSONL journal back into records.
func ReadJournal(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// JournalDigest aggregates a journal for offline inspection (dmreport).
type JournalDigest struct {
	Records     int
	CacheHits   int
	MemoHits    int
	Incremental int // records served by the partial-replay path
	Composed    int // of Incremental: served by the pool-run memo (no sim)
	Predicted   int // records carrying surrogate predictions
	Errors      int
	Infeasible  int     // records with allocation failures
	TotalSec    float64 // summed per-configuration durations
	MaxMS       float64 // slowest configuration
	MaxIndex    int     // its index
}

// Digest reduces records to their aggregate.
func Digest(recs []Record) JournalDigest {
	d := JournalDigest{Records: len(recs)}
	for _, r := range recs {
		if r.CacheHit {
			d.CacheHits++
		}
		if r.MemoHit {
			d.MemoHits++
		}
		if r.Incremental {
			d.Incremental++
		}
		if r.Composed {
			d.Composed++
		}
		if len(r.Predicted) > 0 {
			d.Predicted++
		}
		if r.Error != "" {
			d.Errors++
		}
		if r.Failures > 0 {
			d.Infeasible++
		}
		d.TotalSec += r.DurationMS / 1e3
		if r.DurationMS > d.MaxMS {
			d.MaxMS = r.DurationMS
			d.MaxIndex = r.Index
		}
	}
	return d
}

// CacheSummary is the results-cache section of a run summary.
type CacheSummary struct {
	Path    string `json:"path"`
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Stale   uint64 `json:"stale"`
}

// RunSummary is the final artifact written next to the journal: one JSON
// document describing the whole run.
type RunSummary struct {
	Tool           string        `json:"tool"`
	Workload       string        `json:"workload"`
	Space          string        `json:"space"`
	Strategy       string        `json:"strategy,omitempty"`
	Objectives     []string      `json:"objectives,omitempty"`
	Configurations int           `json:"configurations"`
	Feasible       int           `json:"feasible"`
	ParetoFront    int           `json:"pareto_front"`
	JournalRecords int           `json:"journal_records"`
	ElapsedSec     float64       `json:"elapsed_sec"`
	Telemetry      Snapshot      `json:"telemetry"`
	Cache          *CacheSummary `json:"cache,omitempty"`

	// Stages is the flight recorder's per-stage time breakdown (span
	// counts and summed seconds per pipeline stage), present when the
	// run recorded spans.
	Stages []span.StageSnapshot `json:"stages,omitempty"`

	// Interrupted marks a summary written by the SIGINT/SIGTERM
	// finalize path: the run was killed mid-sweep and Configurations
	// counts completions, not the plan.
	Interrupted bool `json:"interrupted,omitempty"`
}

// WriteRunSummary writes the summary as indented JSON at path.
func WriteRunSummary(path string, s RunSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadRunSummary loads a run-summary.json.
func ReadRunSummary(path string) (RunSummary, error) {
	var s RunSummary
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("telemetry: %s: %w", path, err)
	}
	return s, nil
}
