// Package serve is the distributed exploration service: an HTTP/JSON
// coordinator (cmd/dmserve) that accepts sweep and search jobs,
// partitions them into shards, and hands the shards to worker processes
// (cmd/dmworker) over work-stealing leases. Each worker wraps the
// existing single-process evaluation stack — core.EvalSession,
// evalBatcher, incremental replay, pool-run memo — unchanged;
// the service adds horizontal scale, not new evaluation semantics.
//
// Search jobs run the island model: one NSGA-II population per shard,
// seed-split per island ID, exchanging Pareto-front members through the
// coordinator every G generations (see core.EvolveIslandSession). Sweep
// jobs split the index space into range shards. Results stream back as
// journal records over chunked HTTP and the coordinator checkpoints
// every line, so jobs survive coordinator and worker restarts; a lease
// that misses its heartbeats expires and the shard is re-issued.
package serve

import (
	"fmt"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
)

// JobSpec describes one exploration job. Everything a worker needs to
// rebuild the evaluation environment is in the spec — workloads are
// regenerated from (name, seed, scale), never shipped — so a spec is a
// complete, deterministic description of the job.
type JobSpec struct {
	Name string `json:"name,omitempty"` // optional human label

	// Evaluation environment.
	Workload     string   `json:"workload"`
	WorkloadSeed uint64   `json:"workload_seed"`
	Scale        int      `json:"scale"`     // percent of the default trace length
	Space        string   `json:"space"`     // narrow|full
	Hierarchy    string   `json:"hierarchy"` // soc|soc3|flat
	Objectives   []string `json:"objectives"`

	// Strategy is "sweep" (exhaustive or sampled, range shards) or
	// "nsga2" (island-model evolutionary search, one island per shard).
	Strategy string `json:"strategy"`

	// Sweep parameters.
	Sample     int    `json:"sample,omitempty"` // 0 = exhaustive
	SampleSeed uint64 `json:"sample_seed,omitempty"`
	ShardSize  int    `json:"shard_size,omitempty"` // indices per range shard (default 256)

	// Search parameters. Budget is per island; the job's total
	// simulation budget is Islands*Budget.
	Islands        int    `json:"islands,omitempty"`
	Population     int    `json:"population,omitempty"`
	Budget         int    `json:"budget,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
	MigrationEvery int    `json:"migration_every,omitempty"`
	MigrationK     int    `json:"migration_k,omitempty"`

	// Evaluation knobs, passed through to the worker's core.Runner.
	Incremental   bool    `json:"incremental,omitempty"`
	EvalLatencyMS float64 `json:"eval_latency_ms,omitempty"`
}

func (s JobSpec) withDefaults() JobSpec {
	if s.Workload == "" {
		s.Workload = "easyport"
	}
	if s.WorkloadSeed == 0 {
		s.WorkloadSeed = 1
	}
	if s.Scale == 0 {
		s.Scale = 100
	}
	if s.Space == "" {
		s.Space = "narrow"
	}
	if s.Hierarchy == "" {
		s.Hierarchy = "soc"
	}
	if len(s.Objectives) == 0 {
		s.Objectives = []string{"accesses", "footprint"}
	}
	if s.Strategy == "" {
		s.Strategy = "sweep"
	}
	if s.ShardSize <= 0 {
		s.ShardSize = 256
	}
	if s.Strategy == "nsga2" {
		if s.Islands <= 0 {
			s.Islands = 1
		}
		if s.Population <= 0 {
			s.Population = core.DefaultPopulation
		}
		if s.Budget <= 0 {
			s.Budget = core.DefaultGenerations * s.Population
		}
		if s.MigrationEvery <= 0 {
			s.MigrationEvery = core.DefaultMigrationEvery
		}
		if s.MigrationK <= 0 {
			s.MigrationK = core.DefaultMigrationK(s.Population)
		}
	}
	return s
}

// Validate rejects specs the coordinator cannot shard.
func (s JobSpec) Validate() error {
	space, err := core.WorkloadSpace(s.Workload, s.Space)
	if err != nil {
		return err
	}
	if s.ShardSize < 1 {
		return fmt.Errorf("serve: shard size %d below 1", s.ShardSize)
	}
	switch s.Strategy {
	case "sweep":
	case "nsga2":
		if s.Population < 4 || s.Population%2 != 0 {
			return fmt.Errorf("serve: population %d must be an even number >= 4", s.Population)
		}
		if s.Budget < s.Population {
			return fmt.Errorf("serve: budget %d below population %d", s.Budget, s.Population)
		}
		if s.Islands < 1 || s.Islands > space.Size() {
			return fmt.Errorf("serve: %d islands, want 1 to the space's %d configurations", s.Islands, space.Size())
		}
	default:
		return fmt.Errorf("serve: unknown strategy %q (sweep|nsga2)", s.Strategy)
	}
	if len(s.Objectives) < 2 {
		return fmt.Errorf("serve: need at least two objectives")
	}
	return nil
}

// ShardState is one unit of leased work: a contiguous index range of a
// sweep, or one island of a search. IDs are 1-based (0 marks "local/
// unset" in journal records).
type ShardState struct {
	ID     int    `json:"id"`
	Kind   string `json:"kind"`             // "range"|"island"
	Lo     int    `json:"lo,omitempty"`     // range: first position in the job's index order
	Hi     int    `json:"hi,omitempty"`     // range: one past the last position
	Island int    `json:"island,omitempty"` // island: 0-based island ID
}

// WarmResult is one already-known evaluation shipped with an island
// lease so a resumed island fast-forwards its deterministic walk through
// the session memo instead of re-simulating (see core.EvalSession.Warm).
type WarmResult struct {
	Index   int              `json:"index"`
	Metrics *profile.Metrics `json:"metrics"`
}

// LeaseRequest asks the coordinator for up to Slots shards. Workers poll
// this endpoint whenever they have free capacity — the work-stealing
// loop: a fast worker drains the queue, a dead worker's expired shards
// return to it.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Slots  int    `json:"slots"`
}

// LeaseGrant hands one shard to a worker under a lease token. The lease
// must be renewed by heartbeat within TTLMS or the shard is re-issued.
type LeaseGrant struct {
	Lease   string       `json:"lease"`
	JobID   string       `json:"job_id"`
	Spec    JobSpec      `json:"spec"`
	Shard   ShardState   `json:"shard"`
	Indices []int        `json:"indices,omitempty"` // range shards: the configuration indices to evaluate
	Warm    []WarmResult `json:"warm,omitempty"`    // island shards: checkpointed results for resume
	TTLMS   int64        `json:"ttl_ms"`
}

// LeaseResponse carries zero or more grants (zero: no work available).
type LeaseResponse struct {
	Grants []LeaseGrant `json:"grants"`
}

// HeartbeatRequest renews a worker's leases and reports its merged
// telemetry snapshot for the coordinator's per-worker /metrics labels.
type HeartbeatRequest struct {
	Worker    string              `json:"worker"`
	Leases    []string            `json:"leases"`
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// HeartbeatResponse lists leases the coordinator no longer recognizes
// (expired and re-issued); the worker must abandon those shards.
type HeartbeatResponse struct {
	Lost []string `json:"lost,omitempty"`
}

// ResultLine is one line of a worker's chunked result stream. A line
// carries either a journal record (with the full metrics riding along so
// the coordinator's checkpoint can warm-serve resumes bit-exactly), or a
// shard terminator.
type ResultLine struct {
	Record  *telemetry.Record `json:"record,omitempty"`
	Metrics *profile.Metrics  `json:"metrics,omitempty"`
	Done    bool              `json:"done,omitempty"`
	Failed  string            `json:"failed,omitempty"`
}

// MigrateRequest posts one island's Pareto-front export at a migration
// generation. The call blocks until every live island of the job has
// posted (or retired) at that generation — the migration barrier — and
// returns the merged immigrants.
type MigrateRequest struct {
	JobID  string              `json:"job_id"`
	Lease  string              `json:"lease"`
	Island int                 `json:"island"`
	Gen    int                 `json:"gen"`
	Front  []core.IslandMember `json:"front"`
}

// MigrateResponse returns the immigrant configuration indices for the
// generation: the global Pareto merge of every island's export, capped
// at the spec's MigrationK, identical for all islands. Deterministic
// given the fronts — and memoized per generation, so a resumed island
// replaying an old generation receives exactly what the original run
// received.
type MigrateResponse struct {
	Immigrants []int `json:"immigrants"`
}

// SubmitResponse acknowledges a job submission.
type SubmitResponse struct {
	ID string `json:"id"`
}

// FrontPoint is one Pareto-front member in a job status.
type FrontPoint struct {
	Index  int       `json:"index"`
	Labels []string  `json:"labels,omitempty"`
	Values []float64 `json:"values"`
}

// JobStatus is the coordinator's view of one job.
type JobStatus struct {
	ID         string       `json:"id"`
	Spec       JobSpec      `json:"spec"`
	State      string       `json:"state"` // running|done|failed
	Shards     int          `json:"shards"`
	ShardsDone int          `json:"shards_done"`
	Results    int          `json:"results"` // distinct configurations evaluated
	Records    int          `json:"records"` // journal lines
	Error      string       `json:"error,omitempty"`
	Front      []FrontPoint `json:"front,omitempty"`
}

// DefaultLeaseTTL is how long a lease survives without a heartbeat
// before its shard is re-issued. Workers heartbeat at TTL/3.
const DefaultLeaseTTL = 10 * time.Second
