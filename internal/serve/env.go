package serve

import (
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// Env is a fully resolved evaluation environment for one job spec: the
// regenerated and compiled trace, the space, the hierarchy, and a Runner
// configured with the spec's evaluation knobs. Workers build one Env per
// job and share its session across every shard of that job they hold.
type Env struct {
	Trace     *trace.Trace
	Compiled  *trace.Compiled
	Space     *core.Space
	Hierarchy *memhier.Hierarchy
	Runner    *core.Runner
}

// BuildEnv resolves a spec into an evaluation environment. workers caps
// the Runner's session pool; collector, when non-nil, receives the
// environment's telemetry (pass nil to use a private collector).
func BuildEnv(spec JobSpec, workers int, collector *telemetry.Collector) (*Env, error) {
	hier, err := memhier.Preset(spec.Hierarchy)
	if err != nil {
		return nil, err
	}
	space, err := core.WorkloadSpace(spec.Workload, spec.Space)
	if err != nil {
		return nil, err
	}
	gen, err := workload.New(spec.Workload, spec.WorkloadSeed, spec.Scale)
	if err != nil {
		return nil, err
	}
	tr, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		return nil, err
	}
	r := &core.Runner{
		Hierarchy:   hier,
		Trace:       tr,
		Compiled:    ct,
		Workers:     workers,
		Telemetry:   collector,
		Incremental: spec.Incremental,
		EvalLatency: time.Duration(spec.EvalLatencyMS * float64(time.Millisecond)),
	}
	return &Env{Trace: tr, Compiled: ct, Space: space, Hierarchy: hier, Runner: r}, nil
}

// sweepIndices materializes a sweep job's index order, the one
// core.Runner.Sample walks (core.SweepIndices). Range shards slice this
// order, so the sharded sweep evaluates exactly the set a local run
// would.
func sweepIndices(spec JobSpec, size int) []int {
	return core.SweepIndices(size, spec.Sample, spec.SampleSeed)
}

// planShards partitions a job into its shards: one island shard per
// island for searches, ShardSize-index range shards for sweeps.
func planShards(spec JobSpec, space *core.Space) []ShardState {
	var shards []ShardState
	if spec.Strategy == "nsga2" {
		for i := 0; i < spec.Islands; i++ {
			shards = append(shards, ShardState{ID: i + 1, Kind: "island", Island: i})
		}
		return shards
	}
	n := len(sweepIndices(spec, space.Size()))
	id := 1
	for lo := 0; lo < n; lo += spec.ShardSize {
		hi := lo + spec.ShardSize
		if hi > n {
			hi = n
		}
		shards = append(shards, ShardState{ID: id, Kind: "range", Lo: lo, Hi: hi})
		id++
	}
	return shards
}
