//go:build ignore

// benchsurrogate measures what the surrogate screening layer buys the
// guided searches: how many exact simulations a surrogate-assisted
// screen-and-refine run needs to reach (nearly) the hypervolume of the
// exact run at the full budget. It writes BENCH_surrogate.json at the
// repository root.
//
// The exact run is screen-and-refine on the full Easyport space with a
// 512-simulation budget — the configuration the earlier PRs benchmark.
// The surrogate run enables Runner.Surrogate and spends an order of
// magnitude less: the online per-objective models rank the candidate
// pool so the budget goes to the configurations most likely to extend
// the front. Quality is compared by 2-D hypervolume against a shared
// reference point derived from the exact run's feasible points.
//
// The script also verifies the determinism contract the surrogate must
// keep: the assisted run produces the identical evaluation sequence and
// front at every worker count, because all model updates and predictions
// happen on the strategy's coordinating goroutine in batch order.
//
// Usage, from the repository root:
//
//	go run scripts/benchsurrogate.go
//
// Exits non-zero if the simulation reduction falls below 3x, the
// surrogate hypervolume drops more than 5% below the exact run, or any
// worker count diverges from the serial surrogate run.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/pareto"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

const (
	exactScreen     = 128
	exactBudget     = 512
	surrogateScreen = 40
	surrogateBudget = 102
	seed            = 42

	// Gate thresholds: the headline claim is >=5x fewer simulations
	// within 5% of the exact hypervolume; the CI gate keeps slack at
	// 3x so machine-to-machine noise in the tiny workload cannot flake
	// the build, while the JSON records the actual ratio.
	minReduction = 3.0
	maxHVLoss    = 0.05
)

type runResult struct {
	Name        string  `json:"name"`
	Budget      int     `json:"budget"`
	Evaluations int     `json:"evaluations"`
	FrontSize   int     `json:"front_size"`
	Hypervolume float64 `json:"hypervolume"`
	HVFraction  float64 `json:"hv_fraction_of_exact"`
	WallSeconds float64 `json:"wall_seconds"`
}

type output struct {
	GeneratedBy    string      `json:"generated_by"`
	GoVersion      string      `json:"go_version"`
	GOMAXPROCS     int         `json:"gomaxprocs"`
	Space          string      `json:"space"`
	SpaceSize      int         `json:"space_size"`
	Seed           uint64      `json:"seed"`
	Runs           []runResult `json:"runs"`
	SimReduction   float64     `json:"sim_reduction"`
	HVFraction     float64     `json:"hv_fraction_of_exact"`
	SurrogateStats struct {
		Trained     int                `json:"trained"`
		Predictions uint64             `json:"predictions"`
		ScreenedOut uint64             `json:"screened_out"`
		Pairs       int                `json:"accuracy_pairs"`
		Spearman    map[string]float64 `json:"spearman"`
		MAE         map[string]float64 `json:"mae"`
	} `json:"surrogate"`
	DeterministicWorkers []int `json:"deterministic_workers"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsurrogate:", err)
		os.Exit(1)
	}
}

// fingerprint captures the determinism contract: the exact evaluation
// sequence (index + metrics) and the resulting front.
type fingerprint struct {
	seq   []int
	acc   []uint64
	foot  []int64
	front []int
}

func run() error {
	p := workload.DefaultEasyportParams()
	p.Packets = 400
	tr, err := p.Generate()
	if err != nil {
		return err
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		return err
	}
	space := core.FullEasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}

	out := output{
		GeneratedBy: "go run scripts/benchsurrogate.go",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Space:       space.Name,
		SpaceSize:   space.Size(),
		Seed:        seed,
	}

	newRunner := func(workers int) *core.Runner {
		return &core.Runner{
			Hierarchy: memhier.EmbeddedSoC(),
			Trace:     tr,
			Compiled:  ct,
			Workers:   workers,
		}
	}

	// Exact reference run: full budget, no surrogate.
	start := time.Now()
	exact, err := newRunner(8).ScreenAndRefine(space, objs, exactScreen, exactBudget, seed)
	if err != nil {
		return fmt.Errorf("exact run: %w", err)
	}
	exactWall := time.Since(start).Seconds()
	exactFront, exactPoints, err := core.ParetoSet(core.Feasible(exact), objs)
	if err != nil {
		return err
	}
	ref := hvRef(exactPoints)
	exactHV := pareto.Hypervolume2D(exactPoints, ref)
	if exactHV <= 0 {
		return fmt.Errorf("exact run produced zero hypervolume")
	}
	out.Runs = append(out.Runs, runResult{
		Name: "exact", Budget: exactBudget, Evaluations: len(exact),
		FrontSize: len(exactFront), Hypervolume: exactHV, HVFraction: 1,
		WallSeconds: exactWall,
	})
	fmt.Fprintf(os.Stderr, "exact      %4d sims  front=%2d  hv=100.0%%  %.2fs\n",
		len(exact), len(exactFront), exactWall)

	// Surrogate run: a fraction of the budget, models ranking the pool.
	col := telemetry.NewCollector(8)
	r := newRunner(8)
	r.Telemetry = col
	r.Surrogate = &core.SurrogateOptions{}
	start = time.Now()
	assisted, err := r.ScreenAndRefine(space, objs, surrogateScreen, surrogateBudget, seed)
	if err != nil {
		return fmt.Errorf("surrogate run: %w", err)
	}
	surWall := time.Since(start).Seconds()
	surFront, surPoints, err := core.ParetoSet(core.Feasible(assisted), objs)
	if err != nil {
		return err
	}
	surHV := pareto.Hypervolume2D(surPoints, ref)
	frac := surHV / exactHV
	out.Runs = append(out.Runs, runResult{
		Name: "surrogate", Budget: surrogateBudget, Evaluations: len(assisted),
		FrontSize: len(surFront), Hypervolume: surHV, HVFraction: frac,
		WallSeconds: surWall,
	})
	out.SimReduction = float64(len(exact)) / float64(len(assisted))
	out.HVFraction = frac
	snap := col.Snapshot()
	stats := &out.SurrogateStats
	stats.Trained = int(snap.SurrogateTrained)
	stats.Predictions = snap.SurrogatePredictions
	stats.ScreenedOut = snap.SurrogateScreened
	stats.Spearman = make(map[string]float64)
	stats.MAE = make(map[string]float64)
	for obj, a := range core.SurrogateAccuracy(assisted) {
		stats.Spearman[obj], stats.MAE[obj] = a.Spearman, a.MAE
		stats.Pairs = max(stats.Pairs, a.Pairs)
	}
	fmt.Fprintf(os.Stderr, "surrogate  %4d sims  front=%2d  hv=%5.1f%%  %.2fs  (%.1fx fewer sims)\n",
		len(assisted), len(surFront), 100*frac, surWall, out.SimReduction)

	// Determinism: the assisted run must be bit-identical at every
	// worker count.
	var serial fingerprint
	for _, workers := range []int{1, 2, 4, 8} {
		r := newRunner(workers)
		r.Surrogate = &core.SurrogateOptions{}
		results, err := r.ScreenAndRefine(space, objs, surrogateScreen, surrogateBudget, seed)
		if err != nil {
			return fmt.Errorf("workers=%d: %w", workers, err)
		}
		front, _, err := core.ParetoSet(core.Feasible(results), objs)
		if err != nil {
			return err
		}
		fp := fingerprint{}
		for _, res := range results {
			fp.seq = append(fp.seq, res.Index)
			fp.acc = append(fp.acc, res.Metrics.Accesses)
			fp.foot = append(fp.foot, res.Metrics.FootprintBytes)
		}
		for _, res := range front {
			fp.front = append(fp.front, res.Index)
		}
		if workers == 1 {
			serial = fp
		} else if !sameFingerprint(serial, fp) {
			return fmt.Errorf("workers=%d diverged from the serial surrogate run", workers)
		}
		out.DeterministicWorkers = append(out.DeterministicWorkers, workers)
	}
	fmt.Fprintf(os.Stderr, "determinism verified for workers=%v\n", out.DeterministicWorkers)

	f, err := os.Create("BENCH_surrogate.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote BENCH_surrogate.json")

	if out.SimReduction < minReduction {
		return fmt.Errorf("simulation reduction %.2fx below the %.1fx bar", out.SimReduction, minReduction)
	}
	if frac < 1-maxHVLoss {
		return fmt.Errorf("surrogate hypervolume %.1f%% of exact, below the %.0f%% bar",
			100*frac, 100*(1-maxHVLoss))
	}
	return nil
}

// hvRef builds a reference point dominated by every point the exact run
// observed, so both runs' hypervolumes are measured against the same
// corner.
func hvRef(points []pareto.Point) [2]float64 {
	var ref [2]float64
	for _, p := range points {
		for d := 0; d < 2; d++ {
			if p.Values[d] > ref[d] {
				ref[d] = p.Values[d]
			}
		}
	}
	ref[0] *= 1.01
	ref[1] *= 1.01
	return ref
}

func sameFingerprint(a, b fingerprint) bool {
	if len(a.seq) != len(b.seq) || len(a.front) != len(b.front) {
		return false
	}
	for i := range a.seq {
		if a.seq[i] != b.seq[i] || a.acc[i] != b.acc[i] || a.foot[i] != b.foot[i] {
			return false
		}
	}
	for i := range a.front {
		if a.front[i] != b.front[i] {
			return false
		}
	}
	return true
}
