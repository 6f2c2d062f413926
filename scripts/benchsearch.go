//go:build ignore

// benchsearch measures what the batched evaluation session buys the
// guided searches: it runs the same seeded NSGA-II exploration of the
// full Easyport space at several worker counts and records wall-clock,
// throughput, and the speedup of 8 workers over the serial baseline in
// BENCH_search.json at the repository root.
//
// The evaluation cost is dominated by Runner.EvalLatency, modelling the
// regime the batching layer is built for: an evaluation backend with
// per-configuration latency (on-target profiling runs, co-simulation),
// where a generation-wide batch keeps the whole worker pool saturated
// while a per-configuration loop leaves it idle. The script also verifies
// the determinism contract — every worker count must produce the
// identical evaluation sequence and front.
//
// Usage, from the repository root:
//
//	go run scripts/benchsearch.go
//
// Exits non-zero if the 8-worker speedup falls below 3x or any worker
// count diverges from the serial run.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

const (
	population  = 32
	budget      = 512
	seed        = 42
	evalLatency = 5 * time.Millisecond
	minSpeedup  = 3.0
)

type runResult struct {
	Workers       int     `json:"workers"`
	WallSeconds   float64 `json:"wall_seconds"`
	Evaluations   int     `json:"evaluations"`
	EvalsPerSec   float64 `json:"evals_per_sec"`
	FrontSize     int     `json:"front_size"`
	SpeedupVsSer  float64 `json:"speedup_vs_serial,omitempty"`
	Deterministic bool    `json:"matches_serial_run"`
}

type output struct {
	GeneratedBy   string      `json:"generated_by"`
	GoVersion     string      `json:"go_version"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	Space         string      `json:"space"`
	SpaceSize     int         `json:"space_size"`
	Population    int         `json:"population"`
	Budget        int         `json:"budget"`
	Seed          uint64      `json:"seed"`
	EvalLatencyMS float64     `json:"eval_latency_ms"`
	Runs          []runResult `json:"runs"`
	Speedup8x     float64     `json:"speedup_8_workers_vs_serial"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsearch:", err)
		os.Exit(1)
	}
}

// fingerprint captures everything the determinism contract covers: the
// evaluation sequence (index + metrics) and the resulting front.
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
		GeneratedBy:   "go run scripts/benchsearch.go",
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Space:         space.Name,
		SpaceSize:     space.Size(),
		Population:    population,
		Budget:        budget,
		Seed:          seed,
		EvalLatencyMS: float64(evalLatency) / float64(time.Millisecond),
	}

	var serial fingerprint
	var serialWall float64
	for _, workers := range []int{1, 2, 4, 8} {
		r := &core.Runner{
			Hierarchy:   memhier.EmbeddedSoC(),
			Trace:       tr,
			Compiled:    ct,
			Workers:     workers,
			EvalLatency: evalLatency,
		}
		start := time.Now()
		results, err := r.EvolveIsland(space, objs, core.IslandOptions{EvolveOptions: core.EvolveOptions{
			Population: population, Budget: budget, Seed: seed,
		}})
		if err != nil {
			return fmt.Errorf("workers=%d: %w", workers, err)
		}
		wall := time.Since(start).Seconds()
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

		rr := runResult{
			Workers:     workers,
			WallSeconds: wall,
			Evaluations: len(results),
			EvalsPerSec: float64(len(results)) / wall,
			FrontSize:   len(front),
		}
		if workers == 1 {
			serial, serialWall = fp, wall
			rr.Deterministic = true
		} else {
			rr.Deterministic = sameFingerprint(serial, fp)
			rr.SpeedupVsSer = serialWall / wall
			if !rr.Deterministic {
				return fmt.Errorf("workers=%d diverged from the serial run", workers)
			}
		}
		out.Runs = append(out.Runs, rr)
		fmt.Fprintf(os.Stderr,
			"workers=%d  %6.2fs  %4d evals  %6.1f evals/sec  front=%d  speedup=%.2fx\n",
			workers, wall, rr.Evaluations, rr.EvalsPerSec, rr.FrontSize, serialWall/wall)
	}
	out.Speedup8x = serialWall / out.Runs[len(out.Runs)-1].WallSeconds

	f, err := os.Create("BENCH_search.json")
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
	fmt.Fprintln(os.Stderr, "wrote BENCH_search.json")
	if out.Speedup8x < minSpeedup {
		return fmt.Errorf("8-worker speedup %.2fx below the %.1fx bar", out.Speedup8x, minSpeedup)
	}
	return nil
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
