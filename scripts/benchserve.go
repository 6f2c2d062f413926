//go:build ignore

// benchserve measures what the distributed exploration service buys:
// the same 512-evaluation island-model NSGA-II job (4 islands x
// population 16, budget 128 per island) run through a loopback-HTTP
// coordinator with 1, 2 and 4 in-process workers, against the serial
// single-process search at the same total budget. The evaluation cost is
// dominated by Runner.EvalLatency (5 ms per simulation), modelling the
// regime the service is built for: a per-configuration backend latency
// (on-target profiling, co-simulation) that a single process cannot
// hide, while islands spread across workers evaluate concurrently.
//
// Every worker runs SessionWorkers=1 — one modelled backend per worker
// process — so the scaling measured here is the service's horizontal
// scaling, not the in-process pool's. The script also verifies the
// determinism contract: every fleet shape must produce the identical
// per-island evaluation walks and the identical final front.
//
// Usage, from the repository root:
//
//	go run scripts/benchserve.go
//
// Writes BENCH_serve.json and exits non-zero if the 4-worker effective
// evals/sec falls below 2.5x the serial baseline, or any fleet shape
// diverges.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/serve"
	"dmexplore/internal/telemetry"
)

const (
	islands     = 4
	population  = 16
	budgetPer   = 128 // per island; islands*budgetPer = the serial budget
	serialPop   = 32
	seed        = 42
	evalLatency = 5 * time.Millisecond
	minSpeedup  = 2.5
)

type runResult struct {
	Workers     int     `json:"workers"`
	SlotsEach   int     `json:"slots_per_worker"`
	WallSeconds float64 `json:"wall_seconds"`
	Evaluations int     `json:"evaluations"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	Speedup     float64 `json:"speedup_vs_serial"`
	FrontSize   int     `json:"front_size"`
	Matches     bool    `json:"matches_1_worker_run"`
}

type output struct {
	GeneratedBy   string      `json:"generated_by"`
	GoVersion     string      `json:"go_version"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	Islands       int         `json:"islands"`
	Population    int         `json:"population_per_island"`
	BudgetPer     int         `json:"budget_per_island"`
	Seed          uint64      `json:"seed"`
	EvalLatencyMS float64     `json:"eval_latency_ms"`
	SerialWallSec float64     `json:"serial_wall_seconds"`
	SerialEvals   int         `json:"serial_evaluations"`
	SerialRate    float64     `json:"serial_evals_per_sec"`
	Runs          []runResult `json:"runs"`
	Speedup4x     float64     `json:"speedup_4_workers_vs_serial"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchserve:", err)
		os.Exit(1)
	}
}

func spec() serve.JobSpec {
	return serve.JobSpec{
		Workload: "easyport", WorkloadSeed: 1, Scale: 5,
		Space: "narrow", Hierarchy: "soc",
		Objectives: []string{"accesses", "footprint"},
		Strategy:   "nsga2", Islands: islands,
		Population: population, Budget: budgetPer, Seed: seed,
		MigrationEvery: 4, MigrationK: 4,
		EvalLatencyMS: float64(evalLatency) / float64(time.Millisecond),
	}
}

// fleetRun is one distributed run's fingerprint: per-island walks and
// the sorted front.
type fleetRun struct {
	wall  time.Duration
	evals int
	walks map[int][]int
	front []int
}

func runFleet(workers int) (fleetRun, error) {
	var fr fleetRun
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		return fr, err
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &serve.Client{Base: srv.URL}

	slots := (islands + workers - 1) / workers
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make([]chan struct{}, workers)
	for i := 0; i < workers; i++ {
		done[i] = make(chan struct{})
		w := &serve.Worker{
			Coordinator:    srv.URL,
			ID:             fmt.Sprintf("bench-w%d", i+1),
			Slots:          slots,
			SessionWorkers: 1, // one modelled backend per worker process
			Poll:           5 * time.Millisecond,
		}
		go func(ch chan struct{}) {
			defer close(ch)
			_ = w.Run(ctx)
		}(done[i])
	}

	start := time.Now()
	id, err := client.Submit(spec())
	if err != nil {
		return fr, err
	}
	var st serve.JobStatus
	for {
		st, err = client.Status(id)
		if err != nil {
			return fr, err
		}
		if st.State != "running" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fr.wall = time.Since(start)
	cancel()
	for _, ch := range done {
		<-ch
	}
	if st.State != "done" {
		return fr, fmt.Errorf("%d-worker job ended %s: %s", workers, st.State, st.Error)
	}

	fr.walks = make(map[int][]int)
	followCtx, followCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer followCancel()
	if _, err := client.FollowJournal(followCtx, id, 0, func(rec telemetry.Record) {
		fr.evals++
		fr.walks[rec.Island] = append(fr.walks[rec.Island], rec.Index)
	}); err != nil {
		return fr, err
	}
	for _, p := range st.Front {
		fr.front = append(fr.front, p.Index)
	}
	sort.Ints(fr.front)
	return fr, nil
}

func sameFleet(a, b fleetRun) bool {
	if a.evals != b.evals || len(a.walks) != len(b.walks) || len(a.front) != len(b.front) {
		return false
	}
	for island, wa := range a.walks {
		wb := b.walks[island]
		if len(wa) != len(wb) {
			return false
		}
		for i := range wa {
			if wa[i] != wb[i] {
				return false
			}
		}
	}
	for i := range a.front {
		if a.front[i] != b.front[i] {
			return false
		}
	}
	return true
}

func run() error {
	// Serial single-process baseline: same total budget, one modelled
	// backend, the path a user without a fleet runs.
	sp := spec()
	env, err := serve.BuildEnv(sp, 1, nil)
	if err != nil {
		return err
	}
	fmt.Printf("space %s: %d configurations, trace %d events\n",
		env.Space.Name, env.Space.Size(), env.Trace.Len())
	serialStart := time.Now()
	serial, err := env.Runner.EvolveIsland(env.Space, sp.Objectives, core.IslandOptions{EvolveOptions: core.EvolveOptions{
		Population: serialPop, Budget: islands * budgetPer, Seed: seed,
	}})
	if err != nil {
		return err
	}
	serialWall := time.Since(serialStart)
	serialRate := float64(len(serial)) / serialWall.Seconds()
	fmt.Printf("serial    %4d evals in %7.2fs  (%6.1f evals/s)\n",
		len(serial), serialWall.Seconds(), serialRate)

	out := output{
		GeneratedBy: "scripts/benchserve.go", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Islands:    islands, Population: population, BudgetPer: budgetPer,
		Seed: seed, EvalLatencyMS: sp.EvalLatencyMS,
		SerialWallSec: serialWall.Seconds(), SerialEvals: len(serial), SerialRate: serialRate,
	}

	var ref fleetRun
	for _, workers := range []int{1, 2, 4} {
		fr, err := runFleet(workers)
		if err != nil {
			return err
		}
		if workers == 1 {
			ref = fr
		}
		rate := float64(fr.evals) / fr.wall.Seconds()
		rr := runResult{
			Workers: workers, SlotsEach: (islands + workers - 1) / workers,
			WallSeconds: fr.wall.Seconds(), Evaluations: fr.evals,
			EvalsPerSec: rate, Speedup: rate / serialRate,
			FrontSize: len(fr.front), Matches: sameFleet(ref, fr),
		}
		out.Runs = append(out.Runs, rr)
		fmt.Printf("workers %d %4d evals in %7.2fs  (%6.1f evals/s, %.2fx serial, front %d, deterministic %v)\n",
			workers, fr.evals, fr.wall.Seconds(), rate, rr.Speedup, rr.FrontSize, rr.Matches)
		if !rr.Matches {
			return fmt.Errorf("%d-worker fleet diverged from the 1-worker run", workers)
		}
		if workers == 4 {
			out.Speedup4x = rr.Speedup
		}
	}

	f, err := os.Create("BENCH_serve.json")
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
	fmt.Println("wrote BENCH_serve.json")

	if out.Speedup4x < minSpeedup {
		return fmt.Errorf("4-worker effective rate %.2fx serial, below the %.1fx gate", out.Speedup4x, minSpeedup)
	}
	return nil
}
