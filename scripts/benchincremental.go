//go:build ignore

// benchincremental records the two performance contracts of the columnar
// replay engine in BENCH_incremental.json at the repository root:
//
//  1. Raw columnar replay throughput — the slab-based decode/replay loop
//     against the frozen pre-Replayer baseline (the map-based profile.Run
//     path, measured at the commit that introduced the compiled engine).
//     Gate: >= 1.5x events/sec on every baseline configuration.
//
//  2. Effective guided-search throughput with incremental re-evaluation —
//     the same seeded hill-climb over the full Easyport space with
//     Runner.Incremental off and on, in the two regimes that matter:
//
//     sim: no EvalLatency — raw in-process simulation is the whole
//     evaluation cost. Reported for the record, ungated: roughly half
//     of an Easyport replay is pool ops, which a partial replay must
//     still simulate, so this regime bounds the win at the event mix.
//
//     backend: EvalLatency = 5ms, the exact regime BENCH_search.json
//     (the PR 4 batched baseline) is recorded in — an evaluation
//     backend with per-configuration latency (on-target profiling,
//     co-simulation). A partial re-evaluation replays only the
//     partition's recorded ops, so it charges the backend pro-rata;
//     that is where incremental re-evaluation compounds with batching.
//     The pool-run memo raises the bar further: evaluations whose
//     recorded fallback sequence and general vector were already
//     replayed compose from cached runs with no simulation and no
//     backend charge at all, and the hill-climb's neighbourhood
//     flooding re-visits exactly such combinations. Gate: >= 4x
//     effective evals/sec over the full-replay run (3.3x was typical
//     before the memo), with the memo hit rate recorded per run, and a
//     bit-identical evaluation fingerprint across all four runs. For
//     calibration: the PR 4 tree (commit f62f4a7) runs this exact
//     seeded hill-climb at ~185 evals/sec on the same host, within
//     noise of the full-replay run here — the full run is an honest
//     stand-in for the frozen baseline on whatever machine CI gives us.
//
// Usage, from the repository root:
//
//	go run scripts/benchincremental.go
//
// Exits non-zero if either gate fails or the fingerprints diverge.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"dmexplore/internal/alloc"
	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

const (
	colPackets    = 3000
	colMinSpeedup = 1.5
	colMinWindow  = time.Second

	// The hill-climb regime mirrors scripts/benchsearch.go (the PR 4
	// batched baseline recorded in BENCH_search.json): same trace scale,
	// space, budget, seed and backend latency.
	hcPackets    = 400
	hcBudget     = 512
	hcSeed       = 42
	hcLatency    = 5 * time.Millisecond
	hcMinSpeedup = 4.0
)

// colBaseline is the frozen pre-Replayer replay path (map-based
// profile.Run, easyport 3000 packets) in events/sec, per preset.
var colBaseline = map[string]float64{
	"kingsley": 6.58e6,
	"lea":      3.71e6,
	"firstfit": 4.37e6,
}

type columnarResult struct {
	Config       string  `json:"config"`
	EventsPerSec float64 `json:"events_per_sec"`
	BaselineEPS  float64 `json:"baseline_events_per_sec"`
	SpeedupX     float64 `json:"speedup_vs_baseline"`
}

type hillClimbRun struct {
	Regime        string  `json:"regime"` // "sim" or "backend"
	Incremental   bool    `json:"incremental"`
	WallSeconds   float64 `json:"wall_seconds"`
	Evaluations   int     `json:"evaluations"`
	EvalsPerSec   float64 `json:"evals_per_sec"`
	PartialEvals  int     `json:"partial_evals,omitempty"`
	ComposedEvals int     `json:"composed_evals,omitempty"`
	MemoHitRate   float64 `json:"memo_hit_rate,omitempty"`
	EventsSkipped uint64  `json:"events_skipped,omitempty"`
}

type output struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	ColumnarPackets    int              `json:"columnar_trace_packets"`
	ColumnarEvents     int              `json:"columnar_trace_events"`
	Columnar           []columnarResult `json:"columnar_replay"`
	ColumnarMinSpeedup float64          `json:"columnar_min_speedup"`

	HillClimbSpace     string         `json:"hillclimb_space"`
	HillClimbPackets   int            `json:"hillclimb_trace_packets"`
	HillClimbBudget    int            `json:"hillclimb_budget"`
	HillClimbSeed      uint64         `json:"hillclimb_seed"`
	HillClimbLatencyMS float64        `json:"hillclimb_backend_latency_ms"`
	HillClimb          []hillClimbRun `json:"hillclimb"`
	SimSpeedup         float64        `json:"sim_evals_speedup"`
	EffectiveSpeedup   float64        `json:"effective_evals_speedup"`
	BitIdentical       bool           `json:"bit_identical"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchincremental:", err)
		os.Exit(1)
	}
}

func run() error {
	out := output{
		GeneratedBy: "go run scripts/benchincremental.go",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if err := columnar(&out); err != nil {
		return err
	}
	if err := hillclimb(&out); err != nil {
		return err
	}

	f, err := os.Create("BENCH_incremental.json")
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
	fmt.Fprintln(os.Stderr, "wrote BENCH_incremental.json")

	if out.ColumnarMinSpeedup < colMinSpeedup {
		return fmt.Errorf("columnar replay speedup %.2fx below the %.1fx bar",
			out.ColumnarMinSpeedup, colMinSpeedup)
	}
	if !out.BitIdentical {
		return fmt.Errorf("incremental hill-climb diverged from the full run")
	}
	if out.EffectiveSpeedup < hcMinSpeedup {
		return fmt.Errorf("incremental effective evals/sec speedup %.2fx below the %.1fx bar",
			out.EffectiveSpeedup, hcMinSpeedup)
	}
	return nil
}

// columnar measures steady-state replay throughput of the slab loop —
// trace compiled once, one Replayer reused — for each baseline
// configuration, exactly the regime core.Runner workers run in.
func columnar(out *output) error {
	p := workload.DefaultEasyportParams()
	p.Packets = colPackets
	tr, err := p.Generate()
	if err != nil {
		return err
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		return err
	}
	out.ColumnarPackets = colPackets
	out.ColumnarEvents = ct.Len()
	h := memhier.EmbeddedSoC()

	out.ColumnarMinSpeedup = math.Inf(1)
	for _, cfg := range []alloc.Config{
		alloc.KingsleyConfig(memhier.LayerDRAM),
		alloc.LeaConfig(memhier.LayerDRAM),
		alloc.SimpleFirstFitConfig(memhier.LayerDRAM),
	} {
		rep := profile.NewReplayer()
		if _, err := rep.Run(ct, cfg, h, profile.Options{}); err != nil {
			return fmt.Errorf("%s: %w", cfg.Label, err)
		}
		runs := 0
		start := time.Now()
		for time.Since(start) < colMinWindow {
			if _, err := rep.Run(ct, cfg, h, profile.Options{}); err != nil {
				return fmt.Errorf("%s: %w", cfg.Label, err)
			}
			runs++
		}
		eps := float64(runs) * float64(ct.Len()) / time.Since(start).Seconds()
		speedup := eps / colBaseline[cfg.Label]
		out.Columnar = append(out.Columnar, columnarResult{
			Config:       cfg.Label,
			EventsPerSec: eps,
			BaselineEPS:  colBaseline[cfg.Label],
			SpeedupX:     speedup,
		})
		if speedup < out.ColumnarMinSpeedup {
			out.ColumnarMinSpeedup = speedup
		}
		fmt.Fprintf(os.Stderr, "columnar %-9s %.3g events/sec  (baseline %.3g, %.2fx)\n",
			cfg.Label, eps, colBaseline[cfg.Label], speedup)
	}
	return nil
}

// fingerprint captures the bit-identity contract for a hill-climb run:
// the exact evaluation walk and every headline metric, floats by bits.
type fingerprint struct {
	seq    []int
	acc    []uint64
	foot   []int64
	energy []uint64
	cycles []uint64
	best   int
	score  uint64
}

func climb(regime string, incremental bool, tr *trace.Trace, ct *trace.Compiled, space *core.Space) (fingerprint, hillClimbRun, error) {
	r := &core.Runner{
		Hierarchy:   memhier.EmbeddedSoC(),
		Trace:       tr,
		Compiled:    ct,
		Workers:     1, // serial, like BENCH_search's baseline row
		Incremental: incremental,
	}
	if regime == "backend" {
		r.EvalLatency = hcLatency
	}
	weights := []core.Weighted{
		{Objective: profile.ObjAccesses, Weight: 1},
		{Objective: profile.ObjFootprint, Weight: 1},
	}
	start := time.Now()
	sr, err := r.HillClimb(space, weights, hcBudget, hcSeed)
	if err != nil {
		return fingerprint{}, hillClimbRun{}, err
	}
	wall := time.Since(start).Seconds()

	fp := fingerprint{best: sr.Best.Index, score: math.Float64bits(sr.BestScore)}
	hr := hillClimbRun{
		Regime:      regime,
		Incremental: incremental,
		WallSeconds: wall,
		Evaluations: len(sr.Evaluated),
		EvalsPerSec: float64(len(sr.Evaluated)) / wall,
	}
	for _, res := range sr.Evaluated {
		fp.seq = append(fp.seq, res.Index)
		fp.acc = append(fp.acc, res.Metrics.Accesses)
		fp.foot = append(fp.foot, res.Metrics.FootprintBytes)
		fp.energy = append(fp.energy, math.Float64bits(res.Metrics.EnergyNJ))
		fp.cycles = append(fp.cycles, res.Metrics.Cycles)
		if res.Incremental {
			hr.PartialEvals++
			hr.EventsSkipped += res.EventsSkipped
		}
		if res.Composed {
			hr.ComposedEvals++
		}
	}
	if hr.Evaluations > 0 {
		hr.MemoHitRate = float64(hr.ComposedEvals) / float64(hr.Evaluations)
	}
	return fp, hr, nil
}

// hillclimb runs the same seeded search with the partial path off and on
// in both regimes (see the package comment). The gate rides the backend
// regime — the one the PR 4 batching layer and BENCH_search.json define —
// while the sim regime is recorded ungated.
func hillclimb(out *output) error {
	p := workload.DefaultEasyportParams()
	p.Packets = hcPackets
	tr, err := p.Generate()
	if err != nil {
		return err
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		return err
	}
	space := core.FullEasyportSpace()
	out.HillClimbSpace = space.Name
	out.HillClimbPackets = hcPackets
	out.HillClimbBudget = hcBudget
	out.HillClimbSeed = hcSeed
	out.HillClimbLatencyMS = float64(hcLatency) / float64(time.Millisecond)

	out.BitIdentical = true
	var ref fingerprint
	speedups := map[string]float64{}
	for _, regime := range []string{"sim", "backend"} {
		var fullRate float64
		for _, incremental := range []bool{false, true} {
			fp, hr, err := climb(regime, incremental, tr, ct, space)
			if err != nil {
				return fmt.Errorf("%s hill-climb (incremental=%v): %w", regime, incremental, err)
			}
			if ref.seq == nil {
				ref = fp
			} else if !sameFingerprint(ref, fp) {
				out.BitIdentical = false
			}
			if incremental {
				speedups[regime] = hr.EvalsPerSec / fullRate
			} else {
				fullRate = hr.EvalsPerSec
			}
			out.HillClimb = append(out.HillClimb, hr)
			mode := "full       "
			if incremental {
				mode = "incremental"
			}
			fmt.Fprintf(os.Stderr,
				"hillclimb %-7s %s %6.2fs  %4d evals  %7.1f evals/sec  (%d partial, %d composed [%.0f%% memo], %.3g events skipped)\n",
				regime, mode, hr.WallSeconds, hr.Evaluations, hr.EvalsPerSec,
				hr.PartialEvals-hr.ComposedEvals, hr.ComposedEvals, 100*hr.MemoHitRate,
				float64(hr.EventsSkipped))
		}
	}
	out.SimSpeedup = speedups["sim"]
	out.EffectiveSpeedup = speedups["backend"]
	fmt.Fprintf(os.Stderr, "sim speedup %.2fx  effective (backend) speedup %.2fx  bit-identical %v\n",
		out.SimSpeedup, out.EffectiveSpeedup, out.BitIdentical)
	return nil
}

func sameFingerprint(a, b fingerprint) bool {
	if len(a.seq) != len(b.seq) || a.best != b.best || a.score != b.score {
		return false
	}
	for i := range a.seq {
		if a.seq[i] != b.seq[i] || a.acc[i] != b.acc[i] || a.foot[i] != b.foot[i] ||
			a.energy[i] != b.energy[i] || a.cycles[i] != b.cycles[i] {
			return false
		}
	}
	return true
}
