//go:build ignore

// benchincremental records the raw throughput contract of the columnar
// replay engine in BENCH_incremental.json at the repository root: the
// slab-based decode/replay loop against the frozen pre-Replayer baseline
// (the map-based profile.Run path, measured at the commit that introduced
// the compiled engine). Gate: >= 1.5x events/sec on every baseline
// configuration.
//
// Full-vs-incremental bit identity is covered by the
// TestIncrementalEquivalence* tests in internal/core.
//
// Usage, from the repository root:
//
//	go run scripts/benchincremental.go
//
// Exits non-zero if the gate fails.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

const (
	colPackets    = 3000
	colMinSpeedup = 1.5
	colMinWindow  = time.Second
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

type output struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	ColumnarPackets    int              `json:"columnar_trace_packets"`
	ColumnarEvents     int              `json:"columnar_trace_events"`
	Columnar           []columnarResult `json:"columnar_replay"`
	ColumnarMinSpeedup float64          `json:"columnar_min_speedup"`
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
