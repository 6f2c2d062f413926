//go:build ignore

// benchobserve gates the observability layer's two contracts and
// records the evidence in BENCH_observe.json at the repository root:
//
//  1. Zero perturbation: the same seeded NSGA-II search (population
//     32), run with the flight recorder attached and without, must produce
//     the bit-identical evaluation sequence, metrics and provenance —
//     at one worker and at four.
//  2. Bounded overhead: recording spans for every pipeline stage must
//     cost at most maxOverheadPct of wall time. Timing compares
//     best-of-rounds interleaved minimums, the standard defence against
//     scheduler noise on shared CI runners.
//
// It also emits the CI artifacts for a human to look at:
//
//	results/observe/run.trace.json — Chrome trace-event JSON of the
//	    instrumented run (load at https://ui.perfetto.dev)
//	results/observe/metrics.txt    — the /metrics Prometheus exposition
//	    scraped over HTTP from the live telemetry server
//
// Usage, from the repository root:
//
//	go run scripts/benchobserve.go
//
// Exits non-zero on any divergence or an overhead above the budget.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

const (
	population     = 32
	budget         = 384
	seed           = 42
	rounds         = 5
	maxOverheadPct = 2.0
	artifactDir    = "results/observe"
)

type output struct {
	GeneratedBy    string               `json:"generated_by"`
	GoVersion      string               `json:"go_version"`
	GOMAXPROCS     int                  `json:"gomaxprocs"`
	Space          string               `json:"space"`
	SpaceSize      int                  `json:"space_size"`
	Population     int                  `json:"population"`
	Budget         int                  `json:"budget"`
	Seed           uint64               `json:"seed"`
	Rounds         int                  `json:"rounds"`
	PlainSeconds   float64              `json:"plain_seconds_min"`
	TracedSeconds  float64              `json:"traced_seconds_min"`
	OverheadPct    float64              `json:"span_overhead_pct"`
	MaxOverheadPct float64              `json:"max_overhead_pct"`
	SpansRecorded  uint64               `json:"spans_recorded"`
	Identical      bool                 `json:"traced_matches_plain"`
	Stages         []span.StageSnapshot `json:"stages"`
}

// evalRecord is one step of the determinism fingerprint: evaluation
// order, exact metrics, and full provenance.
type evalRecord struct {
	Index    int
	Accesses uint64
	Foot     int64
	Origin   telemetry.Origin
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchobserve:", err)
		os.Exit(1)
	}
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
	opts := core.IslandOptions{EvolveOptions: core.EvolveOptions{Population: population, Budget: budget, Seed: seed}}

	// sweep runs the seeded search once and returns its wall time,
	// fingerprint, and (when traced) the recorder and collector.
	sweep := func(workers int, traced bool) (time.Duration, []evalRecord, *span.Recorder, *telemetry.Collector, error) {
		col := telemetry.NewCollector(workers)
		var rec *span.Recorder
		r := &core.Runner{
			Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Compiled: ct,
			Workers: workers, Telemetry: col,
		}
		if traced {
			rec = span.NewRecorder(workers, span.DefaultRingCapacity)
			r.Spans = rec
		}
		start := time.Now()
		evaluated, err := r.EvolveIsland(space, objs, opts)
		if err != nil {
			return 0, nil, nil, nil, err
		}
		wall := time.Since(start)
		fp := make([]evalRecord, 0, len(evaluated))
		for _, res := range evaluated {
			er := evalRecord{Index: res.Index, Accesses: res.Metrics.Accesses, Foot: res.Metrics.FootprintBytes}
			if res.Origin != nil {
				er.Origin = *res.Origin
			}
			fp = append(fp, er)
		}
		return wall, fp, rec, col, nil
	}

	// Contract 1: identity, traced vs plain, serial and parallel.
	_, plain1, _, _, err := sweep(1, false)
	if err != nil {
		return err
	}
	for _, workers := range []int{1, 4} {
		_, traced, _, _, err := sweep(workers, true)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(plain1, traced) {
			return fmt.Errorf("workers=%d: traced run diverges from the plain serial run", workers)
		}
	}
	fmt.Printf("identity: traced == plain at 1 and 4 workers (%d evaluations)\n", len(plain1))

	// Contract 2: overhead, interleaved best-of-%d minimums at 4 workers.
	minPlain, minTraced := time.Duration(1<<62), time.Duration(1<<62)
	var lastRec *span.Recorder
	var lastCol *telemetry.Collector
	for i := 0; i < rounds; i++ {
		wp, _, _, _, err := sweep(4, false)
		if err != nil {
			return err
		}
		if wp < minPlain {
			minPlain = wp
		}
		wt, _, rec, col, err := sweep(4, true)
		if err != nil {
			return err
		}
		if wt < minTraced {
			minTraced = wt
		}
		lastRec, lastCol = rec, col
	}
	overhead := 100 * (minTraced.Seconds()/minPlain.Seconds() - 1)
	fmt.Printf("overhead: plain %.4fs, traced %.4fs → %+.2f%% (budget %.1f%%)\n",
		minPlain.Seconds(), minTraced.Seconds(), overhead, maxOverheadPct)

	var spans uint64
	for i := 0; i < lastRec.Workers(); i++ {
		spans += lastRec.Ring(i).Len()
	}
	spans += lastRec.Coord().Len()
	stages := make([]span.StageSnapshot, 0)
	for _, st := range lastRec.Snapshot() {
		if st.Count > 0 {
			stages = append(stages, st)
		}
	}

	// Artifacts: the trace of the final instrumented run, and the
	// /metrics body scraped from the live HTTP server.
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(artifactDir, "run.trace.json")
	if err := lastRec.WriteTraceFile(tracePath); err != nil {
		return err
	}
	srv, err := telemetry.Serve("127.0.0.1:0", lastCol, lastRec)
	if err != nil {
		return err
	}
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		srv.Close()
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	metricsPath := filepath.Join(artifactDir, "metrics.txt")
	if err := os.WriteFile(metricsPath, body, 0o644); err != nil {
		return err
	}
	fmt.Printf("artifacts: %s (%d events ring-recorded), %s (%d bytes)\n",
		tracePath, spans, metricsPath, len(body))

	out := output{
		GeneratedBy:    "go run scripts/benchobserve.go",
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Space:          space.Name,
		SpaceSize:      space.Size(),
		Population:     population,
		Budget:         budget,
		Seed:           seed,
		Rounds:         rounds,
		PlainSeconds:   minPlain.Seconds(),
		TracedSeconds:  minTraced.Seconds(),
		OverheadPct:    overhead,
		MaxOverheadPct: maxOverheadPct,
		SpansRecorded:  spans,
		Identical:      true,
		Stages:         stages,
	}
	f, err := os.Create("BENCH_observe.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(out)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	if overhead > maxOverheadPct {
		return fmt.Errorf("span overhead %.2f%% exceeds the %.1f%% budget", overhead, maxOverheadPct)
	}
	fmt.Println("benchobserve: OK")
	return nil
}
