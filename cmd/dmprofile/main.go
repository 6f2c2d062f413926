// Command dmprofile profiles a single allocator configuration against a
// workload on a memory hierarchy and prints the per-layer metric
// breakdown — the inner step of the exploration, exposed for debugging
// and for profiling hand-written configurations from JSON files.
//
// Examples:
//
//	dmprofile -workload easyport -preset lea
//	dmprofile -workload vtc -config custom.json -log run.log
//	dmprofile -workload easyport -preset kingsley -cache 32768:8:4
//	dmprofile -parselog run.log -workers 8                # ingest a raw log
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/report"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dmprofile:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dmprofile", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "easyport", "workload: "+strings.Join(workload.Names(), "|"))
		scale        = fs.Int("scale", 100, "workload scale in percent")
		seed         = fs.Uint64("seed", 1, "workload RNG seed")
		preset       = fs.String("preset", "", "allocator preset: kingsley|lea|firstfit")
		configPath   = fs.String("config", "", "allocator configuration JSON file")
		hierName     = fs.String("hierarchy", "soc", "memory hierarchy: soc|soc3|flat")
		logPath      = fs.String("log", "", "write the raw access log to this file")
		parseLogPath = fs.String("parselog", "", "parse a raw access log and print its summary instead of profiling")
		workers      = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for -parselog ingestion")
		cacheSpec    = fs.String("cache", "", "attach a cache to DRAM: sizeWords:lineWords:ways")
		seriesPath   = fs.String("series", "", "write a footprint-over-time .dat to this file")
		emitJSON     = fs.Bool("json", false, "emit metrics as JSON")
		metricsAddr  = fs.String("metrics-addr", "", "serve live telemetry (expvar) and pprof at this address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *parseLogPath != "" {
		return parseLog(out, *parseLogPath, *workers)
	}

	hier, err := memhier.Preset(*hierName)
	if err != nil {
		return err
	}
	gen, err := workload.New(*workloadName, *seed, *scale)
	if err != nil {
		return err
	}
	tr, err := gen.Generate()
	if err != nil {
		return err
	}

	cfg, err := pickConfig(*preset, *configPath)
	if err != nil {
		return err
	}

	opts := profile.Options{}
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		opts.LogWriter = f
	}
	if *seriesPath != "" {
		opts.SampleEvery = 200
	}
	if *cacheSpec != "" {
		var size, line uint64
		var ways int
		if _, err := fmt.Sscanf(*cacheSpec, "%d:%d:%d", &size, &line, &ways); err != nil {
			return fmt.Errorf("bad cache spec %q: %v", *cacheSpec, err)
		}
		opts.Caches = map[string]profile.CacheSpec{
			memhier.LayerDRAM: {SizeWords: size, LineWords: line, Ways: ways},
		}
	}

	col := telemetry.NewCollector(1)
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, col, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "metrics     http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", srv.Addr)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		return err
	}
	rep := profile.NewReplayer()
	rep.Shard = col.Shard(0)
	m, err := rep.Run(ct, cfg, hier, opts)
	if err != nil {
		return err
	}
	snap := col.Snapshot()
	if *seriesPath != "" {
		f, err := os.Create(*seriesPath)
		if err != nil {
			return err
		}
		err = report.WriteSeriesDat(f, m.Series)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		pf, err := os.Create(*seriesPath + ".plt")
		if err != nil {
			return err
		}
		err = report.WriteSeriesScript(pf, *seriesPath, cfg.Label+" footprint over time")
		if cerr := pf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	if *emitJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}

	fmt.Fprintf(out, "workload    %s (%d events)\n", tr.Name, tr.Len())
	fmt.Fprintf(out, "config      %s\n", cfg.Label)
	fmt.Fprintf(out, "hierarchy   %s\n\n", hier)
	fmt.Fprintf(out, "%-16s %12s %12s %12s\n", "layer", "reads", "writes", "peak bytes")
	for _, lm := range m.PerLayer {
		fmt.Fprintf(out, "%-16s %12d %12d %12d\n", lm.Name, lm.Reads, lm.Writes, lm.PeakBytes)
	}
	eventsPerSec := 0.0
	if snap.SimSecTotal > 0 {
		eventsPerSec = float64(snap.Events) / snap.SimSecTotal
	}
	fmt.Fprintf(out, "\nreplay      %d events in %.1fms (%.3g events/s)\n",
		snap.Events, snap.SimSecTotal*1e3, eventsPerSec)
	fmt.Fprintf(out, "accesses    %d\n", m.Accesses)
	fmt.Fprintf(out, "footprint   %d bytes (%.2fx peak demand of %d)\n",
		m.FootprintBytes, m.FootprintOverhead(), m.PeakRequestedBytes)
	fmt.Fprintf(out, "energy      %.1f uJ\n", m.EnergyNJ/1000)
	fmt.Fprintf(out, "time        %d cycles\n", m.Cycles)
	fmt.Fprintf(out, "ops         %d mallocs, %d frees, %d failures\n", m.Mallocs, m.Frees, m.Failures)
	if !m.Feasible() {
		fmt.Fprintln(out, "NOTE: configuration is infeasible for this workload (allocation failures)")
	}
	return nil
}

// parseLog ingests a raw access log through its footer index on workers
// goroutines and prints the per-layer summary plus ingest rate.
func parseLog(out io.Writer, path string, workers int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	ingest := telemetry.NewIngest()
	s, err := profile.ParseLogParallel(f, fi.Size(), workers, ingest)
	if err != nil {
		return fmt.Errorf("log %s: %w", path, err)
	}
	fmt.Fprintf(out, "log         %s (%d bytes, %d workers)\n", path, fi.Size(), workers)
	fmt.Fprintf(out, "records     %d (%d words)\n", s.Records, s.TotalWords())
	fmt.Fprintf(out, "ingest      %s\n", ingest.Snapshot())
	fmt.Fprintf(out, "\n%-8s %16s %16s\n", "layer", "read words", "written words")
	for layer := range s.Reads {
		if s.Reads[layer] == 0 && s.Writes[layer] == 0 {
			continue
		}
		fmt.Fprintf(out, "%-8d %16d %16d\n", layer, s.Reads[layer], s.Writes[layer])
	}
	return nil
}

func pickConfig(preset, path string) (alloc.Config, error) {
	switch {
	case preset != "" && path != "":
		return alloc.Config{}, fmt.Errorf("-preset and -config are mutually exclusive")
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return alloc.Config{}, err
		}
		var cfg alloc.Config
		if err := json.Unmarshal(data, &cfg); err != nil {
			return alloc.Config{}, fmt.Errorf("parsing %s: %w", path, err)
		}
		return cfg, nil
	case preset == "kingsley":
		return alloc.KingsleyConfig(memhier.LayerDRAM), nil
	case preset == "lea":
		return alloc.LeaConfig(memhier.LayerDRAM), nil
	case preset == "firstfit":
		return alloc.SimpleFirstFitConfig(memhier.LayerDRAM), nil
	case preset == "":
		return alloc.Config{}, fmt.Errorf("need -preset or -config")
	default:
		return alloc.Config{}, fmt.Errorf("unknown preset %q", preset)
	}
}
