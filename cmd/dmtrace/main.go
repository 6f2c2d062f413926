// Command dmtrace generates, inspects and converts allocation traces.
//
// Examples:
//
//	dmtrace -workload easyport -o easyport.dmt            # binary trace (v2)
//	dmtrace -workload vtc -format text -o vtc.trace       # text trace
//	dmtrace -in easyport.dmt -stats                       # analyze a trace
//	dmtrace -in big.dmt -workers 8 -o big.trace -format text   # convert
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"dmexplore/internal/telemetry"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dmtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dmtrace", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "generate: workload name ("+strings.Join(workload.Names(), "|")+")")
		scale        = fs.Int("scale", 100, "generate: workload scale in percent")
		seed         = fs.Uint64("seed", 1, "generate: workload RNG seed")
		inPath       = fs.String("in", "", "inspect: read a trace file instead of generating")
		outPath      = fs.String("o", "", "write the trace to this file")
		format       = fs.String("format", "binary", "output format: binary|v2|text (binary = v2, block-framed)")
		workers      = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for reading binary traces")
		showStats    = fs.Bool("stats", false, "print trace statistics")
		validate     = fs.Bool("validate", true, "validate the trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *trace.Trace
	switch {
	case *inPath != "":
		ingest := telemetry.NewIngest()
		var err error
		tr, err = trace.ReadFile(*inPath, *workers, ingest)
		if err != nil {
			return fmt.Errorf("trace %s: %w", *inPath, err)
		}
		if snap := ingest.Snapshot(); snap.Blocks > 0 {
			fmt.Fprintf(out, "ingest %s\n", snap)
		}
	case *workloadName != "":
		gen, err := workload.New(*workloadName, *seed, *scale)
		if err != nil {
			return err
		}
		tr, err = gen.Generate()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -workload to generate or -in to read a trace")
	}

	if *validate {
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("invalid trace: %w", err)
		}
	}

	fmt.Fprintf(out, "trace %s: %d events\n", tr.Name, tr.Len())
	if *showStats {
		printStats(out, tr)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		switch *format {
		case "binary", "v2":
			err = trace.WriteBinaryV2(f, tr)
		case "text":
			err = trace.WriteText(f, tr)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%s)\n", *outPath, *format)
	}
	return nil
}

func printStats(out io.Writer, tr *trace.Trace) {
	p := trace.Analyze(tr)
	fmt.Fprintf(out, "  allocs            %d\n", p.Allocs)
	fmt.Fprintf(out, "  frees             %d\n", p.Frees)
	fmt.Fprintf(out, "  access events     %d (%d words)\n", p.Accesses, p.AccessWords)
	fmt.Fprintf(out, "  cpu cycles        %d\n", p.TickCycles)
	fmt.Fprintf(out, "  peak live         %d bytes / %d blocks\n", p.PeakLiveBytes, p.PeakLiveBlocks)
	fmt.Fprintf(out, "  final live        %d bytes\n", p.FinalLiveBytes)
	fmt.Fprintf(out, "  size spectrum     %s\n", p.Sizes)
	fmt.Fprintf(out, "  dominant sizes    ")
	for i, vc := range p.DominantSizes(5) {
		if i > 0 {
			fmt.Fprint(out, ", ")
		}
		fmt.Fprintf(out, "%dB x%d", vc.Value, vc.Count)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  lifetime p50/p90  %d / %d events\n",
		p.Lifetimes.Percentile(0.5), p.Lifetimes.Percentile(0.9))
}
