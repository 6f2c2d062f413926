// Package profile runs an allocation trace against one allocator
// configuration on a memory hierarchy and collects the paper's four
// metrics — memory accesses, memory footprint, energy and execution time —
// broken down per hierarchy layer. It also implements the raw profile-log
// emitter and the fast streaming parser (the paper stresses parsing
// gigabyte logs in under 20 seconds).
package profile

import (
	"fmt"
	"io"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/trace"
)

// LayerMetrics are the per-layer profiling results.
type LayerMetrics struct {
	Name      string
	Reads     uint64
	Writes    uint64
	PeakBytes int64
}

// Accesses returns reads+writes.
func (m LayerMetrics) Accesses() uint64 { return m.Reads + m.Writes }

// Metrics are the complete profiling results of one configuration run.
type Metrics struct {
	ConfigLabel string
	Workload    string

	PerLayer []LayerMetrics

	Accesses       uint64  // total word accesses, all layers
	FootprintBytes int64   // sum of per-layer peak reserved bytes
	EnergyNJ       float64 // dynamic + leakage energy
	Cycles         uint64  // execution time in CPU cycles

	Mallocs  uint64
	Frees    uint64
	Failures uint64 // allocations the configuration could not satisfy

	// PeakRequestedBytes is the workload's own peak live demand — the
	// lower bound any allocator's footprint is compared against.
	PeakRequestedBytes int64

	// Series holds footprint-over-time samples when Options.SampleEvery
	// is set: one sample per SampleEvery trace events, plus a final one.
	Series []FootprintSample
}

// FootprintSample is one point of the footprint-over-time series.
type FootprintSample struct {
	Event          int   // trace event index
	ReservedBytes  int64 // allocator footprint at that point
	RequestedBytes int64 // application live demand at that point
}

// Feasible reports whether the configuration served every allocation.
func (m *Metrics) Feasible() bool { return m.Failures == 0 }

// FootprintOverhead returns footprint / peak requested bytes (>= 1 for
// feasible runs; 0 when the workload made no requests).
func (m *Metrics) FootprintOverhead() float64 {
	if m.PeakRequestedBytes == 0 {
		return 0
	}
	return float64(m.FootprintBytes) / float64(m.PeakRequestedBytes)
}

// Objective names used across the reporter and Pareto tooling.
const (
	ObjAccesses  = "accesses"
	ObjFootprint = "footprint"
	ObjEnergy    = "energy"
	ObjCycles    = "cycles"
)

// Objective returns the named objective value (smaller is better).
func (m *Metrics) Objective(name string) (float64, error) {
	switch name {
	case ObjAccesses:
		return float64(m.Accesses), nil
	case ObjFootprint:
		return float64(m.FootprintBytes), nil
	case ObjEnergy:
		return m.EnergyNJ, nil
	case ObjCycles:
		return float64(m.Cycles), nil
	default:
		return 0, fmt.Errorf("profile: unknown objective %q", name)
	}
}

// Options tune a profiling run.
type Options struct {
	// LogWriter, when non-nil, receives the raw access log (every charged
	// word access) as a block-framed log: CRC32C blocks with a footer
	// index, so ParseLogParallel can ingest the file on every core.
	LogWriter io.Writer

	// Caches attaches a simulated cache in front of the named layers.
	Caches map[string]CacheSpec

	// SampleEvery enables the footprint-over-time series: one sample per
	// this many trace events (0 disables sampling).
	SampleEvery int

	// RowBuffers enables the SDRAM open-page model on the named layers
	// (ignored where a cache is also attached).
	RowBuffers map[string]RowBufferSpec
}

// RowBufferSpec describes an open-page model to attach to a layer.
type RowBufferSpec struct {
	RowWords uint64
	Banks    int
}

// CacheSpec describes a cache to attach to a layer.
type CacheSpec struct {
	SizeWords uint64
	LineWords uint64
	Ways      int
}

// Run profiles cfg against tr on hierarchy h. It compiles the trace and
// replays it once; callers profiling many configurations against the same
// trace should trace.Compile once and reuse a Replayer instead.
func Run(tr *trace.Trace, cfg alloc.Config, h *memhier.Hierarchy, opts Options) (*Metrics, error) {
	ct, err := trace.Compile(tr)
	if err != nil {
		return nil, err
	}
	return NewReplayer().Run(ct, cfg, h, opts)
}
