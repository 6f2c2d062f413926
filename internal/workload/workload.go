// Package workload generates the dynamic-application allocation traces the
// exploration tool profiles configurations against.
//
// The paper's two case studies are proprietary applications (the Infineon
// Easyport wireless network application and the MPEG-4 Visual Texture
// deCoder). dmexplore substitutes synthetic generators that reproduce the
// allocation behaviour those applications are reported to exhibit — the
// size spectrum (dominant 74-byte control blocks and 1500-byte frames for
// Easyport; a wide, phase-structured spectrum for VTC), burstiness and
// lifetime structure — which is what drives every metric the paper
// explores. See DESIGN.md §2 for the substitution rationale.
package workload

import (
	"fmt"
	"sort"

	"dmexplore/internal/trace"
)

// Generator produces a deterministic trace from its parameters.
type Generator interface {
	// Name identifies the workload (trace names embed it).
	Name() string
	// Generate builds the trace. Implementations must be deterministic:
	// equal parameters yield identical traces.
	Generate() (*trace.Trace, error)
}

// Registry maps workload names to default-parameter constructors, used by
// the CLI tools.
var registry = map[string]func(seed uint64, scale int) Generator{
	"easyport": func(seed uint64, scale int) Generator {
		p := DefaultEasyportParams()
		p.Seed = seed
		p.Packets = p.Packets * scale / 100
		return p
	},
	"vtc": func(seed uint64, scale int) Generator {
		p := DefaultVTCParams()
		p.Seed = seed
		p.Tiles = max(1, p.Tiles*scale/100)
		return p
	},
	"synthetic": func(seed uint64, scale int) Generator {
		p := DefaultSyntheticParams()
		p.Seed = seed
		p.Ops = p.Ops * scale / 100
		return p
	},
}

// Names returns the registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New returns the named workload with default parameters at the given
// scale (percent of the default trace length) and seed.
func New(name string, seed uint64, scale int) (Generator, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale must be positive, got %d", scale)
	}
	return ctor(seed, scale), nil
}
