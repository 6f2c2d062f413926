// Package core implements the paper's primary contribution: the automated
// exploration of parameterized dynamic-memory allocator configurations.
//
// A Space is literally the paper's input — "the list of arrays with the
// parameter values to be explored": a base configuration plus one Axis per
// parameter, each carrying the array of values for that parameter. The
// Runner enumerates the cartesian product (exhaustively or by sampling),
// profiles every configuration against the case-study trace on the target
// hierarchy, and the analysis helpers reduce the sweep to Pareto-optimal
// sets and range statistics.
package core

import (
	"fmt"
	"strings"

	"dmexplore/internal/alloc"
)

// Option is one value of a parameter axis: a label plus the mutation it
// applies to the configuration under construction.
type Option struct {
	Label string
	Apply func(*alloc.Config)
}

// Axis is one explored parameter: a name and its array of values.
type Axis struct {
	Name    string
	Options []Option
}

// Space is the full exploration input.
type Space struct {
	Name string
	Base alloc.Config
	Axes []Axis
}

// Validate reports structural problems (empty axes, duplicate labels).
func (s *Space) Validate() error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("core: space %q has no axes", s.Name)
	}
	for _, ax := range s.Axes {
		if len(ax.Options) == 0 {
			return fmt.Errorf("core: axis %q has no options", ax.Name)
		}
		seen := make(map[string]bool, len(ax.Options))
		for _, opt := range ax.Options {
			if opt.Label == "" || opt.Apply == nil {
				return fmt.Errorf("core: axis %q has an incomplete option", ax.Name)
			}
			if seen[opt.Label] {
				return fmt.Errorf("core: axis %q has duplicate option %q", ax.Name, opt.Label)
			}
			seen[opt.Label] = true
		}
	}
	return nil
}

// Size returns the cardinality of the cartesian product.
func (s *Space) Size() int {
	n := 1
	for _, ax := range s.Axes {
		n *= len(ax.Options)
	}
	return n
}

// Config materializes configuration idx (mixed-radix decode over the
// axes) and returns it with the per-axis option labels. The options
// apply in axis order, so an option may act on what an earlier axis
// built (reclaim marks the pools the pools axis appended).
func (s *Space) Config(idx int) (alloc.Config, []string, error) {
	if idx < 0 || idx >= s.Size() {
		return alloc.Config{}, nil, fmt.Errorf("core: index %d out of range [0,%d)", idx, s.Size())
	}
	cfg := cloneConfig(s.Base)
	labels := make([]string, len(s.Axes))
	stride := s.Size()
	for i, ax := range s.Axes {
		stride /= len(ax.Options)
		opt := ax.Options[idx/stride%len(ax.Options)]
		labels[i] = opt.Label
		opt.Apply(&cfg)
	}
	if cfg.Label == "" {
		cfg.Label = fmt.Sprintf("%s#%d[%s]", s.Name, idx, strings.Join(labels, ","))
	}
	return cfg, labels, nil
}

// cloneConfig deep-copies a configuration so Apply mutations cannot leak
// into the base through the Fixed slice.
func cloneConfig(c alloc.Config) alloc.Config {
	out := c
	out.Fixed = make([]alloc.FixedConfig, len(c.Fixed))
	copy(out.Fixed, c.Fixed)
	return out
}

// AxisLabels returns the axis names in order (CSV headers etc.).
func (s *Space) AxisLabels() []string {
	names := make([]string, len(s.Axes))
	for i, ax := range s.Axes {
		names[i] = ax.Name
	}
	return names
}
