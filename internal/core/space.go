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
	"strconv"
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
	cfg := alloc.Config{Fixed: make([]alloc.FixedConfig, 0, len(s.Base.Fixed))}
	labels := make([]string, len(s.Axes))
	if err := s.configInto(idx, &cfg, labels); err != nil {
		return alloc.Config{}, nil, err
	}
	return cfg, labels, nil
}

// configInto writes configuration idx into *cfg: the base, then each
// axis's option. It reuses cfg.Fixed's backing array, which must not be
// the base's, so a caller that keeps one scratch config materializes
// configuration after configuration without allocating for them; only a
// generated label costs one allocation. labels, when not nil, has one
// slot per axis and receives the option labels.
func (s *Space) configInto(idx int, cfg *alloc.Config, labels []string) error {
	size := s.Size()
	if idx < 0 || idx >= size {
		return fmt.Errorf("core: index %d out of range [0,%d)", idx, size)
	}
	fixed := cfg.Fixed[:0]
	*cfg = s.Base
	cfg.Fixed = append(fixed, s.Base.Fixed...)
	n := 0 // the option labels' length, one separator each
	stride := size
	for i, ax := range s.Axes {
		stride /= len(ax.Options)
		opt := ax.Options[idx/stride%len(ax.Options)]
		if labels != nil {
			labels[i] = opt.Label
		}
		n += len(opt.Label) + 1
		opt.Apply(cfg)
	}
	if cfg.Label == "" {
		cfg.Label = s.label(idx, size, n)
	}
	return nil
}

// label builds configuration idx's "name#idx[label,label,...]" in one
// allocation; n is the option labels' length plus one per axis.
func (s *Space) label(idx, size, n int) string {
	var digits [20]byte
	num := strconv.AppendInt(digits[:0], int64(idx), 10)
	var b strings.Builder
	b.Grow(len(s.Name) + 1 + len(num) + 1 + n)
	b.WriteString(s.Name)
	b.WriteByte('#')
	b.Write(num)
	b.WriteByte('[')
	for i, ax := range s.Axes {
		size /= len(ax.Options)
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ax.Options[idx/size%len(ax.Options)].Label)
	}
	b.WriteByte(']')
	return b.String()
}

// AxisLabels returns the axis names in order (CSV headers etc.).
func (s *Space) AxisLabels() []string {
	names := make([]string, len(s.Axes))
	for i, ax := range s.Axes {
		names[i] = ax.Name
	}
	return names
}
