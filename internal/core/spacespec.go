package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dmexplore/internal/alloc"
)

// SpaceSpec is the JSON file format for exploration inputs — the paper's
// "list of arrays with the parameter values to be explored" as a
// declarative document. Each axis carries its value array; each value is
// a label plus a patch applied to the configuration under construction:
//
//	{
//	  "name": "my-exploration",
//	  "base": {"general": {"layer": "main-dram", "classes": "single", ...}},
//	  "axes": [
//	    {"name": "fit", "options": [
//	      {"label": "first", "general": {"fit": "first"}},
//	      {"label": "best",  "general": {"fit": "best"}}]},
//	    {"name": "pools", "options": [
//	      {"label": "none"},
//	      {"label": "d74", "fixed": [{"slot_bytes": 74, "match_lo": 74, ...}]}]}
//	  ]
//	}
//
// "general" patches merge field-wise into the general pool configuration;
// "fixed" entries append dedicated pools in routing order.
type SpaceSpec struct {
	Name string       `json:"name"`
	Base alloc.Config `json:"base"`
	Axes []AxisSpec   `json:"axes"`
}

// AxisSpec is one parameter with its value array.
type AxisSpec struct {
	Name    string       `json:"name"`
	Options []OptionSpec `json:"options"`
}

// OptionSpec is one parameter value.
type OptionSpec struct {
	Label   string              `json:"label"`
	General json.RawMessage     `json:"general,omitempty"`
	Fixed   []alloc.FixedConfig `json:"fixed,omitempty"`
}

// LoadSpaceSpec reads and compiles a JSON space specification.
func LoadSpaceSpec(r io.Reader) (*Space, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseSpaceSpec(data)
}

// ParseSpaceSpec compiles a JSON space specification into a Space. Every
// option's patch is validated eagerly (test-applied against the base) so
// malformed specs fail at load time, not mid-sweep.
func ParseSpaceSpec(data []byte) (*Space, error) {
	var spec SpaceSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("core: parsing space spec: %w", err)
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("core: space spec needs a name")
	}
	space := &Space{Name: spec.Name, Base: spec.Base}
	for _, ax := range spec.Axes {
		axis := Axis{Name: ax.Name}
		for _, opt := range ax.Options {
			opt := opt // capture
			if opt.General != nil {
				// Eager syntax/field check against a scratch config.
				scratch := spec.Base
				if err := patchGeneral(&scratch, opt.General); err != nil {
					return nil, fmt.Errorf("core: axis %q option %q: %w", ax.Name, opt.Label, err)
				}
			}
			axis.Options = append(axis.Options, Option{
				Label: opt.Label,
				Apply: func(c *alloc.Config) {
					if opt.General != nil {
						// Validated at parse time; the merge cannot fail now.
						_ = patchGeneral(c, opt.General)
					}
					if len(opt.Fixed) > 0 {
						c.Fixed = append(c.Fixed, opt.Fixed...)
					}
				},
			})
		}
		space.Axes = append(space.Axes, axis)
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	return space, nil
}

// patchGeneral merges a JSON patch into the general pool configuration:
// only the fields present in the patch change.
func patchGeneral(c *alloc.Config, patch json.RawMessage) error {
	dec := json.NewDecoder(bytes.NewReader(patch))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c.General); err != nil {
		return fmt.Errorf("bad general patch: %w", err)
	}
	return nil
}
