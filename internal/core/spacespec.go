package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

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
// option's patch is decoded here, once, so malformed specs fail at load
// time, not mid-sweep, and materializing a configuration decodes nothing.
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
			patch, err := parseGeneralPatch(opt.General)
			if err != nil {
				return nil, fmt.Errorf("core: axis %q option %q: %w", ax.Name, opt.Label, err)
			}
			axis.Options = append(axis.Options, Option{
				Label: opt.Label,
				Apply: func(c *alloc.Config) {
					patch.apply(&c.General)
					c.Fixed = append(c.Fixed, opt.Fixed...)
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

// generalPatch is a general-pool patch decoded once: val holds the
// value of every field the patch names, fields their indices in
// alloc.GeneralConfig. Absent and null keys name no field.
type generalPatch struct {
	val    reflect.Value // an addressable alloc.GeneralConfig
	fields []int
}

// parseGeneralPatch decodes patch onto two GeneralConfigs that differ in
// every field. The decoder sets a field in both or in neither, so the
// fields that decode equal are the ones the patch names, whatever the
// keys' case, duplicates or nulls. A nil patch is a nil *generalPatch.
func parseGeneralPatch(patch json.RawMessage) (*generalPatch, error) {
	if patch == nil {
		return nil, nil
	}
	var a, b alloc.GeneralConfig
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range bv.NumField() {
		switch f := bv.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("\x00")
		case reflect.Bool:
			f.SetBool(true)
		default: // the other fields are integers; SetInt panics on any other kind
			f.SetInt(1)
		}
	}
	for _, v := range []*alloc.GeneralConfig{&a, &b} {
		dec := json.NewDecoder(bytes.NewReader(patch))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return nil, fmt.Errorf("bad general patch: %w", err)
		}
	}
	p := &generalPatch{val: av}
	for i := range av.NumField() {
		if av.Field(i).Equal(bv.Field(i)) {
			p.fields = append(p.fields, i)
		}
	}
	return p, nil
}

// apply sets the fields p names in g. A nil patch changes nothing.
func (p *generalPatch) apply(g *alloc.GeneralConfig) {
	if p == nil {
		return
	}
	dst := reflect.ValueOf(g).Elem()
	for _, i := range p.fields {
		dst.Field(i).Set(p.val.Field(i))
	}
}
