package alloc

import (
	"fmt"
	"strconv"
	"strings"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// Config is the complete parameter vector of one allocator configuration —
// the unit the exploration tool enumerates. A Config is declarative: Build
// instantiates it against a simulation context and hierarchy.
type Config struct {
	// Label is an optional human-readable tag (presets set it; the
	// explorer generates one from the parameters otherwise).
	Label string `json:"label,omitempty"`

	// Fixed lists the dedicated pools in routing order.
	Fixed []FixedConfig `json:"fixed,omitempty"`

	// General configures the fallback pool (required).
	General GeneralConfig `json:"general"`
}

// FixedConfig declares one dedicated pool.
type FixedConfig struct {
	SlotBytes int64  `json:"slot_bytes"`
	MatchLo   int64  `json:"match_lo"`
	MatchHi   int64  `json:"match_hi"`
	Layer     string `json:"layer"` // hierarchy layer name

	Order  ListOrder  `json:"order"`
	Links  ListLinks  `json:"links"`
	Growth GrowthMode `json:"growth"`

	ChunkSlots int   `json:"chunk_slots"`
	MaxBytes   int64 `json:"max_bytes,omitempty"` // 0 = unlimited
	Reclaim    bool  `json:"reclaim,omitempty"`   // release fully-free chunks
}

// GeneralConfig declares the general pool.
type GeneralConfig struct {
	Layer string `json:"layer"`

	// Classes selects the size-class map: "single", "pow2:min:max" or
	// "linear:step:max".
	Classes string `json:"classes"`

	Fit   FitPolicy `json:"fit"`
	Order ListOrder `json:"order"`
	Links ListLinks `json:"links"`

	Split          SplitMode `json:"split"`
	SplitThreshold int64     `json:"split_threshold,omitempty"`

	Coalesce      CoalesceMode `json:"coalesce"`
	CoalesceEvery int          `json:"coalesce_every,omitempty"`

	Headers HeaderMode `json:"headers"`
	Growth  GrowthMode `json:"growth"`

	ChunkBytes   int64 `json:"chunk_bytes"`
	MaxBytes     int64 `json:"max_bytes,omitempty"`
	RoundToClass bool  `json:"round_to_class,omitempty"`
}

// ParseClasses builds the SizeClasser described by spec.
func ParseClasses(spec string) (SizeClasser, error) {
	switch {
	case spec == "single":
		return SingleClass{}, nil
	case strings.HasPrefix(spec, "pow2:"):
		var min, max int64
		if _, err := fmt.Sscanf(spec, "pow2:%d:%d", &min, &max); err != nil {
			return nil, fmt.Errorf("alloc: bad class spec %q: %v", spec, err)
		}
		return NewPow2Classes(min, max)
	case strings.HasPrefix(spec, "linear:"):
		var step, max int64
		if _, err := fmt.Sscanf(spec, "linear:%d:%d", &step, &max); err != nil {
			return nil, fmt.Errorf("alloc: bad class spec %q: %v", spec, err)
		}
		return NewLinearClasses(step, max)
	default:
		return nil, fmt.Errorf("alloc: unknown class spec %q", spec)
	}
}

// Validate checks the configuration against a hierarchy without building.
func (c Config) Validate(h *memhier.Hierarchy) error {
	_, err := c.validate(h, nil)
	return err
}

// validate is Validate returning the general pool's size-class map (nil
// for a buddy pool), parsed through stash's cache when stash is not nil.
func (c Config) validate(h *memhier.Hierarchy, stash *BlockStash) (SizeClasser, error) {
	for i, f := range c.Fixed {
		if _, ok := h.ByName(f.Layer); !ok {
			return nil, fmt.Errorf("alloc: fixed pool %d: unknown layer %q", i, f.Layer)
		}
		p := f.params(0)
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("alloc: fixed pool %d: %w", i, err)
		}
	}
	if _, ok := h.ByName(c.General.Layer); !ok {
		return nil, fmt.Errorf("alloc: general pool: unknown layer %q", c.General.Layer)
	}
	if bp, ok := c.General.buddyParams(0); ok {
		if err := bp.Validate(); err != nil {
			return nil, fmt.Errorf("alloc: general pool: %w", err)
		}
		return nil, nil
	}
	classes, err := stash.sizeClasses(c.General.Classes)
	if err != nil {
		return nil, err
	}
	gp := c.General.params(0, classes)
	if err := gp.Validate(); err != nil {
		return nil, fmt.Errorf("alloc: general pool: %w", err)
	}
	return classes, nil
}

// buddyParams recognizes the "buddy:min:max" class spec, which selects a
// binary-buddy fallback pool instead of a segregated general pool. The
// remaining GeneralConfig policy fields do not apply (the buddy system
// fixes its own fit, split and coalesce rules); MaxBytes carries over as
// the pool budget.
func (g GeneralConfig) buddyParams(layer memhier.LayerID) (BuddyPoolParams, bool) {
	if !strings.HasPrefix(g.Classes, "buddy:") {
		return BuddyPoolParams{}, false
	}
	var min, max int64
	// Scan errors surface via Validate on the zero params.
	fmt.Sscanf(g.Classes, "buddy:%d:%d", &min, &max)
	return BuddyPoolParams{Layer: layer, MinBlock: min, MaxBlock: max, MaxBytes: g.MaxBytes}, true
}

func (f FixedConfig) params(layer memhier.LayerID) FixedPoolParams {
	return FixedPoolParams{
		Layer:      layer,
		SlotBytes:  f.SlotBytes,
		MatchLo:    f.MatchLo,
		MatchHi:    f.MatchHi,
		Order:      f.Order,
		Links:      f.Links,
		Growth:     f.Growth,
		ChunkSlots: f.ChunkSlots,
		MaxBytes:   f.MaxBytes,
		Reclaim:    f.Reclaim,
	}
}

func (g GeneralConfig) params(layer memhier.LayerID, classes SizeClasser) GeneralPoolParams {
	return GeneralPoolParams{
		Layer:          layer,
		Classes:        classes,
		Fit:            g.Fit,
		Order:          g.Order,
		Links:          g.Links,
		Split:          g.Split,
		SplitThreshold: g.SplitThreshold,
		Coalesce:       g.Coalesce,
		CoalesceEvery:  g.CoalesceEvery,
		Headers:        g.Headers,
		Growth:         g.Growth,
		ChunkBytes:     g.ChunkBytes,
		MaxBytes:       g.MaxBytes,
		RoundToClass:   g.RoundToClass,
	}
}

// Build instantiates the configuration on ctx. The returned allocator is
// bound to ctx's hierarchy and counters. It is built on stash (see
// BlockStash), or on a stash of its own when stash is nil.
func (c Config) Build(ctx *simheap.Context, stash *BlockStash) (*Composed, error) {
	if stash == nil {
		stash = new(BlockStash)
	}
	classes, err := c.validate(ctx.Hierarchy(), stash)
	if err != nil {
		return nil, err
	}
	a, err := c.buildFixed(ctx, stash)
	if err != nil {
		return nil, err
	}
	if a.general, err = c.buildGeneral(ctx, stash, classes); err != nil {
		return nil, err
	}
	return a, nil
}

// BuildWithFallback instantiates the configuration's fixed pools on ctx
// (in routing order, exactly as Build would) and composes them over the
// supplied fallback pool instead of building the general pool. The
// incremental evaluator pairs the real fixed pools with an inert
// recording fallback to replay the fixed-side-invariant part of a trace
// once per fixed-pool signature. Like Build, it builds on stash, or on a
// stash of its own when stash is nil.
func (c Config) BuildWithFallback(ctx *simheap.Context, general FallbackPool, stash *BlockStash) (*Composed, error) {
	if general == nil {
		return nil, errNoFallback
	}
	if stash == nil {
		stash = new(BlockStash)
	}
	if _, err := c.validate(ctx.Hierarchy(), stash); err != nil {
		return nil, err
	}
	a, err := c.buildFixed(ctx, stash)
	if err != nil {
		return nil, err
	}
	a.general = general
	return a, nil
}

// BuildGeneral instantiates only the configuration's general (fallback)
// pool on ctx, with no fixed pools in front of it. The incremental
// evaluator replays a partition's recorded fallback ops against this
// standalone pool; the pool code paths are identical to a full Build,
// only the context it charges is private to the partial replay. Like
// Build, it builds on stash, or on a stash of its own when stash is nil.
func (c Config) BuildGeneral(ctx *simheap.Context, stash *BlockStash) (FallbackPool, error) {
	if stash == nil {
		stash = new(BlockStash)
	}
	classes, err := c.validate(ctx.Hierarchy(), stash)
	if err != nil {
		return nil, err
	}
	return c.buildGeneral(ctx, stash, classes)
}

// buildFixed builds the configuration's fixed pools on stash, in routing
// order, into a Composed from stash that still lacks its general pool.
// The configuration must be valid.
func (c Config) buildFixed(ctx *simheap.Context, stash *BlockStash) (*Composed, error) {
	h := ctx.Hierarchy()
	a := stash.newComposed(ctx)
	a.name, a.cfg = c.Label, c
	for i, fc := range c.Fixed {
		layer, _ := h.ByName(fc.Layer)
		fp, err := newFixedPool(ctx, fc.params(layer), stash)
		if err != nil {
			return nil, fmt.Errorf("alloc: building fixed pool %d: %w", i, err)
		}
		a.fixed = append(a.fixed, fp)
	}
	return a, nil
}

// buildGeneral builds the configuration's general pool on stash, with
// the size-class map validate returned for it.
func (c Config) buildGeneral(ctx *simheap.Context, stash *BlockStash, classes SizeClasser) (FallbackPool, error) {
	layer, _ := ctx.Hierarchy().ByName(c.General.Layer)
	if bp, ok := c.General.buddyParams(layer); ok {
		pool, err := NewBuddyPool(ctx, bp)
		if err != nil {
			return nil, fmt.Errorf("alloc: building buddy pool: %w", err)
		}
		return pool, nil
	}
	pool, err := newGeneralPool(ctx, c.General.params(layer, classes), stash)
	if err != nil {
		return nil, fmt.Errorf("alloc: building general pool: %w", err)
	}
	return pool, nil
}

// ID returns a canonical compact identifier of the parameter vector,
// stable across runs; the explorer uses it as the configuration key.
func (c Config) ID() string {
	var buf [idBufLen]byte
	return string(c.AppendID(buf[:0]))
}

// AppendID appends ID's bytes to b: a caller that keeps b builds keys
// without allocating.
func (c Config) AppendID(b []byte) []byte {
	return c.General.AppendID(c.AppendFixedID(b))
}

// FixedID returns the canonical identifier of the fixed-pool half of the
// parameter vector (the routing-determining axes), a prefix of ID().
func (c Config) FixedID() string {
	var buf [idBufLen]byte
	return string(c.AppendFixedID(buf[:0]))
}

// ID returns the canonical identifier of the general-pool parameter
// vector — the suffix of Config.ID past the fixed pools. The incremental
// evaluator keys shared standalone general-pool runs by it: two
// configurations with equal GeneralConfig IDs build byte-for-byte
// identical fallback pools.
func (g GeneralConfig) ID() string {
	var buf [idBufLen]byte
	return string(g.AppendID(buf[:0]))
}

// idBufLen is the stack buffer the IDs are built in; the string is then
// their only allocation, unless an ID is longer.
const idBufLen = 256

// AppendFixedID appends FixedID's bytes to b.
func (c Config) AppendFixedID(b []byte) []byte {
	for _, f := range c.Fixed {
		b = append(b, 'F')
		b = strconv.AppendInt(b, f.SlotBytes, 10)
		b = append(b, '@')
		b = append(b, f.Layer...)
		b = append(b, '[')
		b = strconv.AppendInt(b, f.MatchLo, 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, f.MatchHi, 10)
		b = append(b, ']')
		b = append(b, f.Order.String()...)
		b = append(b, f.Links.String()...)
		b = append(b, f.Growth.String()...)
		b = append(b, "×"...)
		b = strconv.AppendInt(b, int64(f.ChunkSlots), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, f.MaxBytes, 10)
		if f.Reclaim {
			b = append(b, 'r')
		}
		b = append(b, '|')
	}
	return b
}

// AppendID appends ID's bytes to b.
func (g GeneralConfig) AppendID(b []byte) []byte {
	b = append(b, "G@"...)
	for _, s := range [...]string{g.Layer, g.Classes, g.Fit.String(), g.Order.String(), g.Links.String()} {
		b = append(b, s...)
		b = append(b, ':')
	}
	b = append(b, g.Split.String()...)
	b = strconv.AppendInt(b, g.SplitThreshold, 10)
	b = append(b, ':')
	b = append(b, g.Coalesce.String()...)
	b = strconv.AppendInt(b, int64(g.CoalesceEvery), 10)
	b = append(b, ':')
	b = append(b, g.Headers.String()...)
	b = append(b, ':')
	b = append(b, g.Growth.String()...)
	b = append(b, ':')
	b = strconv.AppendInt(b, g.ChunkBytes, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, g.MaxBytes, 10)
	if g.RoundToClass {
		b = append(b, ":round"...)
	}
	return b
}
