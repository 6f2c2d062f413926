package alloc

import (
	"fmt"
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
	for i, f := range c.Fixed {
		if _, ok := h.ByName(f.Layer); !ok {
			return fmt.Errorf("alloc: fixed pool %d: unknown layer %q", i, f.Layer)
		}
		p := f.params(0)
		if err := p.Validate(); err != nil {
			return fmt.Errorf("alloc: fixed pool %d: %w", i, err)
		}
	}
	if _, ok := h.ByName(c.General.Layer); !ok {
		return fmt.Errorf("alloc: general pool: unknown layer %q", c.General.Layer)
	}
	if bp, ok := c.General.buddyParams(0); ok {
		if err := bp.Validate(); err != nil {
			return fmt.Errorf("alloc: general pool: %w", err)
		}
		return nil
	}
	classes, err := ParseClasses(c.General.Classes)
	if err != nil {
		return err
	}
	gp := c.General.params(0, classes)
	if err := gp.Validate(); err != nil {
		return fmt.Errorf("alloc: general pool: %w", err)
	}
	return nil
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
// bound to ctx's hierarchy and counters. Its pools draw their Blocks from
// stash when it is not nil (see BlockStash).
func (c Config) Build(ctx *simheap.Context, stash *BlockStash) (*Composed, error) {
	fixed, err := c.buildFixed(ctx, stash)
	if err != nil {
		return nil, err
	}
	general, err := c.buildGeneral(ctx, stash)
	if err != nil {
		return nil, err
	}
	return c.compose(ctx, fixed, general)
}

// BuildWithFallback instantiates the configuration's fixed pools on ctx
// (in routing order, exactly as Build would) and composes them over the
// supplied fallback pool instead of building the general pool. The
// incremental evaluator pairs the real fixed pools with an inert
// recording fallback to replay the fixed-side-invariant part of a trace
// once per fixed-pool signature.
func (c Config) BuildWithFallback(ctx *simheap.Context, general FallbackPool) (*Composed, error) {
	fixed, err := c.buildFixed(ctx, nil)
	if err != nil {
		return nil, err
	}
	return c.compose(ctx, fixed, general)
}

// BuildGeneral instantiates only the configuration's general (fallback)
// pool on ctx, with no fixed pools in front of it. The incremental
// evaluator replays a partition's recorded fallback ops against this
// standalone pool; the pool code paths are identical to a full Build,
// only the context it charges is private to the partial replay. A general
// pool draws its Blocks from stash when it is not nil.
func (c Config) BuildGeneral(ctx *simheap.Context, stash *BlockStash) (FallbackPool, error) {
	if err := c.Validate(ctx.Hierarchy()); err != nil {
		return nil, err
	}
	return c.buildGeneral(ctx, stash)
}

// buildFixed validates the configuration and builds its fixed pools in
// routing order, on stash when it is not nil.
func (c Config) buildFixed(ctx *simheap.Context, stash *BlockStash) ([]*FixedPool, error) {
	h := ctx.Hierarchy()
	if err := c.Validate(h); err != nil {
		return nil, err
	}
	fixed := make([]*FixedPool, 0, len(c.Fixed))
	for i, fc := range c.Fixed {
		layer, _ := h.ByName(fc.Layer)
		fp, err := newFixedPool(ctx, fc.params(layer), stash)
		if err != nil {
			return nil, fmt.Errorf("alloc: building fixed pool %d: %w", i, err)
		}
		fixed = append(fixed, fp)
	}
	return fixed, nil
}

func (c Config) buildGeneral(ctx *simheap.Context, stash *BlockStash) (FallbackPool, error) {
	layer, _ := ctx.Hierarchy().ByName(c.General.Layer)
	if bp, ok := c.General.buddyParams(layer); ok {
		pool, err := NewBuddyPool(ctx, bp)
		if err != nil {
			return nil, fmt.Errorf("alloc: building buddy pool: %w", err)
		}
		return pool, nil
	}
	classes, err := ParseClasses(c.General.Classes)
	if err != nil {
		return nil, err
	}
	pool, err := newGeneralPool(ctx, c.General.params(layer, classes), stash)
	if err != nil {
		return nil, fmt.Errorf("alloc: building general pool: %w", err)
	}
	return pool, nil
}

func (c Config) compose(ctx *simheap.Context, fixed []*FixedPool, general FallbackPool) (*Composed, error) {
	name := c.Label
	if name == "" {
		name = c.ID()
	}
	return NewComposed(name, ctx, fixed, general)
}

// ID returns a canonical compact identifier of the parameter vector,
// stable across runs; the explorer uses it as the configuration key.
func (c Config) ID() string {
	var b strings.Builder
	c.writeFixedID(&b)
	c.General.writeID(&b)
	return b.String()
}

// FixedID returns the canonical identifier of the fixed-pool half of the
// parameter vector (the routing-determining axes), a prefix of ID().
func (c Config) FixedID() string {
	var b strings.Builder
	c.writeFixedID(&b)
	return b.String()
}

// ID returns the canonical identifier of the general-pool parameter
// vector — the suffix of Config.ID past the fixed pools. The incremental
// evaluator keys shared standalone general-pool runs by it: two
// configurations with equal GeneralConfig IDs build byte-for-byte
// identical fallback pools.
func (g GeneralConfig) ID() string {
	var b strings.Builder
	g.writeID(&b)
	return b.String()
}

func (c Config) writeFixedID(b *strings.Builder) {
	for _, f := range c.Fixed {
		fmt.Fprintf(b, "F%d@%s[%d-%d]%s%s%s×%d/%d",
			f.SlotBytes, f.Layer, f.MatchLo, f.MatchHi,
			f.Order, f.Links, f.Growth, f.ChunkSlots, f.MaxBytes)
		if f.Reclaim {
			b.WriteString("r")
		}
		b.WriteString("|")
	}
}

func (g GeneralConfig) writeID(b *strings.Builder) {
	fmt.Fprintf(b, "G@%s:%s:%s:%s:%s:%s%d:%s%d:%s:%s:%d/%d",
		g.Layer, g.Classes, g.Fit, g.Order, g.Links,
		g.Split, g.SplitThreshold, g.Coalesce, g.CoalesceEvery,
		g.Headers, g.Growth, g.ChunkBytes, g.MaxBytes)
	if g.RoundToClass {
		b.WriteString(":round")
	}
}
