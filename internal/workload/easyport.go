package workload

import (
	"fmt"

	"dmexplore/internal/stats"
	"dmexplore/internal/trace"
)

// EasyportParams parameterizes the wireless-network workload modelled on
// the Infineon Easyport application (an access-port packet engine).
//
// The allocation profile the generator reproduces:
//
//   - Two dominant block sizes: 74-byte control/signalling blocks and
//     1500-byte (Ethernet MTU) frame buffers, plus a minor tail of other
//     sizes (fragment descriptors, session contexts).
//   - Bursty arrivals: packets arrive in Poisson-sized bursts, so the
//     number of live buffers oscillates — the fragmentation stressor.
//   - Short, FIFO-ish residency for packets; a small population of
//     long-lived session contexts.
//   - Per-packet protocol processing: header/payload touches plus CPU
//     cycles, so execution time is not a pure function of allocator
//     accesses (as in the paper, where time moves far less than energy).
type EasyportParams struct {
	Seed    uint64
	Packets int // total packets to process

	BurstMean   float64 // mean extra arrivals per step
	QueueTarget int     // drain threshold: frames resident per port
	Sessions    int     // long-lived session contexts

	ControlFrac float64 // fraction of packets that are 74-byte control
	DataFrac    float64 // fraction that are 1500-byte data frames
	// Remaining packets draw from the minor size tail.

	CyclesPerPacket uint64 // CPU work per packet (protocol processing)
}

// DefaultEasyportParams returns the calibrated defaults used by the
// experiments (see EXPERIMENTS.md).
func DefaultEasyportParams() EasyportParams {
	return EasyportParams{
		Seed:            1,
		Packets:         30000,
		BurstMean:       4.0,
		QueueTarget:     420,
		Sessions:        24,
		ControlFrac:     0.62,
		DataFrac:        0.30,
		CyclesPerPacket: 4000,
	}
}

// Name implements Generator.
func (p EasyportParams) Name() string { return "easyport" }

// Easyport block sizes.
const (
	EasyportControlBytes = 74   // signalling/control block
	EasyportFrameBytes   = 1500 // MTU frame buffer (dominant data size)
	easyportSessionBytes = 256  // session context

	// Data frames vary: most run at (or near) the MTU, the rest spread
	// down to the minimum payload — the variability that makes splitting,
	// coalescing and size-class policy matter.
	easyportFrameMin  = 256
	easyportMTUBandLo = 1300
)

// minor size tail: fragment descriptors, reassembly buffers, timers.
var easyportTailSizes = []int64{32, 128, 512}

// Validate reports parameter errors.
func (p EasyportParams) Validate() error {
	if p.Packets <= 0 {
		return fmt.Errorf("workload: easyport needs packets > 0")
	}
	if p.BurstMean <= 0 {
		return fmt.Errorf("workload: easyport burst mean must be positive")
	}
	if p.QueueTarget <= 0 || p.Sessions < 0 {
		return fmt.Errorf("workload: easyport queue/session params invalid")
	}
	if p.ControlFrac < 0 || p.DataFrac < 0 || p.ControlFrac+p.DataFrac > 1 {
		return fmt.Errorf("workload: easyport size fractions invalid")
	}
	return nil
}

// Generate implements Generator.
func (p EasyportParams) Generate() (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(p.Seed)
	b := trace.NewBuilder(fmt.Sprintf("easyport[p=%d,seed=%d]", p.Packets, p.Seed))
	// A packet is an alloc, two accesses and a free; bursts add ticks and
	// session touches, a session a few events more.
	b.Grow(5*p.Packets + 4*p.Sessions)

	// Long-lived session contexts, allocated at port bring-up.
	sessions := make([]uint64, 0, p.Sessions)
	for i := 0; i < p.Sessions; i++ {
		id := b.Alloc(easyportSessionBytes)
		b.Access(id, 0, easyportSessionBytes/8)
		sessions = append(sessions, id)
	}

	type packet struct {
		id   uint64
		size int64
	}
	var queue []packet // FIFO residency
	processed := 0

	for processed < p.Packets {
		// Burst arrival.
		burst := 1 + rng.Poisson(p.BurstMean)
		for i := 0; i < burst && processed < p.Packets; i++ {
			size := p.pickSize(rng)
			id := b.Alloc(size)
			// Control blocks are built word-by-word by the CPU; data
			// frames arrive by cut-through DMA and the CPU only writes
			// the descriptor and header fields.
			if size <= EasyportControlBytes {
				b.Access(id, 0, uint64(size+7)/8)
			} else {
				b.Access(id, 0, 16)
			}
			queue = append(queue, packet{id: id, size: size})
			processed++
		}
		// Protocol processing for the burst.
		b.Tick(uint64(burst) * p.CyclesPerPacket)

		// Occasionally touch a session context (lookup + update).
		if len(sessions) > 0 && rng.Bool(0.35) {
			sid := sessions[rng.Intn(len(sessions))]
			b.Access(sid, 6, 2)
		}
		// Session churn: rarely, a session ends and a new one starts.
		if len(sessions) > 0 && rng.Bool(0.01) {
			k := rng.Intn(len(sessions))
			b.Free(sessions[k])
			nid := b.Alloc(easyportSessionBytes)
			b.Access(nid, 0, easyportSessionBytes/8)
			sessions[k] = nid
		}

		// Drain: forward packets FIFO until the queue is at target. The
		// CPU re-reads control blocks fully (protocol state machine) but
		// only the headers of data frames (cut-through transmit).
		for len(queue) > p.QueueTarget || (len(queue) > 0 && rng.Bool(0.25)) {
			pk := queue[0]
			queue = queue[1:]
			if pk.size <= EasyportControlBytes {
				b.Access(pk.id, uint64(pk.size+7)/8+4, 0)
			} else {
				b.Access(pk.id, 20, 0)
			}
			b.Free(pk.id)
		}
	}

	// Port shutdown: drain the queue and close sessions.
	for _, pk := range queue {
		b.Access(pk.id, 8, 0)
		b.Free(pk.id)
	}
	for _, sid := range sessions {
		b.Free(sid)
	}
	return b.Build(), nil
}

// pickSize draws a packet's buffer size. Control blocks are fixed-size;
// data frames are MTU-heavy but variable (60% full MTU, 25% in the
// near-MTU band, 15% spread down to the minimum payload).
func (p EasyportParams) pickSize(rng *stats.RNG) int64 {
	x := rng.Float64()
	switch {
	case x < p.ControlFrac:
		return EasyportControlBytes
	case x < p.ControlFrac+p.DataFrac:
		d := rng.Float64()
		switch {
		case d < 0.60:
			return EasyportFrameBytes
		case d < 0.85:
			return easyportMTUBandLo + rng.Int64n(EasyportFrameBytes-easyportMTUBandLo)
		default:
			return easyportFrameMin + rng.Int64n(easyportMTUBandLo-easyportFrameMin)
		}
	default:
		return easyportTailSizes[rng.Intn(len(easyportTailSizes))]
	}
}
