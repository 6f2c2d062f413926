package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"dmexplore/internal/blockio"
)

// RawEvent is a trace record with full 64-bit arguments, so tests can
// encode files whose IDs or Access and Tick arguments exceed what an
// Event holds. Args follow the binary record layout: Alloc id,size; Free
// id; Access id,reads,writes; Tick cycles.
type RawEvent struct {
	Kind EventKind
	Args []uint64
}

// WideFields names the bounded Event arguments WideEvents can widen.
var WideFields = []string{"id", "reads", "writes", "cycles"}

// WideLimit returns the largest value field holds: MaxID for "id",
// 2^32-1 for the Access and Tick arguments.
func WideLimit(field string) uint64 {
	if field == "id" {
		return MaxID
	}
	return math.MaxUint32
}

// WideEvents is a small valid trace whose event WideAt carries v as the
// given argument: the ID of a fresh never-freed allocation ("id"), or an
// Access or Tick argument ("reads", "writes" or "cycles").
func WideEvents(field string, v uint64) []RawEvent {
	evs := []RawEvent{
		{KindAlloc, []uint64{1, 64}},
		{KindTick, []uint64{5}},
		{KindAccess, []uint64{1, 2, 3}},
		{KindAlloc, []uint64{2, 16}},
		{KindTick, []uint64{7}},
		{KindFree, []uint64{2}},
		{KindFree, []uint64{1}},
	}
	switch field {
	case "id":
		evs[WideAt] = RawEvent{KindAlloc, []uint64{v, 8}}
	case "reads":
		evs[WideAt] = RawEvent{KindAccess, []uint64{1, v, 1}}
	case "writes":
		evs[WideAt] = RawEvent{KindAccess, []uint64{1, 1, v}}
	case "cycles":
		evs[WideAt] = RawEvent{KindTick, []uint64{v}}
	}
	return evs
}

// WideAt is the index of WideEvents' wide event.
const WideAt = 4

func appendRawRecord(rec []byte, e RawEvent) []byte {
	rec = append(rec, byte(e.Kind))
	for _, a := range e.Args {
		rec = binary.AppendUvarint(rec, a)
	}
	return rec
}

// EncodeRawV2 encodes evs as a v2 block-framed trace, blocks of about
// target bytes.
func EncodeRawV2(name string, evs []RawEvent, target int) []byte {
	var out bytes.Buffer
	w := blockio.NewWriter(&out, target)
	header := append([]byte(binaryMagic), binaryVersionV2)
	header = binary.AppendUvarint(header, uint64(len(name)))
	w.WriteHeader(append(header, name...))
	for _, e := range evs {
		w.Commit(appendRawRecord(w.Begin(), e))
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// EncodeRawText encodes evs in the text format.
func EncodeRawText(name string, evs []RawEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# dmtrace %s\n", name)
	for _, e := range evs {
		b.WriteByte("?afxt"[e.Kind])
		for _, a := range e.Args {
			fmt.Fprintf(&b, " %d", a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestEventIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 16 {
		t.Fatalf("Event is %d bytes, want 16", n)
	}
}

// TestDecodersRangeCheckArgs feeds every decoder an allocation ID at
// MaxID and Access reads/writes and Tick cycles at 2^32-1 (kept exactly),
// and each one past its limit (rejected with an error naming the event,
// never truncated). Sequential and parallel reads of the same v2 file
// must fail with the same error.
func TestDecodersRangeCheckArgs(t *testing.T) {
	defer func(w int64) { fetchWindowBytes = w }(fetchWindowBytes)
	fetchWindowBytes = 32 // one block per fetch group: real parallel splits
	for _, field := range WideFields {
		limit := WideLimit(field)
		for _, v := range []uint64{limit, limit + 1} {
			evs := WideEvents(field, v)
			v2 := EncodeRawV2("w", evs, 8)
			reads := map[string]func() (*Trace, error){
				"text": func() (*Trace, error) { return ReadText(strings.NewReader(EncodeRawText("w", evs))) },
				"v2":   func() (*Trace, error) { return ReadBinary(bytes.NewReader(v2)) },
				"v2-parallel": func() (*Trace, error) {
					return ReadBinaryParallel(bytes.NewReader(v2), int64(len(v2)), 3, nil)
				},
			}
			var slab *Compiled
			par, slabErr := ReadBinaryParallel(bytes.NewReader(v2), int64(len(v2)), 3, nil)
			if slabErr == nil {
				slab, slabErr = Compile(par)
			}
			name := fmt.Sprintf("%s=%d", field, v)
			if v <= limit {
				for dec, read := range reads {
					tr, err := read()
					if err != nil {
						t.Fatalf("%s %s: %v", name, dec, err)
					}
					if got := wideArg(tr.Events[WideAt], field); got != v {
						t.Errorf("%s %s: decoded %d", name, dec, got)
					}
				}
				if slabErr != nil {
					t.Fatalf("%s slab: %v", name, slabErr)
				}
				op := slab.At(WideAt)
				want := Op{Kind: KindAlloc, ID: 2, Size: 8} // "id": the third dense ID
				switch field {
				case "reads", "writes":
					want = Op{Kind: KindAccess, Reads: evs[WideAt].Args[1], Writes: evs[WideAt].Args[2]}
				case "cycles":
					want = Op{Kind: KindTick, Cycles: v}
				}
				if op != want {
					t.Errorf("%s slab: compiled %+v, want %+v", name, op, want)
				}
				continue
			}
			errs := map[string]error{"v2-slab": slabErr}
			for dec, read := range reads {
				_, errs[dec] = read()
			}
			bits := map[bool]string{true: "61-bit limit", false: "32-bit limit"}[field == "id"]
			for dec, err := range errs {
				if err == nil {
					t.Errorf("%s %s: accepted", name, dec)
					continue
				}
				msg := err.Error()
				if !strings.Contains(msg, fmt.Sprintf("event %d", WideAt)) || !strings.Contains(msg, bits) {
					t.Errorf("%s %s: error %q does not name event %d and the limit", name, dec, msg, WideAt)
				}
			}
			if errs["v2"] == nil || errs["v2-parallel"] == nil || errs["v2-slab"] == nil {
				continue
			}
			if a, b, c := errs["v2"].Error(), errs["v2-parallel"].Error(), errs["v2-slab"].Error(); a != b || a != c {
				t.Errorf("%s: serial and parallel errors differ:\n%s\n%s\n%s", name, a, b, c)
			}
		}
	}
}

func wideArg(e Event, field string) uint64 {
	switch field {
	case "id":
		return e.ID()
	case "reads":
		return uint64(e.Reads())
	case "writes":
		return uint64(e.Writes())
	}
	return uint64(e.Cycles())
}

func TestBuilderPanicsOnWideArgs(t *testing.T) {
	for name, f := range map[string]func(b *Builder, id uint64){
		"reads":  func(b *Builder, id uint64) { b.Access(id, math.MaxUint32+1, 0) },
		"writes": func(b *Builder, id uint64) { b.Access(id, 1, math.MaxUint32+1) },
		"cycles": func(b *Builder, _ uint64) { b.Tick(math.MaxUint32 + 1) },
		"id": func(b *Builder, _ uint64) {
			b.nextID = MaxID + 1
			b.Alloc(8)
		},
	} {
		b := NewBuilder("w")
		id := b.Alloc(8)
		b.Access(id, math.MaxUint32, math.MaxUint32)
		b.Tick(math.MaxUint32)
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: out-of-range argument accepted", name)
				} else if !strings.Contains(fmt.Sprint(r), "limit") {
					t.Errorf("%s: panic %v does not name the limit", name, r)
				}
			}()
			f(b, id)
		}()
	}
}

// TestEventAccessorsRoundTrip builds events through the constructors at
// every argument bound and reads each field back exactly, also after
// WithID moves the event to another ID.
func TestEventAccessorsRoundTrip(t *testing.T) {
	type fields struct {
		kind                  EventKind
		id                    uint64
		size                  int64
		reads, writes, cycles uint32
	}
	read := func(e Event) fields {
		return fields{e.Kind(), e.ID(), e.Size(), e.Reads(), e.Writes(), e.Cycles()}
	}
	check := func(e Event, want fields) {
		t.Helper()
		if got := read(e); got != want {
			t.Errorf("%v: read back %+v, want %+v", e, got, want)
		}
	}
	for _, id := range []uint64{0, 1, MaxID} {
		var events []Event
		var wants []fields
		for _, size := range []int64{1, math.MaxInt64} {
			events = append(events, AllocEvent(id, size))
			wants = append(wants, fields{kind: KindAlloc, id: id, size: size})
		}
		events = append(events, FreeEvent(id))
		wants = append(wants, fields{kind: KindFree, id: id})
		for _, r := range []uint32{0, math.MaxUint32} {
			for _, w := range []uint32{0, math.MaxUint32} {
				events = append(events, AccessEvent(id, r, w))
				wants = append(wants, fields{kind: KindAccess, id: id, reads: r, writes: w})
			}
		}
		for i, e := range events {
			check(e, wants[i])
			moved := wants[i]
			moved.id = MaxID - id
			check(e.WithID(moved.id), moved)
		}
	}
	for _, c := range []uint32{1, math.MaxUint32} {
		check(TickEvent(c), fields{kind: KindTick, cycles: c})
	}
	if k := (Event{}).Kind(); k >= KindAlloc && k <= KindTick {
		t.Errorf("zero Event has valid kind %v", k)
	}
	for name, f := range map[string]func(){
		"AllocEvent": func() { AllocEvent(MaxID+1, 8) },
		"FreeEvent":  func() { FreeEvent(MaxID + 1) },
		"WithID":     func() { FreeEvent(1).WithID(MaxID + 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted id MaxID+1", name)
				}
			}()
			f()
		}()
	}
}
