package trace_test

// Native fuzz targets for the three trace decoders. The corpus is seeded
// with real easyport and VTC workload traces in every supported encoding
// (text, block-framed binary), so the fuzzer starts from deep
// inside the valid format space instead of rediscovering the magic bytes.
// Run continuously with `go test -fuzz`, or as a smoke pass over the
// seeds by the ordinary test run (`make tier1` includes a short real
// fuzz of each target).

import (
	"bytes"
	"testing"

	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// sameEvents compares event sequences by content (a nil and an empty
// slice are the same trace).
func sameEvents(a, b []trace.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// boundaryArgs returns small traces carrying each bounded event
// argument at its limit and one past it: an allocation ID at MaxID and
// MaxID+1, Access reads and writes and Tick cycles at 2^32-1 and 2^32.
func boundaryArgs() [][]trace.RawEvent {
	var out [][]trace.RawEvent
	for _, field := range trace.WideFields {
		limit := trace.WideLimit(field)
		for _, v := range []uint64{limit, limit + 1} {
			out = append(out, trace.WideEvents(field, v))
		}
	}
	return out
}

// seedTraces returns small real workload traces for corpus seeding.
func seedTraces(f *testing.F) []*trace.Trace {
	f.Helper()
	var traces []*trace.Trace
	for _, name := range []string{"easyport", "vtc"} {
		gen, err := workload.New(name, 1, 2) // 2% scale: a few thousand events
		if err != nil {
			f.Fatal(err)
		}
		tr, err := gen.Generate()
		if err != nil {
			f.Fatal(err)
		}
		traces = append(traces, tr)
	}
	return traces
}

func FuzzReadBinary(f *testing.F) {
	var truncated, footless [][]byte
	for _, tr := range seedTraces(f) {
		var v2 bytes.Buffer
		if err := trace.WriteBinaryV2(&v2, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(v2.Bytes())
		truncated = append(truncated, v2.Bytes()[:v2.Len()/2])
		footless = append(footless, v2.Bytes()[:v2.Len()-8])
	}
	f.Add([]byte("DMTR\x01\x00\x00"))
	f.Add([]byte("DMTR\x02\x00\x00"))
	// Columnar seed: every event kind interleaved with live/dead ID churn,
	// so the slab decode loop's four arms and the finalize validation all
	// run from the corpus itself.
	colSeed := &trace.Trace{Name: "columnar-seed"}
	for i := uint64(1); i <= 32; i++ {
		colSeed.Events = append(colSeed.Events,
			trace.AllocEvent(i, int64(8*i)),
			trace.AccessEvent(i, uint32(i), uint32(i%3)),
			trace.TickEvent(100),
		)
		if i%2 == 0 {
			colSeed.Events = append(colSeed.Events,
				trace.FreeEvent(i-1))
		}
	}
	var colBuf bytes.Buffer
	if err := trace.WriteBinaryV2(&colBuf, colSeed); err != nil {
		f.Fatal(err)
	}
	f.Add(colBuf.Bytes())
	// Range boundary seeds: IDs and 32-bit Access and Tick arguments at
	// their limit (accepted exactly) and one past it (rejected, never
	// truncated).
	for _, args := range boundaryArgs() {
		f.Add(trace.EncodeRawV2("wide", args, 0))
	}
	// The same boundaries with one record per block, so the range checks
	// also run at block edges.
	for _, args := range boundaryArgs() {
		f.Add(trace.EncodeRawV2("wide", args, 1))
	}
	// Real traces cut mid-block with the footer index gone, and cut into
	// the footer's trailer.
	for _, data := range truncated {
		f.Add(data)
	}
	for _, data := range footless {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The indexed reader gives one verdict per input at any worker
		// count, and what it accepts the streaming reference reads to
		// the same trace.
		one, oneErr := trace.ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), 1, nil)
		four, fourErr := trace.ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), 4, nil)
		if (oneErr == nil) != (fourErr == nil) {
			t.Fatalf("indexed verdicts diverge: 1 worker %v, 4 workers %v", oneErr, fourErr)
		}
		tr, err := trace.ReadBinary(bytes.NewReader(data))
		if oneErr == nil {
			if err != nil {
				t.Fatalf("the indexed reader accepted what ReadBinary rejects: %v", err)
			}
			if one.Name != tr.Name || four.Name != tr.Name || !sameEvents(one.Events, tr.Events) || !sameEvents(four.Events, tr.Events) {
				t.Fatal("indexed read diverged from ReadBinary")
			}
		}
		if err != nil {
			return
		}
		// Whatever parsed must survive a v2 round trip bit-identically,
		// through both readers.
		var out bytes.Buffer
		if err := trace.WriteBinaryV2(&out, tr); err != nil {
			t.Fatalf("re-encode of parsed trace failed: %v", err)
		}
		again, err := trace.ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Name != tr.Name || !sameEvents(again.Events, tr.Events) {
			t.Fatal("v2 round trip diverged")
		}
		par, err := trace.ReadBinaryParallel(bytes.NewReader(out.Bytes()), int64(out.Len()), 4, nil)
		if err != nil {
			t.Fatalf("indexed re-parse failed: %v", err)
		}
		if !sameEvents(par.Events, tr.Events) {
			t.Fatal("indexed re-parse diverged")
		}
	})
}

func FuzzReadText(f *testing.F) {
	for _, tr := range seedTraces(f) {
		var txt bytes.Buffer
		if err := trace.WriteText(&txt, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(txt.Bytes())
	}
	f.Add([]byte("# dmtrace x\na 1 8\nx 1 2 3\nf 1\nt 5\n"))
	for _, args := range boundaryArgs() {
		f.Add([]byte(trace.EncodeRawText("wide", args)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := trace.WriteText(&out, tr); err != nil {
			t.Fatalf("re-encode of parsed trace failed: %v", err)
		}
		again, err := trace.ReadText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !sameEvents(again.Events, tr.Events) {
			t.Fatal("text round trip diverged")
		}
	})
}
