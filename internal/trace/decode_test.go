package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"dmexplore/internal/stats"
)

// uvarintDecodeEvent is decodeEvent with every field read by
// binary.Uvarint: the reference the inline one-byte path must agree
// with.
func uvarintDecodeEvent(buf []byte, e *Event) (int, error) {
	kind := EventKind(buf[0])
	fields := map[EventKind]int{KindAlloc: 2, KindFree: 1, KindAccess: 3, KindTick: 1}[kind]
	if fields == 0 {
		return 0, fmt.Errorf("unknown kind %d", kind)
	}
	var v [3]uint64
	n := 1
	for i := 0; i < fields; i++ {
		x, k := binary.Uvarint(buf[n:])
		if k <= 0 {
			return 0, io.ErrUnexpectedEOF
		}
		v[i], n = x, n+k
	}
	id, a, b := v[0], v[1], v[2]
	if kind == KindTick {
		id, a = 0, v[0]
	}
	ev, ok := decodedEvent(kind, id, a, b)
	if !ok {
		return 0, rangeError(kind, id, a, b)
	}
	*e = ev
	return n, nil
}

// TestDecodeEventMatchesUvarint feeds decodeEvent records built from
// bytes that make varints one byte, several bytes, truncated at the end
// of the buffer and overflowing past ten bytes, and requires it to
// accept exactly the records the binary.Uvarint reference accepts, with
// the same event and length, and to report a bad varint as
// io.ErrUnexpectedEOF.
func TestDecodeEventMatchesUvarint(t *testing.T) {
	rng := stats.NewRNG(11)
	alphabet := []byte{0x00, 0x01, 0x7f, 0x80, 0x81, 0xff, 0xfe}
	buf := make([]byte, 0, 32)
	accepted := 0
	for i := 0; i < 200_000; i++ {
		buf = append(buf[:0], byte(rng.Intn(6))) // four kinds, two bad ones
		for n := rng.Intn(24); n > 0; n-- {
			if rng.Bool(0.5) {
				buf = append(buf, alphabet[rng.Intn(len(alphabet))])
			} else {
				buf = append(buf, byte(rng.Intn(256)))
			}
		}
		var got, want Event
		n, err := decodeEvent(buf, &got)
		wantN, wantErr := uvarintDecodeEvent(buf, &want)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
			n != wantN || got != want {
			t.Fatalf("% x: decodeEvent gives %v, %d bytes, err %v; binary.Uvarint %v, %d bytes, err %v",
				buf, got, n, err, want, wantN, wantErr)
		}
		if err == nil {
			accepted++
		}
	}
	if accepted < 10_000 {
		t.Fatalf("only %d of the records decoded: the inputs test too few accepts", accepted)
	}
}
