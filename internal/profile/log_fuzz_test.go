package profile

// Native fuzz target for the raw profile-log parser. Seeds come from the
// deterministic synthetic generator, so the fuzzer mutates from deep
// inside the valid format space, plus a headerless record stream. The
// properties under test: the record decoder, read as a raw block
// payload, makes the same accept/reject decision and the same totals as
// a plain binary.Uvarint reference; and whenever the serial parser
// accepts an input and the parallel parser does too, both produce the
// identical summary.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// referenceRecords is the straightforward record decoder — two
// binary.Uvarint calls per record — that parseLogRecords' inline
// one-byte paths must match exactly.
func referenceRecords(buf []byte, s *LogSummary) error {
	for len(buf) > 0 {
		flags := buf[0]
		_, n := binary.Uvarint(buf[1:])
		if n <= 0 {
			return errors.New("bad address")
		}
		words, k := binary.Uvarint(buf[1+n:])
		if k <= 0 {
			return errors.New("bad word count")
		}
		buf = buf[1+n+k:]
		if flags&1 == 1 {
			s.Writes[flags>>1] += words
		} else {
			s.Reads[flags>>1] += words
		}
		s.Records++
	}
	return nil
}

func FuzzParseLog(f *testing.F) {
	for _, records := range []int{0, 1, 1000} {
		var buf bytes.Buffer
		if err := WriteSyntheticLog(&buf, records, 7); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(logMagic + "\x02\x00"))
	f.Add([]byte{1 << 1, 0x80, 0x01, 4}) // headerless record stream
	f.Add([]byte(logMagic + "\x01"))     // retired v1 version byte
	var cut bytes.Buffer
	if err := WriteSyntheticLog(&cut, 1000, 11); err != nil {
		f.Fatal(err)
	}
	f.Add(cut.Bytes()[:cut.Len()/2])                                                // cut mid-block, footer index gone
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0x7F, 0x80, 0x01})                            // 4-byte address, 2-byte words
	f.Add([]byte{3, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 1}) // address overflows
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want LogSummary
		gotErr, wantErr := parseLogRecords(data, &got), referenceRecords(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("record decoder error %v, reference %v", gotErr, wantErr)
		}
		if gotErr == nil && !SameSummary(&got, &want) {
			t.Fatalf("record decoder totals diverged from the reference")
		}
		s, err := ParseLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, workers := range []int{1, 4} {
			p, perr := ParseLogParallel(bytes.NewReader(data), int64(len(data)), workers, nil)
			if perr != nil {
				// The parallel path additionally requires the footer index;
				// a truncated-but-serially-parsable tail may fail here. The
				// serial path (workers=1) must accept what ParseLog does.
				if workers == 1 {
					t.Fatalf("serial ParseLogParallel rejected input ParseLog accepted: %v", perr)
				}
				continue
			}
			if !SameSummary(p, s) {
				t.Fatalf("workers=%d: parallel summary diverged from serial", workers)
			}
		}
	})
}
