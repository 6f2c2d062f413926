package profile

// Native fuzz target for the raw profile-log parser. Seeds come from the
// deterministic synthetic generator, so the fuzzer mutates from deep
// inside the valid format space, plus a headerless record stream. The
// properties under test: the record decoder, read as a raw block
// payload, makes the same accept/reject decision and the same totals as
// a plain binary.Uvarint reference; the indexed parser gives the same
// verdict and summary at one worker as at four; and whatever it accepts,
// the streaming ParseLog accepts with the identical summary.

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
	f.Add(cut.Bytes()[:cut.Len()-8])                                                // cut into the footer trailer
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want LogSummary
		gotErr, wantErr := parseLogRecords(data, &got), referenceRecords(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("record decoder error %v, reference %v", gotErr, wantErr)
		}
		if gotErr == nil && !SameSummary(&got, &want) {
			t.Fatalf("record decoder totals diverged from the reference")
		}
		// The indexed parser gives one verdict and one summary per input
		// at any worker count, and what it accepts the streaming
		// reference sums the same.
		one, oneErr := ParseLogParallel(bytes.NewReader(data), int64(len(data)), 1, nil)
		four, fourErr := ParseLogParallel(bytes.NewReader(data), int64(len(data)), 4, nil)
		if (oneErr == nil) != (fourErr == nil) {
			t.Fatalf("indexed verdicts diverge: 1 worker %v, 4 workers %v", oneErr, fourErr)
		}
		if oneErr != nil {
			return
		}
		if !SameSummary(one, four) {
			t.Fatal("1- and 4-worker summaries diverged")
		}
		s, err := ParseLog(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("the indexed parser accepted what ParseLog rejects: %v", err)
		}
		if !SameSummary(one, s) {
			t.Fatal("indexed summary diverged from ParseLog")
		}
	})
}
