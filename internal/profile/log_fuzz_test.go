package profile

// Native fuzz target for the raw profile-log parser. Seeds come from the
// deterministic synthetic generator, so the fuzzer mutates from deep
// inside the valid format space, plus a headerless record stream. The
// property under test: whenever the serial parser accepts an input and
// the parallel parser does too, both produce the identical summary.

import (
	"bytes"
	"testing"
)

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
	f.Add(cut.Bytes()[:cut.Len()/2]) // cut mid-block, footer index gone
	f.Fuzz(func(t *testing.T, data []byte) {
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
