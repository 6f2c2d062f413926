package trace

import (
	"bytes"
	"testing"
)

func benchTrace(n int) *Trace {
	b := NewBuilder("bench")
	for i := 0; i < n; i++ {
		id := b.Alloc(int64(i%1500 + 1))
		b.Access(id, uint64(i%32+1), 4)
		b.Tick(10)
		b.Free(id)
	}
	return b.Build()
}

func BenchmarkBinaryEncode(b *testing.B) {
	tr := benchTrace(10000)
	var buf bytes.Buffer
	WriteBinaryV2(&buf, tr)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteBinaryV2(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecode(b *testing.B) {
	tr := benchTrace(10000)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTextEncode(b *testing.B) {
	tr := benchTrace(10000)
	var buf bytes.Buffer
	WriteText(&buf, tr)
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteText(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	tr := benchTrace(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(tr)
	}
}

func BenchmarkValidate(b *testing.B) {
	tr := benchTrace(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
