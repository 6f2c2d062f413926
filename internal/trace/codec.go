package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"dmexplore/internal/blockio"
)

// Text format: a line-oriented codec easy to inspect and to feed to the
// CLI tools. One event per line:
//
//	# dmtrace <name>
//	a <id> <size>
//	f <id>
//	x <id> <reads> <writes>
//	t <cycles>
//
// Binary format (version 2): "DMTR" magic, version byte, name, then
// varint-packed event records grouped into self-delimiting CRC32C blocks
// with a seekable footer index (internal/blockio), so a reader can verify
// integrity per block and split a multi-gigabyte file into independent
// chunks for parallel decoding (ReadBinaryParallel). Roughly 4-8x denser
// than text; the profiler's raw logs (which reach gigabytes, as in the
// paper) use the same framing.

// WriteText writes the trace in the text format.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# dmtrace %s\n", t.Name); err != nil {
		return err
	}
	var line []byte
	for i, e := range t.Events {
		if k := e.Kind(); k < KindAlloc || k > KindTick {
			return fmt.Errorf("trace: event %d has unknown kind %d", i, k)
		}
		line = append(e.appendText(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if name, ok := strings.CutPrefix(line, "# dmtrace "); ok && t.Name == "" {
				t.Name = strings.TrimSpace(name)
			}
			continue
		}
		var kind EventKind
		var id, a, b uint64
		var n int
		var err error
		switch line[0] {
		case 'a':
			kind = KindAlloc
			n, err = fmt.Sscanf(line, "a %d %d", &id, &a)
			if err != nil || n != 2 {
				return nil, fmt.Errorf("trace: line %d: bad alloc %q", lineNo, line)
			}
		case 'f':
			kind = KindFree
			n, err = fmt.Sscanf(line, "f %d", &id)
			if err != nil || n != 1 {
				return nil, fmt.Errorf("trace: line %d: bad free %q", lineNo, line)
			}
		case 'x':
			kind = KindAccess
			n, err = fmt.Sscanf(line, "x %d %d %d", &id, &a, &b)
			if err != nil || n != 3 {
				return nil, fmt.Errorf("trace: line %d: bad access %q", lineNo, line)
			}
		case 't':
			kind = KindTick
			n, err = fmt.Sscanf(line, "t %d", &a)
			if err != nil || n != 1 {
				return nil, fmt.Errorf("trace: line %d: bad tick %q", lineNo, line)
			}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", lineNo, line)
		}
		e, ok := decodedEvent(kind, id, a, b)
		if !ok {
			return nil, fmt.Errorf("trace: line %d (event %d): %w", lineNo, len(t.Events), rangeError(kind, id, a, b))
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

const (
	binaryMagic     = "DMTR"
	binaryVersionV2 = 2

	// maxNameLen bounds the embedded trace name.
	maxNameLen = 1 << 16

	// maxBinaryEvents bounds the event count a binary trace may claim.
	// Every event costs at least two bytes on disk, so this cap already
	// admits multi-terabyte files; a larger claim is a corrupt or hostile
	// header and is rejected outright rather than silently tolerated.
	maxBinaryEvents = 1 << 33
)

// appendEvent appends event i's binary record (kind byte plus varint
// fields) to buf.
func appendEvent(buf []byte, e *Event, i int) ([]byte, error) {
	kind := e.Kind()
	buf = append(buf, byte(kind))
	switch kind {
	case KindAlloc:
		buf = binary.AppendUvarint(buf, e.ID())
		buf = binary.AppendUvarint(buf, uint64(e.Size()))
	case KindFree:
		buf = binary.AppendUvarint(buf, e.ID())
	case KindAccess:
		buf = binary.AppendUvarint(buf, e.ID())
		buf = binary.AppendUvarint(buf, uint64(e.Reads()))
		buf = binary.AppendUvarint(buf, uint64(e.Writes()))
	case KindTick:
		buf = binary.AppendUvarint(buf, uint64(e.Cycles()))
	default:
		return nil, fmt.Errorf("trace: event %d has unknown kind %d", i, kind)
	}
	return buf, nil
}

// decodedEvent builds a decoded record's event from its ID and the
// fields after it (Alloc: size; Access: reads, writes; Tick: cycles). It
// reports false for an ID above MaxID or an Access or Tick argument
// beyond 32 bits, which the decoders reject (rangeError) instead of
// truncating. Small enough to inline into the decode loops.
func decodedEvent(kind EventKind, id, a, b uint64) (Event, bool) {
	if id > MaxID || (kind >= KindAccess && a|b > math.MaxUint32) { // b is 0 for a Tick
		return Event{}, false
	}
	if kind == KindAccess {
		a = packAccess(uint32(a), uint32(b))
	}
	return newEvent(kind, id, a), true
}

// rangeError names the first out-of-range field of a decoded record.
func rangeError(kind EventKind, id, a, b uint64) error {
	if id > MaxID {
		return idRangeError(id)
	}
	if kind == KindTick {
		return checkArg("tick cycles", a)
	}
	if err := checkArg("access reads", a); err != nil {
		return err
	}
	return checkArg("access writes", b)
}

// decodeEvent decodes one binary record from the front of buf into e
// (fully assigning it) and returns the bytes consumed. Every binary
// reader, sequential or parallel, decodes through it, so they accept and
// reject exactly the same records.
func decodeEvent(buf []byte, e *Event) (int, error) {
	if len(buf) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	kind := EventKind(buf[0])
	var fields int
	switch kind {
	case KindAlloc:
		fields = 2 // id, size
	case KindFree, KindTick:
		fields = 1 // id; cycles
	case KindAccess:
		fields = 3 // id, reads, writes
	default:
		return 0, fmt.Errorf("unknown kind %d", kind)
	}
	// A one-byte varint (high bit clear) decodes inline; a longer one,
	// or a truncated or overflowing one, goes to binary.Uvarint.
	var v [3]uint64
	n := 1
	for i := range v[:fields] {
		if n < len(buf) && buf[n] < 0x80 {
			v[i] = uint64(buf[n])
			n++
			continue
		}
		x, k := binary.Uvarint(buf[n:])
		if k <= 0 {
			return 0, io.ErrUnexpectedEOF
		}
		v[i] = x
		n += k
	}
	id, a, b := v[0], v[1], v[2]
	if kind == KindTick {
		id, a = 0, v[0]
	}
	var ok bool
	if *e, ok = decodedEvent(kind, id, a, b); !ok {
		return 0, rangeError(kind, id, a, b)
	}
	return n, nil
}

// WriteBinaryV2 writes the trace in the block-framed v2 binary format:
// varint event records grouped into CRC32C blocks with a seekable footer
// index (see internal/blockio), parseable sequentially or
// block-parallel.
func WriteBinaryV2(w io.Writer, t *Trace) error {
	return writeBinaryV2(w, t, 0)
}

// writeBinaryV2 is WriteBinaryV2 with a tunable block target, so tests
// can force many small blocks.
func writeBinaryV2(w io.Writer, t *Trace, target int) error {
	bw := blockio.NewWriter(w, target)
	if len(t.Name) > maxNameLen {
		return fmt.Errorf("trace: name of %d bytes exceeds the %d-byte cap", len(t.Name), maxNameLen)
	}
	header := make([]byte, 0, len(binaryMagic)+1+binary.MaxVarintLen64+len(t.Name))
	header = append(header, binaryMagic...)
	header = append(header, binaryVersionV2)
	header = binary.AppendUvarint(header, uint64(len(t.Name)))
	header = append(header, t.Name...)
	bw.WriteHeader(header)
	for i := range t.Events {
		rec, err := appendEvent(bw.Begin(), &t.Events[i], i)
		if err != nil {
			return err
		}
		bw.Commit(rec)
		if err := bw.Err(); err != nil {
			return err
		}
	}
	return bw.Close()
}

// countingReader counts the bytes its wrappee delivered, so errors deep
// in a gigabyte stream can name the exact byte offset.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReadBinary parses the block-framed v2 binary format front to back,
// never reading the footer index. It is the streaming reference the
// tests, fuzzers and scripts/benchparse.go compare ReadBinaryParallel
// with; production code reads through ReadBinaryParallel.
func ReadBinary(r io.Reader) (*Trace, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReaderSize(cr, 1<<20)
	name, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	// offset is the stream position of the next unconsumed byte, for
	// error messages that point into the file.
	offset := func() int64 { return cr.n - int64(br.Buffered()) }
	return readBinaryV2(br, name, offset)
}

// readHeader reads a v2 trace's header — magic, version byte, name —
// from the front of br and returns the name. Both binary readers check
// the header through it.
func readHeader(br *bufio.Reader) (string, error) {
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return "", fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return "", fmt.Errorf("trace: bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return "", fmt.Errorf("trace: reading version: %w", err)
	}
	if version != binaryVersionV2 {
		return "", fmt.Errorf("trace: unsupported version %d", version)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > maxNameLen {
		return "", fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return "", fmt.Errorf("trace: reading name: %w", err)
	}
	return string(name), nil
}

// readBinaryV2 streams the block-framed v2 format following the header.
func readBinaryV2(br *bufio.Reader, name string, offset func() int64) (*Trace, error) {
	t := &Trace{Name: name}
	blocks := blockio.NewReader(br)
	block := 0
	for {
		records, payload, err := blocks.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: byte offset %d: %w", offset(), err)
		}
		if uint64(len(t.Events))+uint64(records) > maxBinaryEvents {
			return nil, fmt.Errorf("trace: more than %d events — corrupt or hostile file", uint64(maxBinaryEvents))
		}
		for k := 0; k < records; k++ {
			var e Event
			n, err := decodeEvent(payload, &e)
			if err != nil {
				return nil, fmt.Errorf("trace: block %d, record %d (event %d): %w", block, k, len(t.Events), err)
			}
			payload = payload[n:]
			t.Events = append(t.Events, e)
		}
		if len(payload) != 0 {
			return nil, fmt.Errorf("trace: block %d: %d payload bytes beyond its %d records", block, len(payload), records)
		}
		block++
	}
}
