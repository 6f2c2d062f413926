package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
	for i, e := range t.Events {
		var err error
		switch e.Kind {
		case KindAlloc:
			_, err = fmt.Fprintf(bw, "a %d %d\n", e.ID, e.Size)
		case KindFree:
			_, err = fmt.Fprintf(bw, "f %d\n", e.ID)
		case KindAccess:
			_, err = fmt.Fprintf(bw, "x %d %d %d\n", e.ID, e.Reads, e.Writes)
		case KindTick:
			_, err = fmt.Fprintf(bw, "t %d\n", e.Cycles)
		default:
			return fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
		}
		if err != nil {
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
		var e Event
		var n int
		var err error
		switch line[0] {
		case 'a':
			e.Kind = KindAlloc
			n, err = fmt.Sscanf(line, "a %d %d", &e.ID, &e.Size)
			if err != nil || n != 2 {
				return nil, fmt.Errorf("trace: line %d: bad alloc %q", lineNo, line)
			}
		case 'f':
			e.Kind = KindFree
			n, err = fmt.Sscanf(line, "f %d", &e.ID)
			if err != nil || n != 1 {
				return nil, fmt.Errorf("trace: line %d: bad free %q", lineNo, line)
			}
		case 'x':
			e.Kind = KindAccess
			var reads, writes uint64
			n, err = fmt.Sscanf(line, "x %d %d %d", &e.ID, &reads, &writes)
			if err != nil || n != 3 {
				return nil, fmt.Errorf("trace: line %d: bad access %q", lineNo, line)
			}
			err = setAccess(&e, reads, writes)
		case 't':
			e.Kind = KindTick
			var cycles uint64
			n, err = fmt.Sscanf(line, "t %d", &cycles)
			if err != nil || n != 1 {
				return nil, fmt.Errorf("trace: line %d: bad tick %q", lineNo, line)
			}
			err = setTick(&e, cycles)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", lineNo, line)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d (event %d): %w", lineNo, len(t.Events), err)
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

// ReadAuto sniffs the trace format (binary magic vs text) and parses
// accordingly.
func ReadAuto(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == binaryMagic {
		return ReadBinary(br)
	}
	return ReadText(br)
}

// appendEvent appends event i's binary record (kind byte plus varint
// fields) to buf.
func appendEvent(buf []byte, e *Event, i int) ([]byte, error) {
	buf = append(buf, byte(e.Kind))
	switch e.Kind {
	case KindAlloc:
		buf = binary.AppendUvarint(buf, e.ID)
		buf = binary.AppendUvarint(buf, uint64(e.Size))
	case KindFree:
		buf = binary.AppendUvarint(buf, e.ID)
	case KindAccess:
		buf = binary.AppendUvarint(buf, e.ID)
		buf = binary.AppendUvarint(buf, uint64(e.Reads))
		buf = binary.AppendUvarint(buf, uint64(e.Writes))
	case KindTick:
		buf = binary.AppendUvarint(buf, uint64(e.Cycles))
	default:
		return nil, fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
	}
	return buf, nil
}

// setAccess stores an Access event's reads and writes, rejecting either
// beyond 32 bits.
func setAccess(e *Event, reads, writes uint64) error {
	if err := checkArg("access reads", reads); err != nil {
		return err
	}
	if err := checkArg("access writes", writes); err != nil {
		return err
	}
	e.Reads, e.Writes = uint32(reads), uint32(writes)
	return nil
}

// setTick stores a Tick event's cycles, rejecting a count beyond 32 bits.
func setTick(e *Event, cycles uint64) error {
	if err := checkArg("tick cycles", cycles); err != nil {
		return err
	}
	e.Cycles = uint32(cycles)
	return nil
}

// decodeEvent decodes one binary record from the front of buf into e
// (fully assigning it) and returns the bytes consumed. Every binary
// reader, sequential or parallel, decodes through it, so they accept and
// reject exactly the same records.
func decodeEvent(buf []byte, e *Event) (int, error) {
	if len(buf) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	*e = Event{Kind: EventKind(buf[0])}
	n := 1
	bad := false
	get := func() uint64 {
		v, k := binary.Uvarint(buf[n:])
		if k <= 0 {
			bad = true
			return 0
		}
		n += k
		return v
	}
	switch e.Kind {
	case KindAlloc:
		e.ID = get()
		e.Size = int64(get())
	case KindFree:
		e.ID = get()
	case KindAccess:
		e.ID = get()
		reads, writes := get(), get()
		if !bad {
			if err := setAccess(e, reads, writes); err != nil {
				return 0, err
			}
		}
	case KindTick:
		if cycles := get(); !bad {
			if err := setTick(e, cycles); err != nil {
				return 0, err
			}
		}
	default:
		return 0, fmt.Errorf("unknown kind %d", e.Kind)
	}
	if bad {
		return 0, io.ErrUnexpectedEOF
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

// ReadBinary parses the block-framed v2 binary format sequentially.
func ReadBinary(r io.Reader) (*Trace, error) {
	return readBinary(r, nil)
}

func readBinary(r io.Reader, stats blockio.Stats) (*Trace, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReaderSize(cr, 1<<20)
	// offset is the stream position of the next unconsumed byte, for
	// error messages that point into the file.
	offset := func() int64 { return cr.n - int64(br.Buffered()) }
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != binaryVersionV2 {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	return readBinaryV2(br, string(name), offset, stats)
}

// readBinaryV2 streams the block-framed v2 format following the header.
func readBinaryV2(br *bufio.Reader, name string, offset func() int64, stats blockio.Stats) (*Trace, error) {
	t := &Trace{Name: name}
	blocks := blockio.NewReader(br, stats)
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
