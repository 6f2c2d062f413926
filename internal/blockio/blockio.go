// Package blockio implements the self-delimiting block framing shared by
// the v2 trace codec and the v2 raw profile log. Records are grouped into
// blocks — header (record count, payload byte length), CRC32C, payload —
// followed by an end marker and a seekable footer index, so a reader can
// either stream the file front to back or split a multi-gigabyte file
// into independent chunks and decode them on every core.
//
// On-disk layout, after a format-specific header the caller writes:
//
//	block*:  uvarint recordCount (>= 1)
//	         uvarint payloadLen
//	         4-byte little-endian CRC32C of the payload
//	         payload (recordCount records, format-specific encoding)
//	end:     a single 0x00 byte (a zero record count terminates the blocks)
//	footer:  payload: uvarint blockCount, then per block
//	             uvarint offset delta from the previous entry
//	             uvarint recordCount
//	             uvarint payloadLen
//	         4-byte little-endian CRC32C of the footer payload
//	         8-byte little-endian footer payload length
//	         "DMBX" (4-byte trailing magic)
//
// The trailing fixed-size fields let readIndex find the footer from the
// end of the file without scanning; the per-block entries let a parallel
// reader place every block's records into a preallocated slab before any
// payload byte is decoded. Production readers go through the footer
// index only (OpenIndex); the streaming Reader is the reference they are
// tested against.
package blockio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// footerMagic closes every block-framed file.
	footerMagic = "DMBX"

	// DefaultTargetBlockBytes is the payload size a Writer aims for. Big
	// enough that the ~10-byte block header is noise and a CRC pass runs
	// at memory bandwidth, small enough that thousands of independent
	// chunks exist in a gigabyte file.
	DefaultTargetBlockBytes = 256 * 1024

	// maxPayloadLen bounds a single block's payload: a larger claim is
	// corruption, not data.
	maxPayloadLen = 1 << 30

	// footerTrailerLen is the fixed-size tail: CRC32C + payload length +
	// magic.
	footerTrailerLen = 4 + 8 + 4
)

// castagnoli is the CRC32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats receives ingestion observations from readers. Implementations
// must be safe for concurrent use: a parallel reader reports from every
// worker. telemetry.Ingest satisfies it.
type Stats interface {
	// ObserveBlock records one successfully verified block.
	ObserveBlock(payloadBytes, records int)
	// CRCFailure records a block whose checksum did not match.
	CRCFailure()
}

// Block describes one block from the footer index.
type Block struct {
	Offset     int64 // file offset of the block header
	Records    int64
	PayloadLen int64
}

// DataLen returns the block's full on-disk length: header, CRC, payload.
func (b Block) DataLen() int64 {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(b.Records))
	n += binary.PutUvarint(tmp[:], uint64(b.PayloadLen))
	return int64(n) + 4 + b.PayloadLen
}

// headroom is the space reserved in front of every block's payload for
// its header — two uvarints and the CRC — so the header is written
// right-aligned against the payload and the whole block goes out in one
// Write, with no copy through an intermediate buffer.
const headroom = 2*binary.MaxVarintLen64 + 4

// Writer frames records into blocks. Callers encode each record straight
// into the current block's buffer (Begin/Commit); every block goes to the
// sink as one Write, and the writer tracks every block for the footer
// index. Errors are sticky: the first underlying write error is kept and
// nothing more is written, so emitters on a hot path can check Err at
// their own cadence. Reset points a writer at a new sink and keeps its
// buffers, so a writer reused across files allocates nothing once warm.
type Writer struct {
	w       io.Writer
	off     int64 // bytes emitted so far (headers, blocks)
	target  int
	buf     []byte // headroom, then the current block's payload
	records int64
	index   []Block
	err     error
	closed  bool
}

// NewWriter returns a block writer emitting to w. target is the payload
// size a block aims for; <= 0 selects DefaultTargetBlockBytes.
func NewWriter(w io.Writer, target int) *Writer {
	if target <= 0 {
		target = DefaultTargetBlockBytes
	}
	bw := &Writer{target: target, buf: make([]byte, headroom, headroom+target+4096)}
	bw.Reset(w)
	return bw
}

// Reset discards any unwritten state and points the writer at dst,
// keeping its block buffer and index capacity.
func (w *Writer) Reset(dst io.Writer) {
	w.w = dst
	w.off = 0
	w.buf = w.buf[:headroom]
	w.records = 0
	w.index = w.index[:0]
	w.err = nil
	w.closed = false
}

// WriteHeader emits the caller's format-specific header bytes. It must be
// called before the first record.
func (w *Writer) WriteHeader(b []byte) {
	if w.err != nil {
		return
	}
	if w.records > 0 || len(w.index) > 0 {
		w.err = fmt.Errorf("blockio: WriteHeader after records")
		return
	}
	w.write(b)
}

// Begin starts one record: it returns the current block's buffer, to
// which the caller appends exactly one encoded record before passing the
// extended slice to Commit. A full block is emitted first, so a block
// closes at the first record boundary at or past the target size.
func (w *Writer) Begin() []byte {
	if len(w.buf)-headroom >= w.target {
		w.emitBlock()
	}
	return w.buf
}

// Commit ends the record begun by Begin; b is Begin's slice with the
// record appended.
func (w *Writer) Commit(b []byte) {
	w.buf = b
	w.records++
}

// Err returns the first underlying write error, if any, without waiting
// for Close — an emitter streaming gigabytes can abort as soon as the
// disk fills instead of simulating on against a dead file.
func (w *Writer) Err() error { return w.err }

// write sends b to the sink, keeping the first error.
func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = err
		return
	}
	w.off += int64(n)
}

// seal writes the pending block's header into the headroom, records the
// block in the index, and returns the offset in buf where the block's
// bytes start (the end of the headroom when no records are pending).
func (w *Writer) seal() int {
	if w.records == 0 {
		return headroom
	}
	payload := w.buf[headroom:]
	var hdr [headroom]byte
	n := binary.PutUvarint(hdr[:], uint64(w.records))
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(payload, castagnoli))
	n += 4
	start := headroom - n
	copy(w.buf[start:], hdr[:n])
	w.index = append(w.index, Block{Offset: w.off, Records: w.records, PayloadLen: int64(len(payload))})
	return start
}

// emitBlock writes the pending block with one Write and starts the next.
func (w *Writer) emitBlock() {
	if w.err == nil {
		w.write(w.buf[w.seal():])
	}
	w.buf = w.buf[:headroom]
	w.records = 0
}

// Close writes the final block, the end marker and the footer index in
// one Write. The underlying writer is not closed.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	start := w.seal()
	b := AppendFooter(append(w.buf, 0), w.index) // end marker, footer
	w.write(b[start:])
	w.buf = b[:headroom] // keep any capacity the footer grew
	w.records = 0
	return w.err
}

// AppendFooter appends the footer index of blocks — payload, CRC32C,
// payload length, magic — to b, which must end with the end marker.
func AppendFooter(b []byte, blocks []Block) []byte {
	footerAt := len(b)
	b = binary.AppendUvarint(b, uint64(len(blocks)))
	prev := int64(0)
	for _, blk := range blocks {
		b = binary.AppendUvarint(b, uint64(blk.Offset-prev))
		b = binary.AppendUvarint(b, uint64(blk.Records))
		b = binary.AppendUvarint(b, uint64(blk.PayloadLen))
		prev = blk.Offset
	}
	footerLen := len(b) - footerAt
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[footerAt:], castagnoli))
	b = binary.LittleEndian.AppendUint64(b, uint64(footerLen))
	return append(b, footerMagic...)
}

// Reader streams blocks front to back, never reading the footer. It is
// the streaming reference that tests and benchmarks compare the indexed
// readers with. The caller positions r just after the format-specific
// header.
type Reader struct {
	br      *bufio.Reader
	payload []byte
	block   int64
	done    bool
}

// NewReader returns a sequential block reader.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	return &Reader{br: br}
}

// Next returns the next block's record count and payload (valid until the
// following call), verifying its CRC. It returns io.EOF at the end
// marker; the footer is left unread.
func (r *Reader) Next() (int, []byte, error) {
	if r.done {
		return 0, nil, io.EOF
	}
	records, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, fmt.Errorf("blockio: block %d: reading record count: %w", r.block, unexpectedEOF(err))
	}
	if records == 0 { // end marker
		r.done = true
		return 0, nil, io.EOF
	}
	payloadLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, fmt.Errorf("blockio: block %d: reading payload length: %w", r.block, unexpectedEOF(err))
	}
	if payloadLen > maxPayloadLen {
		return 0, nil, fmt.Errorf("blockio: block %d: implausible payload length %d (max %d)", r.block, payloadLen, maxPayloadLen)
	}
	if records > payloadLen {
		return 0, nil, fmt.Errorf("blockio: block %d: %d records cannot fit in %d payload bytes", r.block, records, payloadLen)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		return 0, nil, fmt.Errorf("blockio: block %d: reading crc: %w", r.block, unexpectedEOF(err))
	}
	if int64(payloadLen) <= int64(cap(r.payload)) {
		r.payload = r.payload[:payloadLen]
		if _, err := io.ReadFull(r.br, r.payload); err != nil {
			return 0, nil, fmt.Errorf("blockio: block %d: reading %d payload bytes: %w", r.block, payloadLen, unexpectedEOF(err))
		}
	} else {
		// Grow the buffer only as bytes actually arrive: a corrupt or
		// hostile header may claim up to maxPayloadLen, and trusting it
		// for one up-front allocation would let a 30-byte file demand a
		// gigabyte buffer.
		const growStep = 4 << 20
		r.payload = r.payload[:0]
		for uint64(len(r.payload)) < payloadLen {
			n := payloadLen - uint64(len(r.payload))
			if n > growStep {
				n = growStep
			}
			start := len(r.payload)
			r.payload = append(r.payload, make([]byte, n)...)
			if _, err := io.ReadFull(r.br, r.payload[start:]); err != nil {
				return 0, nil, fmt.Errorf("blockio: block %d: reading %d payload bytes: %w", r.block, payloadLen, unexpectedEOF(err))
			}
		}
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	if got := crc32.Checksum(r.payload, castagnoli); got != want {
		return 0, nil, fmt.Errorf("blockio: block %d: crc mismatch (stored %08x, computed %08x)", r.block, want, got)
	}
	r.block++
	return int(records), r.payload, nil
}

// parseBlock parses one block at the start of buf (header, CRC, payload),
// verifies the CRC, and returns the record count, the payload (aliasing
// buf) and the remaining bytes. Index.Decode runs it over in-memory
// fetch windows and names the block in its errors. stats may be nil.
func parseBlock(buf []byte, stats Stats) (records int64, payload, rest []byte, err error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("truncated block header")
	}
	buf = buf[n:]
	records = int64(u)
	if records == 0 {
		return 0, nil, nil, fmt.Errorf("unexpected end marker inside a fetch window")
	}
	u, n = binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("truncated payload length")
	}
	buf = buf[n:]
	// Compared unsigned first: a length of 2^63 or more would turn
	// negative as an int64 and pass the window check.
	if u > maxPayloadLen || int64(u) > int64(len(buf))-4 {
		return 0, nil, nil, fmt.Errorf("payload length %d exceeds window", u)
	}
	payloadLen := int64(u)
	want := binary.LittleEndian.Uint32(buf)
	payload = buf[4 : 4+payloadLen]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		if stats != nil {
			stats.CRCFailure()
		}
		return 0, nil, nil, fmt.Errorf("crc mismatch (stored %08x, computed %08x)", want, got)
	}
	if stats != nil {
		stats.ObserveBlock(len(payload), int(records))
	}
	return records, payload, buf[4+payloadLen:], nil
}

// readIndex reads the footer index from the end of a block-framed file
// and returns the block descriptors in file order and the offset of the
// end marker, which it checks sits right before the footer and right
// after the last block. Every entry's record count must fit its payload
// (a record takes at least one byte), so the records an index claims
// never exceed the file's size.
func readIndex(ra io.ReaderAt, size int64) ([]Block, int64, error) {
	if size < footerTrailerLen+1 {
		return nil, 0, fmt.Errorf("blockio: file of %d bytes cannot hold a footer", size)
	}
	var tail [footerTrailerLen]byte
	if _, err := ra.ReadAt(tail[:], size-footerTrailerLen); err != nil {
		return nil, 0, fmt.Errorf("blockio: reading footer trailer: %w", err)
	}
	if string(tail[12:]) != footerMagic {
		return nil, 0, fmt.Errorf("blockio: missing footer magic (got %q)", tail[12:])
	}
	payloadLen := int64(binary.LittleEndian.Uint64(tail[4:12]))
	if payloadLen < 1 || payloadLen > size-footerTrailerLen-1 {
		return nil, 0, fmt.Errorf("blockio: implausible footer length %d in a %d-byte file", payloadLen, size)
	}
	end := size - footerTrailerLen - payloadLen - 1
	footer := make([]byte, 1+payloadLen) // end marker, footer payload
	if _, err := ra.ReadAt(footer, end); err != nil {
		return nil, 0, fmt.Errorf("blockio: reading footer: %w", err)
	}
	if footer[0] != 0 {
		return nil, 0, fmt.Errorf("blockio: no end marker before the footer (offset %d)", end)
	}
	footer = footer[1:]
	if got := crc32.Checksum(footer, castagnoli); got != binary.LittleEndian.Uint32(tail[0:4]) {
		return nil, 0, fmt.Errorf("blockio: footer crc mismatch")
	}
	count, n := binary.Uvarint(footer)
	if n <= 0 {
		return nil, 0, fmt.Errorf("blockio: truncated footer block count")
	}
	footer = footer[n:]
	if count > uint64(len(footer))/3 { // every entry takes at least three bytes
		return nil, 0, fmt.Errorf("blockio: implausible block count %d in a %d-byte footer", count, payloadLen)
	}
	blocks := make([]Block, 0, count)
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		var fields [3]uint64 // offset delta, records, payload length
		for f := range fields {
			u, n := binary.Uvarint(footer)
			if n <= 0 {
				return nil, 0, fmt.Errorf("blockio: truncated footer entry %d", i)
			}
			fields[f] = u
			footer = footer[n:]
		}
		if fields[0] > uint64(end) || fields[2] > maxPayloadLen {
			return nil, 0, fmt.Errorf("blockio: footer entry %d (offset delta %d, payload %d) exceeds the %d-byte file", i, fields[0], fields[2], size)
		}
		if fields[1] == 0 || fields[1] > fields[2] {
			return nil, 0, fmt.Errorf("blockio: footer entry %d: %d records cannot fit in %d payload bytes", i, fields[1], fields[2])
		}
		blk := Block{Offset: prev + int64(fields[0]), Records: int64(fields[1]), PayloadLen: int64(fields[2])}
		if blk.Offset+blk.DataLen() > end {
			return nil, 0, fmt.Errorf("blockio: footer entry %d (offset %d, payload %d) runs past the end marker at %d", i, blk.Offset, blk.PayloadLen, end)
		}
		prev = blk.Offset
		blocks = append(blocks, blk)
	}
	if len(footer) != 0 {
		return nil, 0, fmt.Errorf("blockio: %d trailing footer bytes", len(footer))
	}
	if n := len(blocks); n > 0 && blocks[n-1].Offset+blocks[n-1].DataLen() != end {
		return nil, 0, fmt.Errorf("blockio: last block ends at %d, the end marker is at %d", blocks[n-1].Offset+blocks[n-1].DataLen(), end)
	}
	return blocks, end, nil
}

// unexpectedEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// block structure, running out of bytes is truncation, not a clean end.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
