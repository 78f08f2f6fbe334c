package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// Binary wire framing: the length-prefixed alternative to NDJSON for the
// three protocol messages. A frame is
//
//	0xA7 | type (1 byte) | payload length (u32 LE) | payload | '\n'
//
// The trailing '\n' is a guard byte with one job: it makes every binary
// frame also a complete NDJSON "line", so a server that predates the
// binary protocol reads a client's magic-prefixed binary hello as one
// (non-JSON) line and answers a normal NDJSON bad-hello error — which the
// client recognizes by the reply's first byte ('{' instead of 0xA7) and
// falls back to NDJSON (see wire.go for the negotiation rules). NDJSON
// remains the wire fallback and the differential-fuzz oracle.
//
// Payload encoding is positional, little-endian, and canonical (one byte
// string per message value, asserted by the fuzz harness):
//
//	string   u32 byte length + raw bytes
//	int      u64, two's complement (JSON ints can be negative)
//	float64  u64, IEEE 754 bits
//	[]int    u32 count + one u64 each; count 0xFFFFFFFF encodes nil
//	[]f64    u32 count + one u64 each; count 0xFFFFFFFF encodes nil
//
// The nil sentinel preserves the JSON nil-vs-empty distinction across the
// codec boundary, so a message round-trips reflect.DeepEqual-identically
// through either framing. Decoding is allocation-free except for non-empty
// strings: slices decode into the caller's reused backing arrays and the
// payload is consumed in place, no reflection, no intermediate form.

const (
	// BinMagic opens every binary frame. It is not a valid first byte of
	// any JSON value, so the first byte of a connection (or of a reply)
	// identifies the framing.
	BinMagic = 0xA7

	// Frame types.
	BinTypeHello       = 1
	BinTypeSolution    = 2
	BinTypeMeasurement = 3

	// binNil is the slice-count sentinel encoding a nil slice.
	binNil = ^uint32(0)
)

// ErrBadFrame marks a binary framing violation: a non-magic byte where a
// frame must start, or a frame whose guard byte is not '\n'. The stream
// cannot be re-synchronized past it.
var ErrBadFrame = errors.New("core: malformed binary frame")

// BinFrameReader reads binary frames with the same hard size cap and
// error contract as the NDJSON FrameReader: ErrFrameTooLong above the
// cap, io.ErrUnexpectedEOF for a stream that ends mid-frame, clean io.EOF
// on a frame boundary.
type BinFrameReader struct {
	r   *bufio.Reader
	max int
	buf []byte
	// pending is how many payload+guard bytes of an oversized frame
	// remain unconsumed, so Drain can skip exactly them before an error
	// reply (mirroring FrameReader.DrainLine).
	pending int
}

// NewBinFrameReader wraps r with a frame cap of max payload bytes (the
// six-byte header and the guard byte are framing, not payload).
func NewBinFrameReader(r *bufio.Reader, max int) *BinFrameReader {
	return &BinFrameReader{r: r, max: max}
}

// Next returns the next frame's type and payload. The payload slice is
// valid until the following call.
func (br *BinFrameReader) Next() (typ byte, payload []byte, err error) {
	var hdr [6]byte
	if _, err := io.ReadFull(br.r, hdr[:1]); err != nil {
		return 0, nil, err // io.EOF here is a clean frame-boundary end
	}
	if hdr[0] != BinMagic {
		return 0, nil, ErrBadFrame
	}
	if _, err := io.ReadFull(br.r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[2:6]))
	if n > br.max {
		br.pending = n + 1
		return 0, nil, ErrFrameTooLong
	}
	if cap(br.buf) < n+1 {
		br.buf = make([]byte, n+1)
	}
	buf := br.buf[:n+1]
	if _, err := io.ReadFull(br.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if buf[n] != '\n' {
		return 0, nil, ErrBadFrame
	}
	return hdr[1], buf[:n], nil
}

// Drain consumes the rest of an oversized frame (after ErrFrameTooLong)
// so an error reply is not destroyed by the RST a close-with-unread-data
// would send.
func (br *BinFrameReader) Drain() error {
	n := br.pending
	br.pending = 0
	_, err := br.r.Discard(n)
	return err
}

// Encoders, in the WAL record codec's style (internal/durable appendRecord):
// append-based, length patched into a reserved header slot once the
// payload is known, zero intermediate buffers.

func beginBinFrame(b []byte, typ byte) ([]byte, int) {
	b = append(b, BinMagic, typ, 0, 0, 0, 0)
	return b, len(b)
}

func endBinFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start-4:start], uint32(len(b)-start))
	return append(b, '\n')
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendBinString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBinInts(b []byte, v []int) []byte {
	if v == nil {
		return appendU32(b, binNil)
	}
	b = appendU32(b, uint32(len(v)))
	for _, x := range v {
		b = appendU64(b, uint64(int64(x)))
	}
	return b
}

func appendBinF64s(b []byte, v []float64) []byte {
	if v == nil {
		return appendU32(b, binNil)
	}
	b = appendU32(b, uint32(len(v)))
	for _, x := range v {
		b = appendU64(b, math.Float64bits(x))
	}
	return b
}

// AppendHelloBin appends h as one complete binary frame.
func AppendHelloBin(b []byte, h *HelloMsg) []byte {
	b, start := beginBinFrame(b, BinTypeHello)
	b = appendBinString(b, h.Topology)
	b = appendU64(b, uint64(int64(h.N)))
	b = appendU64(b, uint64(int64(h.M)))
	b = appendU64(b, uint64(int64(h.Spouts)))
	b = appendBinString(b, h.Token)
	var flags byte
	if h.ReadOnly {
		flags |= 1
	}
	b = append(b, flags)
	return endBinFrame(b, start)
}

// AppendSolutionBin appends m as one complete binary frame.
func AppendSolutionBin(b []byte, m *SolutionMsg) []byte {
	b, start := beginBinFrame(b, BinTypeSolution)
	b = appendU64(b, uint64(int64(m.Epoch)))
	var flags byte
	if m.Retry {
		flags |= 1
	}
	if m.Resumed {
		flags |= 2
	}
	b = append(b, flags)
	b = appendBinInts(b, m.Assign)
	b = appendBinString(b, m.Err)
	b = appendBinString(b, m.Token)
	return endBinFrame(b, start)
}

// AppendMeasurementBin appends m as one complete binary frame.
func AppendMeasurementBin(b []byte, m *MeasurementMsg) []byte {
	b, start := beginBinFrame(b, BinTypeMeasurement)
	b = appendU64(b, uint64(int64(m.Epoch)))
	b = appendU64(b, math.Float64bits(m.AvgTupleTimeMS))
	b = appendBinF64s(b, m.Workload)
	b = appendBinString(b, m.Err)
	return endBinFrame(b, start)
}

// binCursor consumes a payload in place; the first malformed read poisons
// it and done() reports the verdict, so decoders read straight through
// without per-field error plumbing.
type binCursor struct {
	p   []byte
	bad bool
}

func (c *binCursor) u8() byte {
	if c.bad || len(c.p) < 1 {
		c.bad = true
		return 0
	}
	v := c.p[0]
	c.p = c.p[1:]
	return v
}

func (c *binCursor) u32() uint32 {
	if c.bad || len(c.p) < 4 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.p)
	c.p = c.p[4:]
	return v
}

func (c *binCursor) u64() uint64 {
	if c.bad || len(c.p) < 8 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.p)
	c.p = c.p[8:]
	return v
}

func (c *binCursor) int() int { return int(int64(c.u64())) }

func (c *binCursor) str() string {
	n := c.u32()
	if c.bad || uint64(n) > uint64(len(c.p)) {
		c.bad = true
		return ""
	}
	if n == 0 {
		return ""
	}
	v := string(c.p[:n])
	c.p = c.p[n:]
	return v
}

// ints decodes an []int into dst's backing array (nil sentinel → nil).
func (c *binCursor) ints(dst []int) []int {
	n := c.u32()
	if n == binNil {
		return nil
	}
	if c.bad || uint64(n)*8 > uint64(len(c.p)) {
		c.bad = true
		return nil
	}
	if dst == nil {
		dst = []int{} // count 0 is an empty slice, distinct from the nil sentinel
	}
	dst = dst[:0]
	for i := 0; i < int(n); i++ {
		dst = append(dst, c.int())
	}
	return dst
}

// f64s decodes a []float64 into dst's backing array (nil sentinel → nil).
func (c *binCursor) f64s(dst []float64) []float64 {
	n := c.u32()
	if n == binNil {
		return nil
	}
	if c.bad || uint64(n)*8 > uint64(len(c.p)) {
		c.bad = true
		return nil
	}
	if dst == nil {
		dst = []float64{} // count 0 is an empty slice, distinct from the nil sentinel
	}
	dst = dst[:0]
	for i := 0; i < int(n); i++ {
		dst = append(dst, math.Float64frombits(c.u64()))
	}
	return dst
}

// done reports ErrBadFrame unless the payload decoded cleanly and
// completely — trailing bytes are a protocol error, which is also what
// makes decode(encode(m)) == m byte-canonical for the fuzz harness.
func (c *binCursor) done() error {
	if c.bad || len(c.p) != 0 {
		return ErrBadFrame
	}
	return nil
}

// DecodeHelloBin decodes a BinTypeHello payload into h. On error h's
// contents are unspecified.
func DecodeHelloBin(p []byte, h *HelloMsg) error {
	c := binCursor{p: p}
	h.Topology = c.str()
	h.N = c.int()
	h.M = c.int()
	h.Spouts = c.int()
	h.Token = c.str()
	flags := c.u8()
	if flags&^1 != 0 {
		// Unknown flag bits are rejected rather than ignored: every valid
		// payload has exactly one encoding, so re-encoding a decoded frame
		// must reproduce its bytes.
		c.bad = true
	}
	h.ReadOnly = flags&1 != 0
	return c.done()
}

// DecodeSolutionBin decodes a BinTypeSolution payload into m, reusing
// m.Assign's backing array. On error m's contents are unspecified.
func DecodeSolutionBin(p []byte, m *SolutionMsg) error {
	c := binCursor{p: p}
	m.Epoch = c.int()
	flags := c.u8()
	if flags&^3 != 0 {
		// Unknown flag bits are rejected rather than ignored: every valid
		// payload has exactly one encoding, so re-encoding a decoded frame
		// must reproduce its bytes.
		c.bad = true
	}
	m.Retry = flags&1 != 0
	m.Resumed = flags&2 != 0
	m.Assign = c.ints(m.Assign)
	m.Err = c.str()
	m.Token = c.str()
	return c.done()
}

// DecodeMeasurementBin decodes a BinTypeMeasurement payload into m,
// reusing m.Workload's backing array. On error m's contents are
// unspecified.
func DecodeMeasurementBin(p []byte, m *MeasurementMsg) error {
	c := binCursor{p: p}
	m.Epoch = c.int()
	m.AvgTupleTimeMS = math.Float64frombits(c.u64())
	m.Workload = c.f64s(m.Workload)
	m.Err = c.str()
	return c.done()
}
