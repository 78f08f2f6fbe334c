package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// WAL record framing: length-prefixed binary frames, back to back,
//
//	u32 LE payload length | u32 LE CRC-32C(payload) | payload
//
// The length says where the frame ends and the CRC (Castagnoli) is the
// integrity check; together they make every corruption mode detectable:
// a torn tail is shorter than its header promises, a partial or
// bit-flipped record fails its CRC (a flipped length moves the payload
// window, which fails it too), and trailing garbage fails one or the
// other. A frame longer than shipFrameMax is corruption by definition —
// the bound is checked before anything is sliced or allocated.
//
// The payload is positional and canonical, under the rules of
// core/binframe.go (one byte string per record value, so re-encoding a
// decoded frame reproduces its bytes):
//
//	type      1 byte (walEpoch | walEvict)
//	Token     uvarint length + raw bytes
//	Key       uvarint N, M, Spouts
//	Gen, Epoch, LearnEpoch, RNGDraws, NormN, TransSeq   one uvarint each
//	Assign    uvarint count+1 (0 = nil), then one uvarint per entry
//	NormMeanBits, NormVarBits, RewardBits               u64 LE each
//	Workload  uvarint count, then one u64 LE (IEEE-754 bits) per entry
//
// Ints travel as their two's-complement uint64, so every value round
// trips; uvarints must be minimal-length and every count is checked
// against the bytes remaining before anything is allocated.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walFrameHeader is the fixed frame prefix: payload length + CRC.
const walFrameHeader = 8

// Record-type bytes of the two Record.T values.
const (
	walEpoch = 1
	walEvict = 2
)

var errBadRecord = errors.New("durable: malformed record payload")

// appendRecord encodes r framed for the WAL onto buf and returns it. The
// WAL writer shares one core with the serving path, so this is append-only
// with the header patched once the payload is known — no reflection, no
// intermediate buffer.
func appendRecord(buf []byte, r *Record) ([]byte, error) {
	var typ byte
	switch r.T {
	case RecEpoch:
		typ = walEpoch
	case RecEvict:
		typ = walEvict
	default:
		return buf, fmt.Errorf("durable: unknown record type %q", r.T)
	}
	start := len(buf)
	b := append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ) // header patched below
	b = binary.AppendUvarint(b, uint64(len(r.Token)))
	b = append(b, r.Token...)
	for _, v := range [...]uint64{
		uint64(r.Key.N), uint64(r.Key.M), uint64(r.Key.Spouts),
		r.Gen, uint64(r.Epoch), uint64(r.LearnEpoch), r.RNGDraws, uint64(r.NormN), r.TransSeq,
	} {
		b = binary.AppendUvarint(b, v)
	}
	if r.Assign == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(r.Assign))+1)
		for _, v := range r.Assign {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, r.NormMeanBits)
	b = binary.LittleEndian.AppendUint64(b, r.NormVarBits)
	b = binary.LittleEndian.AppendUint64(b, r.RewardBits)
	b = binary.AppendUvarint(b, uint64(len(r.Workload)))
	for _, v := range r.Workload {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	payload := b[start+walFrameHeader:]
	if len(b)-start > shipFrameMax {
		return buf, fmt.Errorf("durable: record frame of %d bytes exceeds the %d-byte bound", len(b)-start, shipFrameMax)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b, nil
}

// walCursor consumes a payload in place; the first malformed read poisons
// it, so decodeRecord reads straight through and checks once at the end.
type walCursor struct {
	p   []byte
	bad bool
}

// uvarint reads one minimal-length uvarint. A padded encoding (trailing
// zero group) is rejected: every value has exactly one byte string.
func (c *walCursor) uvarint() uint64 {
	if !c.bad && len(c.p) > 0 && c.p[0] < 0x80 { // one byte: nearly every field
		v := c.p[0]
		c.p = c.p[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(c.p)
	if c.bad || n <= 0 || c.p[n-1] == 0 {
		c.bad = true
		return 0
	}
	c.p = c.p[n:]
	return v
}

func (c *walCursor) u64() uint64 {
	if c.bad || len(c.p) < 8 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.p)
	c.p = c.p[8:]
	return v
}

// count reads an element count and checks it against the bytes remaining
// (each element takes at least size bytes) before the caller allocates.
func (c *walCursor) count(size int) int {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.p)/size) {
		c.bad = true
		return 0
	}
	return int(n)
}

// decodeRecord parses one CRC-verified payload.
func decodeRecord(p []byte) (*Record, error) {
	rec := &Record{}
	switch {
	case len(p) > 0 && p[0] == walEpoch:
		rec.T = RecEpoch
	case len(p) > 0 && p[0] == walEvict:
		rec.T = RecEvict
	default:
		return nil, errBadRecord
	}
	c := walCursor{p: p[1:]}
	if n := c.count(1); n > 0 {
		rec.Token = string(c.p[:n])
		c.p = c.p[n:]
	}
	rec.Key.N = int(c.uvarint())
	rec.Key.M = int(c.uvarint())
	rec.Key.Spouts = int(c.uvarint())
	rec.Gen = c.uvarint()
	rec.Epoch = int(c.uvarint())
	rec.LearnEpoch = int(c.uvarint())
	rec.RNGDraws = c.uvarint()
	rec.NormN = int(c.uvarint())
	rec.TransSeq = c.uvarint()
	// The count travels +1 (0 = nil). Checking the +1 form against the
	// bytes left is exact enough: 25 bytes always follow the entries.
	if n := c.count(1); n > 0 {
		rec.Assign = make([]int, n-1)
		for i := range rec.Assign {
			rec.Assign[i] = int(c.uvarint())
		}
	}
	rec.NormMeanBits = c.u64()
	rec.NormVarBits = c.u64()
	rec.RewardBits = c.u64()
	if n := c.count(8); n > 0 {
		rec.Workload = make(F64s, n)
		for i := range rec.Workload {
			rec.Workload[i] = math.Float64frombits(c.u64())
		}
	}
	if c.bad || len(c.p) != 0 {
		return nil, errBadRecord // trailing bytes are as malformed as missing ones
	}
	return rec, nil
}

// frameSize returns the total size (header included) of the frame that
// starts data, or 0 when data is too short to hold it or the length field
// is out of bounds.
func frameSize(data []byte) int {
	if len(data) < walFrameHeader {
		return 0
	}
	n := int64(binary.LittleEndian.Uint32(data)) + walFrameHeader
	if n > shipFrameMax || n > int64(len(data)) {
		return 0
	}
	return int(n)
}

// scanWALBytes decodes framed records from data. It returns the decoded
// records, the byte offset of the end of the last intact record (the
// truncation point for reopening the segment), and whether anything after
// that offset was discarded (torn tail, CRC failure, or trailing
// garbage). Scanning stops at the first bad frame: ordering after a hole
// cannot be trusted, and in practice the only holes a crash produces are
// at the tail.
func scanWALBytes(data []byte) (recs []*Record, validLen int64, truncated bool) {
	off := 0
	for off < len(data) {
		n := frameSize(data[off:])
		if n == 0 {
			return recs, int64(off), true // torn tail or a garbage length
		}
		payload := data[off+walFrameHeader : off+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:]) {
			return recs, int64(off), true
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, int64(off), true
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, int64(off), false
}

// scanWALFile reads and decodes a whole segment file.
func scanWALFile(path string) (recs []*Record, validLen int64, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	recs, validLen, truncated = scanWALBytes(data)
	return recs, validLen, truncated, nil
}
