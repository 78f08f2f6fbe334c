package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func testRecord(i int) *Record {
	return &Record{
		T:            RecEpoch,
		Token:        fmt.Sprintf("tok-%d", i),
		Key:          SessionKey{N: 6, M: 3, Spouts: 2},
		Gen:          uint64(i + 1),
		Epoch:        i,
		Assign:       []int{0, 1, 2, 0, 1, 2},
		LearnEpoch:   i,
		RNGDraws:     uint64(3 * i),
		NormMeanBits: math.Float64bits(-42.5 + float64(i)),
		NormVarBits:  math.Float64bits(1.25),
		NormN:        i,
		Workload:     F64s{101.25, 87.5},
		TransSeq:     uint64(i),
		RewardBits:   math.Float64bits(-1.5),
	}
}

func encodeAll(t *testing.T, recs ...*Record) []byte {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		var err error
		buf, err = appendRecord(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestWALRoundTrip: framed records decode back to deep-equal values —
// exact float bit patterns, the nil/empty Assign distinction, negative
// ints, hostile token bytes and both record types included — and the
// decoded records re-encode to the same bytes.
func TestWALRoundTrip(t *testing.T) {
	recs := []*Record{testRecord(0), testRecord(1), testRecord(2), testRecord(300), {T: RecEvict, Token: "tok-1", Gen: 9}}
	// Bit patterns that decimal formatting mangles or loses: -0, denormals,
	// and values with no short decimal form.
	recs[1].Workload = F64s{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Pi, 1.0 / 3.0, math.MaxFloat64}
	recs[2].Assign = []int{}
	recs[2].Token = "quo\"te\\ nl\n nul\x00 \xff\xfe"
	recs[3].Assign = []int{-1, 1 << 40}
	recs[3].Epoch, recs[3].NormN, recs[3].Key.N = -7, math.MinInt64, math.MaxInt64
	recs[3].Gen, recs[3].NormMeanBits = math.MaxUint64, math.Float64bits(math.NaN())
	recs[4].Assign = nil
	data := encodeAll(t, recs...)

	got, validLen, truncated := scanWALBytes(data)
	if truncated {
		t.Fatal("clean log reported a truncated tail")
	}
	if validLen != int64(len(data)) {
		t.Fatalf("validLen %d, want %d", validLen, len(data))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Fatalf("record %d did not round trip:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
	for i, v := range recs[1].Workload {
		if math.Float64bits(got[1].Workload[i]) != math.Float64bits(v) {
			t.Fatalf("float bit pattern %d did not survive: %x vs %x", i, math.Float64bits(got[1].Workload[i]), math.Float64bits(v))
		}
	}
	if re := encodeAll(t, got...); !bytes.Equal(re, data) {
		t.Fatal("decoded records did not re-encode to the bytes they were decoded from")
	}
	if _, err := appendRecord(nil, &Record{T: "bogus"}); err == nil {
		t.Fatal("a record type with no frame encoding was encoded")
	}
}

// TestWALTornTail: a log cut at every byte offset of its last frame —
// header included — (crash during append) loses exactly that frame; Open
// recovers the rest, physically truncates to the last intact frame, and
// appends continue from there.
func TestWALTornTail(t *testing.T) {
	const n = 4
	var recs []*Record
	for i := 0; i < n; i++ {
		recs = append(recs, testRecord(i))
	}
	full := encodeAll(t, recs...)
	intact := len(encodeAll(t, recs[:n-1]...))
	for cut := intact + 1; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lg, rec := openTest(t, dir)
		if !rec.Truncated || len(rec.Records) != n-1 {
			t.Fatalf("cut at %d: recovered %d records, truncated=%v; want %d, true", cut, len(rec.Records), rec.Truncated, n-1)
		}
		lg.Append(recs[n-1])
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(walPath(dir, 1)); err != nil || !bytes.Equal(got, full) {
			t.Fatalf("cut at %d: truncate + re-append did not restore the full log (err %v)", cut, err)
		}
	}
}

// TestWALCorruptionNeverDecodes: any flipped bit anywhere in a frame —
// length, CRC or payload — stops the scan at that frame; a partial
// overwrite can never replay as valid state, nor can anything behind it.
func TestWALCorruptionNeverDecodes(t *testing.T) {
	data := encodeAll(t, testRecord(0), testRecord(1), testRecord(2))
	one := len(encodeAll(t, testRecord(0)))
	two := len(encodeAll(t, testRecord(0), testRecord(1)))
	for off := one; off < two; off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			got, validLen, truncated := scanWALBytes(mut)
			if !truncated || len(got) != 1 || validLen != int64(one) {
				t.Fatalf("bit %d of byte %d flipped: got %d records, validLen %d, truncated=%v; want 1, %d, true",
					bit, off, len(got), validLen, truncated, one)
			}
		}
	}
}

// TestWALTrailingGarbage: arbitrary junk appended after valid records
// (a partially recycled block, an editor accident, a JSON-era line)
// truncates cleanly.
func TestWALTrailingGarbage(t *testing.T) {
	clean := encodeAll(t, testRecord(0), testRecord(1))
	payload := encodeAll(t, testRecord(2))[walFrameHeader:]
	zero := encodeAll(t, &Record{T: RecEvict})[walFrameHeader:] // type byte, then every uvarint a single 0x00
	padded := append([]byte{zero[0], 0x80, 0x00}, zero[2:]...)  // the same token length, one group too long
	if _, _, truncated := scanWALBytes(reframe(zero)); truncated {
		t.Fatal("the all-zero record itself must decode, or the padded case proves nothing")
	}
	for _, junk := range [][]byte{
		[]byte("garbage\n"),
		[]byte("00000000 {\"t\":\"epoch\"}\n"),
		{0xff, 0x00, 0x17},
		make([]byte, 64), // zero fill: an empty payload with a matching CRC of 0
		bytes.Repeat([]byte{'z'}, 4096),
		reframe(append(append([]byte(nil), payload...), 0)), // valid CRC, trailing payload byte
		reframe(append([]byte{7}, payload[1:]...)),          // valid CRC, unknown record type
		reframe(padded),                                     // valid CRC, non-minimal uvarint
	} {
		data := append(append([]byte(nil), clean...), junk...)
		got, validLen, truncated := scanWALBytes(data)
		if !truncated {
			t.Fatalf("junk %q not detected", junk[:min(8, len(junk))])
		}
		if len(got) != 2 || validLen != int64(len(clean)) {
			t.Fatalf("junk %q: got %d records, validLen %d; want 2, %d", junk[:min(8, len(junk))], len(got), validLen, len(clean))
		}
	}
}

// reframe wraps payload in a frame header with a correct length and CRC,
// so only the payload decoder stands between it and replay.
func reframe(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// TestWALHostileLength: a length field far beyond the input (or beyond
// the frame bound) is a clean truncation, decided before anything of that
// size is sliced or allocated; so is a count inside a well-framed payload.
func TestWALHostileLength(t *testing.T) {
	clean := encodeAll(t, testRecord(0))
	hugeCount := []byte{walEpoch, 0} // type, empty token, then 9 scalars
	hugeCount = append(hugeCount, make([]byte, 9)...)
	hugeCount = binary.AppendUvarint(hugeCount, 1<<40) // Assign count
	for _, tail := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3},
		binary.LittleEndian.AppendUint32(nil, shipFrameMax),
		binary.LittleEndian.AppendUint64(nil, 12), // 12 payload bytes promised, none present
		reframe(hugeCount),
	} {
		data := append(append([]byte(nil), clean...), tail...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, validLen, truncated := scanWALBytes(data)
		runtime.ReadMemStats(&after)
		if !truncated || len(got) != 1 || validLen != int64(len(clean)) {
			t.Fatalf("tail % x: got %d records, validLen %d, truncated=%v", tail[:8], len(got), validLen, truncated)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("tail % x: scan allocated %d bytes", tail[:8], grew)
		}
	}
}

// TestOldFormatSegmentRefused: a JSON-era wal-<seq>.log (or a segment of
// any other format version) makes Open and Recover fail with an error
// naming the file, and leaves its bytes alone — scanned as binary frames
// it would look like a torn tail at offset 0 and be truncated to nothing.
func TestOldFormatSegmentRefused(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "json-era", "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wal-1.log", "wal-2.v3"} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		// A current-format neighbour must not make the directory look fine.
		if err := os.WriteFile(walPath(dir, 3), encodeAll(t, testRecord(0)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, rerr := Recover(dir, LogConfig{})
		lg, _, oerr := Open(dir, LogConfig{})
		if oerr == nil {
			lg.Close()
		}
		for _, err := range []error{rerr, oerr} {
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(path)) {
				t.Fatalf("%s: got %v; want a refusal naming the file", name, err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("%s: refused segment was modified (err %v)", name, err)
		}
	}
}

// TestReadFrameChunkProperty: for random frame sizes and every chunk cap,
// each chunk readFrameChunk returns ends on a frame boundary and the
// chunks concatenate to the input.
func TestReadFrameChunkProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var data []byte
	ends := map[int64]bool{}
	for i := 0; i < 40; i++ {
		r := testRecord(i)
		r.Token = string(make([]byte, rng.Intn(40)))
		r.Workload = make(F64s, rng.Intn(30))
		data = append(data, encodeAll(t, r)...)
		ends[int64(len(data))] = true
	}
	path := filepath.Join(t.TempDir(), "seg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	limit := int64(len(data))
	for chunkMax := int64(1); chunkMax <= limit+1; chunkMax++ {
		var got []byte
		for off := int64(0); off < limit; {
			buf, err := readFrameChunk(f, off, limit, chunkMax)
			if err != nil {
				t.Fatalf("chunkMax %d @%d: %v", chunkMax, off, err)
			}
			off += int64(len(buf))
			if len(buf) == 0 || !ends[off] {
				t.Fatalf("chunkMax %d: chunk of %d bytes ends at %d, not a frame boundary", chunkMax, len(buf), off)
			}
			got = append(got, buf...)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("chunkMax %d: chunks do not concatenate to the input", chunkMax)
		}
	}
}
