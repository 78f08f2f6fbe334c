package durable

import (
	"bytes"
	"sync/atomic"
	"testing"
)

type countingCounter struct{ n atomic.Int64 }

func (c *countingCounter) Add(n int64) { c.n.Add(n) }

// FuzzWALRecords fuzzes the WAL frame decoder the same way
// FuzzBinaryFrames fuzzes the binary wire decoder: arbitrary bytes must
// never panic, the reported truncation point must always sit at a frame
// boundary within the input, and — the frame encoding being canonical —
// every decoded prefix must re-encode to exactly the bytes it was decoded
// from.
func FuzzWALRecords(f *testing.F) {
	valid, err := appendRecord(nil, testRecord(3))
	if err != nil {
		f.Fatal(err)
	}
	two, _ := appendRecord(append([]byte(nil), valid...), testRecord(4))
	evict, _ := appendRecord(nil, &Record{T: RecEvict, Token: "tok-3", Key: SessionKey{N: 6, M: 3, Spouts: 2}, Gen: 1 << 33})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add([]byte(""))
	f.Add(valid)
	f.Add(two)
	f.Add(evict)
	f.Add(valid[:len(valid)/2])                              // torn tail
	f.Add(valid[:walFrameHeader-1])                          // torn header
	f.Add(append(append([]byte(nil), two...), "garbage"...)) // trailing junk
	f.Add(flipped)                                           // CRC mismatch
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})        // length beyond any input
	f.Add(make([]byte, 64))                                  // zero fill: empty payloads, CRC 0
	f.Add([]byte("00000000 {}\n"))                           // a JSON-era line
	f.Add(valid[walFrameHeader:])                            // bare payloads, for the decoder behind the CRC
	f.Add(evict[walFrameHeader:])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, truncated := scanWALBytes(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0,%d]", validLen, len(data))
		}
		if !truncated && validLen != int64(len(data)) {
			t.Fatalf("clean scan must consume everything: validLen %d of %d", validLen, len(data))
		}
		var re []byte
		for _, r := range recs {
			var err error
			re, err = appendRecord(re, r)
			if err != nil {
				t.Fatalf("decoded record failed to re-encode: %v", err)
			}
		}
		if !bytes.Equal(re, data[:validLen]) {
			t.Fatalf("decoded prefix re-encoded to different bytes:\n in  % x\n out % x", data[:validLen], re)
		}
		// A mutator cannot forge CRCs, so the scan above rarely gets past a
		// frame header: hand the same bytes to the payload decoder directly,
		// under the same canonical-bytes property.
		if rec, err := decodeRecord(data); err == nil {
			fr, err := appendRecord(nil, rec)
			if err != nil || !bytes.Equal(fr[walFrameHeader:], data) {
				t.Fatalf("payload % x decoded to %+v, which re-encodes to % x (err %v)", data, rec, fr, err)
			}
		}
	})
}
