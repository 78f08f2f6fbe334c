package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"time"
)

// Segment shipping (leader side of replication). A follower connects over
// TCP, hellos with its mirror's durable position, and the leader streams
// everything after it: the newest snapshot when the follower is too far
// behind to resume (reset), then WAL segment bytes up to the flushed
// position, then the live tail as flushes land. Every shipped byte range
// starts and ends on a record-frame boundary (positions come from frame
// scans on both sides), so the follower CRC-verifies each frame exactly
// as crash recovery does.
//
// Wire protocol: NDJSON control frames, each optionally followed by
// exactly Len raw payload bytes.
//
//	follower → leader  {"t":"hello","gen":G,"snap":S,"wal":W,"off":O,"recs":R}
//	leader → follower  {"t":"gen","gen":G}            accepted; shipping begins
//	leader → follower  {"t":"err","msg":"..."}        refused (stale generation)
//	leader → follower  {"t":"snap","seq":S,"len":L,"reset":B,"lrecs":R} + L bytes
//	leader → follower  {"t":"seg","seq":S,"off":O,"len":L,"lrecs":R} + L bytes
//	leader → follower  {"t":"pos","wal":W,"off":O,"recs":R}   caught up / heartbeat
//	follower → leader  {"t":"ack","wal":W,"off":O,"recs":R}   applied through here
//
// lrecs is the leader's lifetime flushed record count at send time; the
// follower's lag in records is lrecs minus its own applied count.
//
// Generations guard against a resurrected stale leader: every shipping
// endpoint carries a generation number that increments at each
// promotion (persisted as a "repl-gen" file in the data dir). A follower
// that has tailed generation G refuses any leader announcing less than G,
// and a leader refuses a follower announcing more than its own — after a
// failover, the old leader coming back from the dead cannot rewind a
// follower that has moved on.
type shipFrame struct {
	T     string `json:"t"`
	Gen   uint64 `json:"gen,omitempty"`
	Snap  uint64 `json:"snap,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
	Wal   uint64 `json:"wal,omitempty"`
	Off   int64  `json:"off,omitempty"`
	Len   int64  `json:"len,omitempty"`
	Recs  uint64 `json:"recs,omitempty"`
	LRecs uint64 `json:"lrecs,omitempty"`
	Reset bool   `json:"reset,omitempty"`
	Msg   string `json:"msg,omitempty"`
}

// shipChunkMax caps one seg frame's payload; the live tail is shipped in
// at most this many bytes per frame so acks and position frames interleave
// with bulk catch-up traffic. It is a soft cap: chunks always end on a
// record-frame boundary, so a single frame larger than the cap ships
// whole (readFrameChunk) rather than torn — a mid-frame cut would make
// the follower drop the partial tail and reconnect, and a frame that
// never fits would livelock replication entirely.
const shipChunkMax = 1 << 20

// shipFrameMax is the hard bound on one seg frame: the most the follower
// will buffer for a single chunk, and therefore the largest record frame
// replication can carry. WAL records are session-sized (far below this);
// hitting the bound means a corrupt segment, not a big record.
const shipFrameMax = 64 << 20

// genFile is the per-data-dir replication generation marker.
const genFile = "repl-gen"

// ReadGen returns the data dir's persisted replication generation
// (0 when none has been recorded).
func ReadGen(dir string) uint64 {
	b, err := os.ReadFile(dirJoin(dir, genFile))
	if err != nil {
		return 0
	}
	g, _ := strconv.ParseUint(string(b), 10, 64)
	return g
}

// WriteGen persists the replication generation marker (atomic rename).
func WriteGen(dir string, gen uint64) error {
	tmp := dirJoin(dir, genFile+".tmp")
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(gen, 10)), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, dirJoin(dir, genFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

func dirJoin(dir, name string) string { return dir + string(os.PathSeparator) + name }

// ShipConfig configures a ShipServer.
type ShipConfig struct {
	Log *Log   // live log to ship from
	Gen uint64 // this leader's replication generation

	// HeartbeatEvery is the idle position-frame cadence (default 500ms);
	// it bounds how stale a caught-up follower's lag reading can get.
	HeartbeatEvery time.Duration

	Logf func(format string, args ...any)

	SegmentsShipped  Counter // seg frames sent
	SnapshotsShipped Counter // snap frames sent
}

// ShipServer streams a Log's snapshot + WAL to follower connections.
type ShipServer struct {
	cfg ShipConfig

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewShipServer returns a shipping server for cfg.Log.
func NewShipServer(cfg ShipConfig) *ShipServer {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &ShipServer{cfg: cfg, conns: map[net.Conn]struct{}{}}
}

// Serve accepts follower connections until the listener closes.
func (ss *ShipServer) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		ss.mu.Lock()
		if ss.closed {
			ss.mu.Unlock()
			conn.Close()
			return nil
		}
		ss.conns[conn] = struct{}{}
		ss.mu.Unlock()
		go func() {
			defer func() {
				ss.mu.Lock()
				delete(ss.conns, conn)
				ss.mu.Unlock()
				conn.Close()
			}()
			if err := ss.serveConn(conn); err != nil && err != io.EOF {
				ss.cfg.Logf("durable: ship %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Close drops every follower connection. The listener is the caller's to
// close (Serve returns when it does).
func (ss *ShipServer) Close() {
	ss.mu.Lock()
	ss.closed = true
	for c := range ss.conns {
		c.Close()
	}
	ss.mu.Unlock()
}

func writeFrame(bw *bufio.Writer, f *shipFrame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if _, err := bw.Write(b); err != nil {
		return err
	}
	return bw.WriteByte('\n')
}

// serveConn drives one follower: hello, position negotiation, then the
// ship loop. A second goroutine drains the follower's acks (their content
// is informational; draining keeps the connection from stalling).
func (ss *ShipServer) serveConn(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	line, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read hello: %w", err)
	}
	var hello shipFrame
	if err := json.Unmarshal(line, &hello); err != nil || hello.T != "hello" {
		return fmt.Errorf("bad hello %q", line)
	}
	if hello.Gen > ss.cfg.Gen {
		_ = writeFrame(bw, &shipFrame{T: "err", Msg: fmt.Sprintf("follower has seen generation %d, this leader is generation %d (stale leader)", hello.Gen, ss.cfg.Gen)})
		_ = bw.Flush() // best-effort refusal note; the follower is being dropped
		return fmt.Errorf("refused follower at generation %d > ours %d", hello.Gen, ss.cfg.Gen)
	}
	if err := writeFrame(bw, &shipFrame{T: "gen", Gen: ss.cfg.Gen}); err != nil {
		return err
	}

	// Acks are drained concurrently; the read side closing doubles as the
	// follower-gone signal (conn.Close unblocks the ship loop's writes).
	go func() {
		for {
			if _, err := br.ReadBytes('\n'); err != nil {
				conn.Close()
				return
			}
		}
	}()

	pos, err := ss.negotiate(bw, &hello)
	if err != nil {
		return err
	}
	return ss.shipLoop(conn, bw, pos)
}

// negotiate decides where shipping starts. The follower can resume from
// its position iff every byte after it is still on disk here: its segment
// must postdate the newest snapshot (older segments are deleted by
// rotation) and its offset must exist in that segment. Anything else gets
// a full reset from the newest snapshot.
func (ss *ShipServer) negotiate(bw *bufio.Writer, hello *shipFrame) (Position, error) {
	l := ss.cfg.Log
	flushed := l.FlushedPos()
	snapSeq := l.SnapSeq()

	if hello.Wal > snapSeq && hello.Wal <= flushed.Seg && hello.Off >= 0 {
		limit := flushed.Off
		ok := true
		if hello.Wal < flushed.Seg {
			fi, err := os.Stat(walPath(l.dir, hello.Wal))
			ok = err == nil
			if ok {
				limit = fi.Size()
			}
		}
		if ok && hello.Off <= limit {
			return Position{Seg: hello.Wal, Off: hello.Off, Recs: hello.Recs}, nil
		}
	}
	// Reset: ship the newest snapshot (when one exists) and restart the
	// follower at the segment after it.
	if snapSeq > 0 {
		if err := ss.shipSnapshot(bw, snapSeq, true, flushed.Recs); err != nil {
			return Position{}, err
		}
		snap, err := loadSnapshot(snapPath(l.dir, snapSeq))
		if err != nil {
			return Position{}, err
		}
		return Position{Seg: snapSeq + 1, Off: 0, Recs: snap.Recs}, nil
	}
	// Fresh leader, no snapshot yet: the follower starts from segment 1.
	return Position{Seg: snapSeq + 1, Off: 0, Recs: 0}, nil
}

func (ss *ShipServer) shipSnapshot(bw *bufio.Writer, seq uint64, reset bool, lrecs uint64) error {
	data, err := os.ReadFile(snapPath(ss.cfg.Log.dir, seq))
	if err != nil {
		return fmt.Errorf("snapshot snap-%d vanished mid-ship: %w", seq, err)
	}
	if err := writeFrame(bw, &shipFrame{T: "snap", Seq: seq, Len: int64(len(data)), Reset: reset, LRecs: lrecs}); err != nil {
		return err
	}
	if _, err := bw.Write(data); err != nil {
		return err
	}
	if ss.cfg.SnapshotsShipped != nil {
		ss.cfg.SnapshotsShipped.Add(1)
	}
	return nil
}

// readFrameChunk reads shippable bytes from f at [off, limit) and cuts
// the chunk on a record-frame boundary: at most chunkMax bytes normally,
// more only when a single frame is larger than the whole chunk. Both ends
// of the range are frame-aligned by construction (off is a previous cut or
// a hello position, limit is a flushed position or a sealed segment's
// size, all from frame scans), so an uncapped read needs no alignment; a
// capped read is aligned down by walking the length prefixes from off.
func readFrameChunk(f *os.File, off, limit, chunkMax int64) ([]byte, error) {
	n := min(limit-off, max(chunkMax, walFrameHeader)) // always see the first header
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf); err != nil {
		return nil, err
	}
	if off+n == limit {
		return buf, nil
	}
	end := 0
	for fl := frameSize(buf); fl > 0; fl = frameSize(buf[end:]) {
		end += fl
	}
	if end > 0 {
		return buf[:end], nil
	}
	// One frame spans the whole chunk; its header says where it ends. Read
	// to there so the follower always receives whole frames — a partial
	// frame would be dropped as torn and the connection cycled without
	// ever advancing.
	fl := int64(binary.LittleEndian.Uint32(buf)) + walFrameHeader
	if fl > shipFrameMax || fl > limit-off {
		return nil, fmt.Errorf("frame header claims %d bytes (bound %d, %d left in the segment)", fl, int64(shipFrameMax), limit-off)
	}
	buf = append(buf, make([]byte, fl-n)...)
	if _, err := io.ReadFull(io.NewSectionReader(f, off+n, fl-n), buf[n:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// shipLoop streams from pos forever: drain to the flushed position, send
// a pos frame, wait for the next flush (or heartbeat), repeat. Returns on
// connection error (follower gone) or log close.
func (ss *ShipServer) shipLoop(conn net.Conn, bw *bufio.Writer, pos Position) error {
	l := ss.cfg.Log
	wake, cancel := l.Watch()
	defer cancel()
	hb := time.NewTicker(ss.cfg.HeartbeatEvery)
	defer hb.Stop()

	// f is the open handle on the segment currently being shipped. Keeping
	// it open across rotations is what makes shipping safe against
	// retention deletes: on Linux an open deleted file stays readable.
	var f *os.File
	var fSeq uint64
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	for {
		flushed := l.FlushedPos()
		for pos.Seg < flushed.Seg || (pos.Seg == flushed.Seg && pos.Off < flushed.Off) {
			if f == nil || fSeq != pos.Seg {
				if f != nil {
					f.Close()
					f = nil
				}
				nf, err := os.Open(walPath(l.dir, pos.Seg))
				if err != nil {
					// Segment deleted before we opened it (the follower
					// lagged past the retention window): restart it from
					// the newest snapshot.
					ss.cfg.Logf("durable: ship %s: wal-%d gone, resetting follower from snapshot", conn.RemoteAddr(), pos.Seg)
					np, nerr := ss.negotiate(bw, &shipFrame{T: "hello"})
					if nerr != nil {
						return nerr
					}
					pos = np
					continue
				}
				f, fSeq = nf, pos.Seg
			}
			// Shippable bytes: the flushed offset on the live segment, the
			// final size (fstat — the path may already be rotated away, but
			// the open handle keeps the inode readable) on sealed ones.
			limit := flushed.Off
			if pos.Seg < flushed.Seg {
				fi, err := f.Stat()
				if err != nil {
					return fmt.Errorf("stat wal-%d: %w", pos.Seg, err)
				}
				limit = fi.Size()
			}
			if pos.Off < limit {
				buf, err := readFrameChunk(f, pos.Off, limit, shipChunkMax)
				if err != nil {
					return fmt.Errorf("read wal-%d @%d: %w", pos.Seg, pos.Off, err)
				}
				if err := writeFrame(bw, &shipFrame{T: "seg", Seq: pos.Seg, Off: pos.Off, Len: int64(len(buf)), LRecs: flushed.Recs}); err != nil {
					return err
				}
				if _, err := bw.Write(buf); err != nil {
					return err
				}
				if ss.cfg.SegmentsShipped != nil {
					ss.cfg.SegmentsShipped.Add(1)
				}
				pos.Off += int64(len(buf))
				continue
			}
			// Segment drained and the leader has moved past it. If the
			// newest snapshot covers it, ship the snapshot as a compaction
			// marker (the follower mirrors it and deletes its own old
			// segments); either way advance to the next segment.
			if snapSeq := l.SnapSeq(); snapSeq == pos.Seg {
				if err := ss.shipSnapshot(bw, snapSeq, false, flushed.Recs); err != nil {
					return err
				}
			}
			f.Close()
			f, fSeq = nil, 0
			pos = Position{Seg: pos.Seg + 1, Off: 0}
		}
		if err := writeFrame(bw, &shipFrame{T: "pos", Wal: pos.Seg, Off: pos.Off, Recs: flushed.Recs}); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		select {
		case <-wake:
		case <-hb.C:
		case <-l.Done():
			return fmt.Errorf("log closed")
		}
	}
}
