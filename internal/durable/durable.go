// Package durable is the crash-safe persistence layer for the serving
// daemon: an append-only write-ahead log of CRC-framed binary records —
// session lifecycle events and distilled transitions — periodically
// compacted into an atomic snapshot of the full serving state (session
// table, per-model replay shards, learned weights). Recovery replays the
// WAL over the newest snapshot, so a restarted daemon accepts the
// resumption tokens it issued before the crash and keeps the weights it
// learned.
//
// Layout of a data directory:
//
//	snap-<seq>.json   newest complete snapshot (atomic tmp+rename)
//	wal-<seq>.v2      the WAL segment opened after snap-<seq-1>
//
// A segment is a sequence of frames, "u32 payload length | u32 CRC-32C |
// payload" (wal.go has the payload layout); its format version is the file
// extension, and a segment of any other version — the JSON-line
// wal-<seq>.log this format replaced included — is refused at Open with
// an error naming the file, never scanned. The framing is what recovery
// trusts: a torn tail (power cut mid-append), a partial record, or
// trailing garbage comes up short of its length or fails its CRC, and
// truncates the log at the last intact record instead of poisoning the
// replay. Decoding costs about as much as reading the bytes, which is
// what bounds the time a restarted daemon — or a follower catching up
// over the same frames — spends not serving.
// Records carry full per-session state (not deltas) plus monotone
// generation / write-sequence numbers, so replaying a record the snapshot
// already covers is a no-op — the property that makes the snapshot cut
// safe to take concurrently with appends.
//
// All appends go through a buffered asynchronous writer (the daemon's
// batch loop and trainer never block on fsync); the fsync interval bounds
// how much acknowledged state a crash can lose. Snapshots are serialized
// through the same writer, so a snapshot always sits at a record boundary.
package durable

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/rl"
)

// SnapshotVersion is the on-disk snapshot format version. Loading any
// other version is a hard, explicit error: silently misreading persisted
// learning state would be far worse than refusing to start.
//
// Version history:
//
//	1  PR 5: sessions, replay shards, weight blobs.
//	2  PR 6: + per-model Adam optimizer moments (a v1 reader would
//	   silently reset every trainer's moment estimates) and the lifetime
//	   record count at the snapshot cut (replication lag accounting).
const SnapshotVersion = 2

// SessionKey is a model identity — the topology shape sessions of that
// model share.
type SessionKey struct {
	N      int `json:"n"`
	M      int `json:"m"`
	Spouts int `json:"s"`
}

func (k SessionKey) String() string { return fmt.Sprintf("%dx%d/%d", k.N, k.M, k.Spouts) }

// F64s is a []float64 that serializes, in the JSON snapshot, as base64 of
// the raw little-endian IEEE-754 bits instead of decimal numbers. Two
// reasons: exactness is structural (every bit pattern round-trips, so
// recovered state is bitwise state, no shortest-float reasoning needed),
// and encoding cost — a snapshot is mostly float vectors, and it is
// written on the core the serving path is using. (WAL frames carry the
// same bits raw.)
type F64s []float64

// MarshalJSON implements json.Marshaler.
func (f F64s) MarshalJSON() ([]byte, error) {
	raw := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	out := make([]byte, 2+base64.StdEncoding.EncodedLen(len(raw)))
	out[0] = '"'
	base64.StdEncoding.Encode(out[1:], raw)
	out[len(out)-1] = '"'
	return out, nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F64s) UnmarshalJSON(data []byte) error {
	var raw []byte
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if len(raw)%8 != 0 {
		return fmt.Errorf("durable: float vector has %d bytes, not a multiple of 8", len(raw))
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	*f = out
	return nil
}

// TransitionRec is one distilled (s, a, r, s′) transition as journaled
// and snapshotted.
type TransitionRec struct {
	S  F64s    `json:"s"`
	A  F64s    `json:"a"`
	R  float64 `json:"r"`
	NS F64s    `json:"ns"`
}

// FromTransition converts an rl.Transition, sharing its backing arrays
// (stored transitions are immutable).
func FromTransition(t rl.Transition) TransitionRec {
	return TransitionRec{S: t.State, A: t.Action, R: t.Reward, NS: t.NextState}
}

// ToTransition converts back to the rl form, sharing backing arrays.
func (t TransitionRec) ToTransition() rl.Transition {
	return rl.Transition{State: t.S, Action: t.A, Reward: t.R, NextState: t.NS}
}

// Record types.
const (
	// RecEpoch carries one session's resumable state after a served
	// decision epoch. The heavy vectors are deliberately NOT journaled:
	// the state encoding is a pure function of the previous epoch's
	// solution and this epoch's workload, and the distilled transition's
	// vectors are the previous and current state encodings — so the
	// record carries only the scalars, the solution, the raw workload and
	// the normalized reward, and recovery re-derives the rest by running
	// the same encoding the live path ran. That cuts the per-epoch WAL
	// cost by ~8× (the difference between ~6% and ~40% serving overhead
	// on one core) without losing a bit: the derivation is exactly the
	// live computation, so recovered state is still bitwise.
	RecEpoch = "epoch"
	// RecEvict marks a session's state dropped from the table (TTL sweep
	// or capacity eviction), so recovery does not resurrect it.
	RecEvict = "evict"
)

// Record is one WAL entry (wal.go encodes it).
type Record struct {
	T     string // RecEpoch or RecEvict
	Token string
	Key   SessionKey
	// Gen is the session table's monotone mutation counter at the time of
	// this record. Replay applies a record only when it is newer than the
	// state already restored (from the snapshot or an earlier record);
	// evictions likewise only drop state older than themselves, so an
	// evict must never kill a later re-creation under the same token.
	Gen uint64

	// Per-session resumable state (RecEpoch). Scalar floats travel as
	// IEEE-754 bit patterns (math.Float64bits), so every bit pattern —
	// including non-finite ones a hostile client might provoke — round
	// trips. A nil Assign and an empty one are distinct on disk.
	Epoch        int
	Assign       []int
	LearnEpoch   int
	RNGDraws     uint64
	NormMeanBits uint64
	NormVarBits  uint64
	NormN        int

	// Workload is the epoch's measured spout rates (learning mode only):
	// together with the previous record's Assign it re-derives the state
	// encoding s_t that the live path stored as the pending transition.
	// An empty Workload decodes as nil.
	Workload F64s
	// TransSeq, when non-zero, says this epoch distilled a transition
	// into the session's replay shard (its write sequence, for deduping
	// against the snapshot), with RewardBits as the stored normalized
	// reward; the transition's state/action vectors are re-derived from
	// the record chain.
	TransSeq   uint64
	RewardBits uint64
}

// SessionSnap is one session's state inside a snapshot — the same fields
// an epoch record carries.
type SessionSnap struct {
	Token      string     `json:"tok"`
	Key        SessionKey `json:"k"`
	Gen        uint64     `json:"g"`
	Epoch      int        `json:"e"`
	Assign     []int      `json:"a"`
	LearnEpoch int        `json:"le,omitempty"`
	RNGDraws   uint64     `json:"rd,omitempty"`
	NormMean   float64    `json:"nm,omitempty"`
	NormVar    float64    `json:"nv,omitempty"`
	NormN      int        `json:"nn,omitempty"`
	PrevState  F64s       `json:"ps,omitempty"`
	PrevAssign []int      `json:"pa,omitempty"`
	HasPrev    bool       `json:"hp,omitempty"`
}

// ShardSnap is one replay shard: transitions oldest→newest plus the
// shard's write sequence.
type ShardSnap struct {
	Token string          `json:"tok"`
	Added uint64          `json:"added"`
	Trans []TransitionRec `json:"trans"`
}

// OptimSnap is one Adam optimizer's persisted trajectory: the step
// counter and the per-layer moment estimates, as F64s so every bit
// pattern round-trips. An absent OptimSnap (or one with T=0 and no
// moments) restores the "never stepped" state.
type OptimSnap struct {
	T  int    `json:"t"`
	MW []F64s `json:"mw,omitempty"`
	VW []F64s `json:"vw,omitempty"`
	MB []F64s `json:"mb,omitempty"`
	VB []F64s `json:"vb,omitempty"`
}

// ModelSnap is one learning model's state: the four network weight blobs
// (nn binary format), their checksums (verified on load — a snapshot
// whose weights do not hash to what was recorded is corrupt), the update
// count, the actor/critic optimizer moments, and the replay shards in
// sorted-token order.
type ModelSnap struct {
	Key       SessionKey  `json:"k"`
	Actor     []byte      `json:"actor"`
	Critic    []byte      `json:"critic"`
	ActorT    []byte      `json:"actor_t,omitempty"`
	CriticT   []byte      `json:"critic_t,omitempty"`
	ActorSum  uint64      `json:"actor_sum"`
	CriticSum uint64      `json:"critic_sum"`
	Updates   int         `json:"updates"`
	ActorOpt  *OptimSnap  `json:"actor_opt,omitempty"`
	CriticOpt *OptimSnap  `json:"critic_opt,omitempty"`
	Shards    []ShardSnap `json:"shards"`
}

// Snapshot is the full compacted serving state at one WAL cut.
type Snapshot struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	// Seed is the serving seed the state was generated under. Session
	// exploration RNGs are derived from it, so recovering under a
	// different seed would silently change every recovered session's
	// exploration stream — refused instead.
	Seed    int64  `json:"seed"`
	NextGen uint64 `json:"next_gen"`
	// Recs is the lifetime count of WAL records ever written to this data
	// directory at the snapshot cut (records in segments the snapshot
	// supersedes included). It survives restarts — Open rebases its
	// counter on it — and is the unit the replication protocol measures
	// follower lag in.
	Recs     uint64        `json:"recs,omitempty"`
	Sessions []SessionSnap `json:"sessions"`
	Models   []ModelSnap   `json:"models"`
}

// Counter is the metric hook the log increments (wal_records, wal_bytes,
// wal_dropped, snapshots); the serving daemon passes its registry
// counters. A nil Counter field is simply not counted.
type Counter interface{ Add(n int64) }

// Gauge is the settable metric hook for instantaneous values (the
// replication layer's follower lag). A nil Gauge is simply not set.
type Gauge interface{ Set(v int64) }

// Metrics collects the log's counter hooks.
type Metrics struct {
	Records   Counter // records appended
	Bytes     Counter // bytes appended
	Dropped   Counter // records dropped because the async buffer was full
	Snapshots Counter // snapshots written
}

func (m Metrics) add(c Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}
