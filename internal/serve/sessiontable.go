package serve

import (
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Session resumption (tentpole of the serving frontier): a scheduler whose
// connection dies — process restart, network partition, rolling deploy —
// used to come back as a brand-new session, losing its per-topology state
// (current solution, exploration schedule position, reward statistics,
// replay contributions). The sessionTable keeps that state server-side,
// keyed by an opaque token issued on the first hello; a reconnecting
// client presents the token in its next hello and continues where it left
// off. Detached state lives until a TTL sweep reclaims it.
//
// The table is sharded by token hash so steady-state serving — detach,
// kick polling, per-epoch bookkeeping — takes only one shard's lock and
// scales with the per-core accept sharding instead of funneling every
// session through a single mutex. Capacity stays a GLOBAL property (one
// atomic entry count, cross-shard eviction of the oldest detached entry),
// so sharding changes contention, never admission semantics.

var (
	// errTokenLive marks a hello presenting a token that is attached to a
	// live connection. The condition is transient (the old connection is
	// usually a half-dead socket about to be reaped), so it maps to a
	// retry reply rather than a hard rejection.
	errTokenLive = errors.New("token is attached to a live session")
	// errTableFull marks resumption-table exhaustion with every tracked
	// session live; also transient.
	errTableFull = errors.New("session table full")
)

// sessionState is one session's resumable state. While a connection is
// attached the owning goroutine accesses the mutable fields exclusively
// (the table hands a token's state to at most one live connection); the
// table itself only touches live/lastSeen under the owning shard's lock.
type sessionState struct {
	token string
	key   modelKey

	// mu guards the resumable fields below against the durability
	// snapshotter: the owning connection goroutine mutates them under mu
	// (two uncontended lock pairs per epoch) and the snapshot capture
	// reads them under mu, so a snapshot never observes a half-updated
	// epoch. The goroutine must never call table methods while holding
	// mu (lock order is shard.mu → st.mu).
	mu sync.Mutex
	// gen is the session table's monotone mutation counter value at this
	// session's last journaled mutation; WAL replay applies a record only
	// when its gen is newer than the state already restored.
	gen uint64
	// rngDraws counts Float64 draws consumed from rng since seeding, so
	// recovery can reseed from the token and fast-forward to the exact
	// stream position (rng itself is not serializable).
	rngDraws uint64

	live     bool
	lastSeen time.Time
	// kick, while live, unblocks the attached connection's I/O (the
	// owning goroutine then detaches). attach fires it when another
	// connection presents this token: a half-dead socket would otherwise
	// hold the session hostage until IdleTimeout, far longer than any
	// client's retry budget. The presenter is shed with a retry and wins
	// once the old connection has drained (connection takeover). kicked
	// is the sticky record of that request — the deadline kick alone can
	// be erased by the holder's own per-epoch deadline re-arming, so the
	// holder also polls kicked (under the shard lock) each epoch.
	kick   func()
	kicked bool

	// Per-topology serving state, restored on resumption.
	epoch  int   // last served decision epoch
	assign []int // current scheduling solution (the state encoding's X half)

	// Online-learning state (used when the daemon learns).
	learnEpoch int        // position in the ε-decay schedule
	rng        *rand.Rand // exploration RNG, seeded from the token
	norm       core.RewardNormalizer
	// prevState is shared, uncopied, with stored transitions (it is one's
	// NextState and becomes the next one's State): replace it, never write
	// through it.
	prevState  []float64 // s_{t−1}, the pending transition's state
	prevAssign []int     // a_{t−1}, the pending transition's action
	hasPrev    bool
	noise      []float64 // exploration-noise scratch
	noiseEpoch int       // epoch the exploration decision was drawn for
	noiseOn    bool      // that decision (shed resubmits must reuse it)
}

// sessionShard is one lock-striped partition of the token→state map.
type sessionShard struct {
	mu      sync.Mutex
	entries map[string]*sessionState
}

// sessionTable tracks resumable sessions by token, striped across
// power-of-two shards addressed by the token's FNV-1a hash.
type sessionTable struct {
	ttl  time.Duration
	max  int
	seed int64
	now  func() time.Time
	// onEvict runs — OUTSIDE every table lock — when a session's state is
	// dropped; the server uses it to drop the session's replay shard and
	// journal the eviction tombstone. gen is the eviction's mutation
	// number, captured under the shard lock at the moment of eviction, so
	// a session re-created under the same token between the eviction and
	// the callback always carries a newer generation than the tombstone.
	// Running outside the locks is what lets the tombstone append BLOCK on
	// a full WAL buffer (a dropped tombstone resurrects the session on
	// every future recovery): the durability writer's snapshot capture
	// takes the shard locks, so blocking inside them would deadlock.
	onEvict func(st *sessionState, gen uint64)

	// genCtr numbers session mutations for the durability journal; it
	// only ever grows (recovery fast-forwards it past everything on disk).
	genCtr atomic.Uint64

	shards []sessionShard
	mask   uint64
	// count is the global entry total (live + detached) across shards; a
	// fresh attach reserves its slot here before inserting, so MaxTracked
	// stays a hard cap without any cross-shard lock on the steady path.
	count atomic.Int64

	// evicted accumulates sessions dropped under a shard lock until the
	// evicting call flushes their callbacks after releasing it.
	evictMu sync.Mutex
	evicted []evictedSession
}

type evictedSession struct {
	st  *sessionState
	gen uint64
}

func newSessionTable(ttl time.Duration, max int, seed int64, now func() time.Time) *sessionTable {
	if now == nil {
		now = time.Now
	}
	nShards := 1
	for nShards < runtime.GOMAXPROCS(0) && nShards < 64 {
		nShards <<= 1
	}
	t := &sessionTable{ttl: ttl, max: max, seed: seed, now: now,
		shards: make([]sessionShard, nShards), mask: uint64(nShards - 1)}
	for i := range t.shards {
		t.shards[i].entries = map[string]*sessionState{}
	}
	return t
}

// shardFor returns the shard owning token.
func (t *sessionTable) shardFor(token string) *sessionShard {
	return &t.shards[hashToken(token)&t.mask]
}

// expired reports whether a detached entry has outlived the TTL; callers
// hold the entry's shard lock.
func (t *sessionTable) expired(st *sessionState, now time.Time) bool {
	return !st.live && t.ttl > 0 && now.Sub(st.lastSeen) > t.ttl
}

// attach binds a hello to session state: resuming the token's session if
// it is tracked, or creating fresh state (under the presented token, or a
// newly issued one) otherwise. A token whose state was TTL-evicted gets a
// fresh session rather than an error — the client's resume degenerates to
// a cold start, which is the correct fallback. kick is installed on the
// attached state so a later presenter of the same token can unblock this
// connection.
func (t *sessionTable) attach(token string, key modelKey, kick func()) (st *sessionState, resumed bool, err error) {
	st, resumed, err = t.doAttach(token, key, kick)
	t.flushEvicts()
	return st, resumed, err
}

func (t *sessionTable) doAttach(token string, key modelKey, kick func()) (st *sessionState, resumed bool, err error) {
	now := t.now()

	if token != "" {
		sh := t.shardFor(token)
		sh.mu.Lock()
		if st, ok := sh.entries[token]; ok {
			if t.expired(st, now) {
				t.evictEntry(sh, st) // fall through to a fresh session below
			} else {
				switch {
				case st.key != key:
					// Checked before the live branch: a presenter whose
					// takeover could never succeed must not get to kill a
					// healthy holder.
					sh.mu.Unlock()
					return nil, false, fmt.Errorf("token %s belongs to a %dx%d/%d session, hello declares %dx%d/%d",
						token, st.key.n, st.key.m, st.key.spouts, key.n, key.m, key.spouts)
				case st.live:
					// Connection takeover: kick the current holder (it is
					// usually a half-dead socket that would otherwise pin
					// the session until IdleTimeout) and shed the
					// presenter; its retry lands after the holder drains.
					st.kicked = true
					if st.kick != nil {
						st.kick()
					}
					sh.mu.Unlock()
					return nil, false, errTokenLive
				}
				st.live = true
				st.lastSeen = now
				st.kick = kick
				st.kicked = false
				sh.mu.Unlock()
				return st, true, nil
			}
		}
		sh.mu.Unlock()
	}

	// Fresh session. Reserve the slot in the global count first — capacity
	// is a whole-table property; the reservation makes it a hard cap even
	// though inserts race across shards.
	if t.count.Add(1) > int64(t.max) {
		if t.sweepNow(now) == 0 && !t.evictOldestDetached() {
			t.count.Add(-1)
			return nil, false, errTableFull
		}
	}

	minted := token == ""
	for {
		if minted {
			token = newToken()
		}
		sh := t.shardFor(token)
		sh.mu.Lock()
		if _, taken := sh.entries[token]; taken {
			sh.mu.Unlock()
			if minted {
				continue // astronomically unlikely collision; mint another
			}
			// A client-chosen token raced another connection's create
			// between our lookup and this insert; release the reserved
			// slot and restart — the retry resolves to resume or takeover.
			t.count.Add(-1)
			return t.doAttach(token, key, kick)
		}
		st = &sessionState{
			token:    token,
			key:      key,
			live:     true,
			lastSeen: now,
			kick:     kick,
			rng:      rand.New(rand.NewSource(t.seed ^ int64(hashToken(token)))),
		}
		sh.entries[token] = st
		sh.mu.Unlock()
		return st, false, nil
	}
}

// newToken returns an unguessable session token. Tokens gate access to
// another tenant's session state, so they must not be enumerable — a
// sequential scheme would let any client hijack a detached session by
// counting.
//
// Trust model: the wire protocol is unauthenticated (the paper's agent
// and scheduler share a deployment), so tokens protect cooperating
// tenants from accidents and enumeration, not from a hostile peer — a
// hostile peer on the same network could already open sessions and feed
// adversarial measurements into the shared model. Clients that choose
// their own tokens (deterministic harnesses, tests) opt out of the
// unguessability this function provides; production clients should send
// an empty token on first hello and keep the one the daemon issues.
func newToken() string {
	var b [12]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; refuse to fall
		// back to something guessable.
		panic(fmt.Sprintf("serve: session token entropy unavailable: %v", err))
	}
	return "s" + hex.EncodeToString(b[:])
}

// drawFloat draws one Float64 from the session's exploration RNG,
// counting the draw so crash recovery can reseed from the token and
// fast-forward the stream to the same position (rand.Rand state is not
// serializable; Float64 consumes exactly one source value per call).
// Callers hold st.mu.
func (st *sessionState) drawFloat() float64 {
	st.rngDraws++
	return st.rng.Float64()
}

// peek returns a copy of a tracked session's shape, current solution and
// epoch without attaching it — the warm start for read-only sessions,
// which must not take ownership of state the owning client could resume
// at any moment. Live and detached entries both peek fine (the copy is
// consistent under st.mu); an expired entry reads as absent.
func (t *sessionTable) peek(token string) (key modelKey, assign []int, epoch int, ok bool) {
	if token == "" {
		return key, nil, 0, false
	}
	sh := t.shardFor(token)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, found := sh.entries[token]
	if !found || t.expired(st, t.now()) {
		return key, nil, 0, false
	}
	st.mu.Lock()
	assign = append([]int(nil), st.assign...)
	epoch = st.epoch
	st.mu.Unlock()
	return st.key, assign, epoch, true
}

// detach releases a live session's state back to the table, starting its
// TTL clock.
func (t *sessionTable) detach(st *sessionState) {
	sh := t.shardFor(st.token)
	sh.mu.Lock()
	st.live = false
	st.kick = nil
	st.lastSeen = t.now()
	sh.mu.Unlock()
}

// isKicked reports whether a takeover presenter has requested this
// session's holder to stand down; the holder polls it once per epoch
// because its own deadline re-arming can erase the I/O kick.
func (t *sessionTable) isKicked(st *sessionState) bool {
	sh := t.shardFor(st.token)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return st.kicked
}

// sweep drops every expired detached session and returns how many went.
func (t *sessionTable) sweep() int {
	n := t.sweepNow(t.now())
	t.flushEvicts()
	return n
}

// sweepNow walks every shard (locking one at a time) evicting expired
// detached entries.
func (t *sessionTable) sweepNow(now time.Time) int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, st := range sh.entries {
			if t.expired(st, now) {
				t.evictEntry(sh, st)
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// evictOldestDetached frees one slot by dropping the detached entry with
// the oldest lastSeen anywhere in the table, reporting whether one went.
// The scan locks one shard at a time (never two — no ordering to
// deadlock on), so the winner can change state before the second lock;
// the evict re-verifies under its shard and rescans on interference.
func (t *sessionTable) evictOldestDetached() bool {
	for attempt := 0; attempt < 4; attempt++ {
		var oldest *sessionState
		for i := range t.shards {
			sh := &t.shards[i]
			sh.mu.Lock()
			for _, st := range sh.entries {
				if !st.live && (oldest == nil || st.lastSeen.Before(oldest.lastSeen)) {
					oldest = st
				}
			}
			sh.mu.Unlock()
		}
		if oldest == nil {
			return false
		}
		sh := t.shardFor(oldest.token)
		sh.mu.Lock()
		if cur, ok := sh.entries[oldest.token]; ok && cur == oldest && !cur.live {
			t.evictEntry(sh, cur)
			sh.mu.Unlock()
			return true
		}
		sh.mu.Unlock() // resumed or already evicted since the scan; rescan
	}
	return false
}

// evictEntry drops one entry; callers hold sh's lock (the shard owning
// st.token).
func (t *sessionTable) evictEntry(sh *sessionShard, st *sessionState) {
	delete(sh.entries, st.token)
	t.count.Add(-1)
	if t.onEvict != nil {
		gen := t.genCtr.Add(1)
		t.evictMu.Lock()
		t.evicted = append(t.evicted, evictedSession{st: st, gen: gen})
		t.evictMu.Unlock()
	}
}

// flushEvicts runs the deferred onEvict callbacks outside every table
// lock. Concurrent evictors may flush each other's entries; each callback
// still runs exactly once.
func (t *sessionTable) flushEvicts() {
	t.evictMu.Lock()
	evicted := t.evicted
	t.evicted = nil
	t.evictMu.Unlock()
	for _, e := range evicted {
		t.onEvict(e.st, e.gen)
	}
}

// reset drops every entry without eviction callbacks (replica wholesale
// replacement: the incoming snapshot supersedes all warm state).
func (t *sessionTable) reset() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		t.count.Add(-int64(len(sh.entries)))
		sh.entries = map[string]*sessionState{}
		sh.mu.Unlock()
	}
}

// len returns the number of tracked sessions (live + detached).
func (t *sessionTable) len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// hashToken is FNV-1a over the token, used both to pick the owning shard
// and to derive per-session RNG seeds deterministically from the token.
func hashToken(token string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(token))
	return h.Sum64()
}
