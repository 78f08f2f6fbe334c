package serve

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/durable"
	"repro/internal/nn"
	"repro/internal/rl"
)

// Durability integration (tentpole of the serving-persistence frontier):
// with Config.DataDir set, every completed decision epoch journals the
// session's full resumable state (and the transition it distilled) to the
// append-only CRC-framed WAL of internal/durable, evictions journal their
// tombstones, and the WAL is periodically compacted into an atomic
// snapshot of the session table, the per-model replay shards, and the
// learned weights. On the next start, Serve replays WAL-over-snapshot
// before accepting connections, so a daemon killed mid-run comes back
// accepting the resumption tokens it issued before dying, with its
// replay buffer intact and its weights as of the last snapshot.
//
// Journal writes are asynchronous (durable.Log.Append never blocks) and
// every record is a full-state upsert guarded by a monotone generation
// number, so replaying records the snapshot already covers is a no-op —
// the property that lets snapshots cut the WAL without pausing sessions.
//
// What recovery restores bitwise: session epoch/solution, ε-schedule
// position and exploration-RNG stream position (reseeded from the token
// and fast-forwarded by the journaled draw count), reward-normalizer
// statistics, the pending transition, the replay shards in their exact
// contents and order, and (since snapshot v2) the trainers' Adam moment
// estimates and step counters — a recovered or promoted node resumes the
// exact optimizer trajectory, not a re-warmed one. The only thing that
// restarts cold, by design, is the trainer's sampling RNG (reseeded
// deterministically from the snapshot sequence; rand.Rand positions are
// not serializable) — so recovered state is deterministic given the data
// dir, which is what the golden durability harness asserts.

// openLog opens Config.DataDir with the server's metric hooks wired in.
// Shared by the leader's startup path and a replica's promotion (which
// discards the Recovered value — its warm state already matches the
// mirror byte for byte).
func (s *Server) openLog() (*durable.Log, *durable.Recovered, error) {
	return durable.Open(s.cfg.DataDir, durable.LogConfig{
		FsyncInterval: s.cfg.FsyncInterval,
		Buffer:        s.cfg.WALBuffer,
		Metrics: durable.Metrics{
			Records:   s.reg.Counter("serve_wal_records_total"),
			Bytes:     s.reg.Counter("serve_wal_bytes_total"),
			Dropped:   s.reg.Counter("serve_wal_dropped_total"),
			Snapshots: s.reg.Counter("serve_snapshots_total"),
		},
		Logf: log.Printf,
	})
}

// openDurable opens Config.DataDir, replays its contents into the
// server, and activates the journaling hooks. Called by Serve before any
// model batch loop starts.
func (s *Server) openDurable() error {
	// The recovery clock covers everything a client waits for between exec
	// and the first accepted hello: the directory scan and record decode
	// inside Open, then the replay.
	start := time.Now()
	lg, recovered, err := s.openLog()
	if err != nil {
		return err
	}
	scan := time.Since(start)
	nModels, err := s.recoverDurable(recovered)
	if err != nil {
		_ = lg.Close() // recovery failure is the error that matters
		return err
	}
	elapsed := time.Since(start)
	s.mRecoveryMS.Set(elapsed.Milliseconds())
	s.mRecSessions.Set(int64(s.sessions.len()))
	s.mRecModels.Set(int64(nModels))
	// Hooks go live only now: the recovery paths above write state
	// directly and must not journal their own replay.
	s.dur = lg
	if recovered.Snapshot != nil || len(recovered.Records) > 0 {
		log.Printf("serve: recovered %d sessions, %d models, %d WAL records from %s in %v (scan %v, apply %v)",
			s.sessions.len(), nModels, len(recovered.Records), s.cfg.DataDir, elapsed.Round(time.Millisecond),
			scan.Round(time.Millisecond), (elapsed - scan).Round(time.Millisecond))
	}
	return nil
}

// SnapshotNow compacts the WAL into a fresh atomic snapshot of the
// current serving state. The periodic loop calls it on SnapshotEvery;
// deterministic harnesses call it at explicit barriers.
func (s *Server) SnapshotNow() error {
	if s.dur == nil {
		return fmt.Errorf("serve: durability not enabled (no DataDir)")
	}
	return s.dur.Snapshot(s.captureSnapshot)
}

// recoverDurable applies a recovered snapshot and WAL tail to the (not
// yet serving) server, returning the number of models restored.
func (s *Server) recoverDurable(rec *durable.Recovered) (int, error) {
	maxGen := uint64(0)
	nModels := 0
	if snap := rec.Snapshot; snap != nil {
		if snap.Seed != s.cfg.Seed {
			return 0, fmt.Errorf("serve: %s was written under seed %d but the daemon is running seed %d; session exploration streams are seed-derived, refusing to mix them",
				s.cfg.DataDir, snap.Seed, s.cfg.Seed)
		}
		maxGen = snap.NextGen
		for i := range snap.Models {
			if err := s.restoreModel(&snap.Models[i], snap.Seq); err != nil {
				return 0, fmt.Errorf("serve: recover model %s: %w", snap.Models[i].Key, err)
			}
			nModels++
		}
		for i := range snap.Sessions {
			ss := &snap.Sessions[i]
			if s.validShape(ss.Key.N, ss.Key.M, ss.Key.Spouts) != nil {
				continue // shape limits tightened since the snapshot
			}
			s.sessions.applyRecovered(ss)
			if ss.Gen > maxGen {
				maxGen = ss.Gen
			}
		}
	}
	for _, r := range rec.Records {
		s.applyRecord(r)
		if r.Gen > maxGen {
			maxGen = r.Gen
		}
	}
	s.sessions.genCtr.Store(maxGen)
	return nModels, nil
}

// restoreModel reinstates one model from its snapshot: serving weights
// (checksum-verified — weights that do not hash to what the snapshot
// recorded are corruption, and serving them silently would be worse than
// refusing to start), and when learning, the trainer's networks, update
// count, deterministically reseeded sampling RNG, and replay shards.
func (s *Server) restoreModel(ms *durable.ModelSnap, snapSeq uint64) error {
	key := modelKey{ms.Key.N, ms.Key.M, ms.Key.Spouts}
	if err := s.validShape(key.n, key.m, key.spouts); err != nil {
		return err
	}
	mdl := s.model(key)
	actor, err := unmarshalNet(ms.Actor, ms.ActorSum, "actor")
	if err != nil {
		return err
	}
	critic, err := unmarshalNet(ms.Critic, ms.CriticSum, "critic")
	if err != nil {
		return err
	}
	s.mu.Lock()
	running := mdl.running
	s.mu.Unlock()
	if !running {
		// No batch loop yet (startup recovery, or a follower warming from
		// its mirror before the loops start): install directly.
		if err := mdl.pol.SetNetworks(actor, critic); err != nil {
			return err
		}
	} else if !s.cfg.Learn {
		// A running frozen loop (follower reads) owns the policy; hand the
		// weights over through the publication channel instead of racing
		// it. This path runs on the tailer goroutine — the follower's
		// single publisher, so draining our own stale pending pair cannot
		// race another producer. (The learning case publishes through the
		// trainer ring below, after the learner nets are restored.)
		select {
		case <-mdl.toServe:
		default:
		}
		mdl.toServe <- &netPair{actor: actor, critic: critic}
	}
	if !s.cfg.Learn {
		s.recordSnapSums(key, ms.ActorSum, ms.CriticSum)
		return nil
	}
	if err := mdl.ensureLearner(); err != nil {
		return err
	}
	l := mdl.learner
	// ensureLearner clones the serving weights only when it creates the
	// learner. A replica applying an in-stream snapshot marker already
	// built the learner cold (epoch records precede the marker), so the
	// trainer's own networks are restored explicitly — otherwise a
	// promoted follower would keep training from initialization while
	// serving the leader's weights.
	la, _, lc, _ := l.ac.Networks()
	if err := la.Restore(actor.Snapshot(nil)); err != nil {
		return fmt.Errorf("learner actor: %w", err)
	}
	if err := lc.Restore(critic.Snapshot(nil)); err != nil {
		return fmt.Errorf("learner critic: %w", err)
	}
	// Targets come from the snapshot when present (checksums cover the
	// main networks; the targets trail them by construction).
	if len(ms.ActorT) > 0 && len(ms.CriticT) > 0 {
		at, err := unmarshalNet(ms.ActorT, 0, "actor target")
		if err != nil {
			return err
		}
		ct, err := unmarshalNet(ms.CriticT, 0, "critic target")
		if err != nil {
			return err
		}
		_, lat, _, lct := l.ac.Networks()
		if err := lat.Restore(at.Snapshot(nil)); err != nil {
			return fmt.Errorf("actor target: %w", err)
		}
		if err := lct.Restore(ct.Snapshot(nil)); err != nil {
			return fmt.Errorf("critic target: %w", err)
		}
	}
	l.updates = ms.Updates
	actorNet, _, criticNet, _ := l.ac.Networks()
	actorOpt, criticOpt := l.ac.Optimizers()
	if err := actorOpt.SetState(optimState(ms.ActorOpt), actorNet); err != nil {
		return fmt.Errorf("actor optimizer: %w", err)
	}
	if err := criticOpt.SetState(optimState(ms.CriticOpt), criticNet); err != nil {
		return fmt.Errorf("critic optimizer: %w", err)
	}
	l.reseedForRecovery(snapSeq)
	shards := make([]rl.ShardExport, len(ms.Shards))
	for i, sh := range ms.Shards {
		trans := make([]rl.Transition, len(sh.Trans))
		for j, t := range sh.Trans {
			trans[j] = t.ToTransition()
		}
		shards[i] = rl.ShardExport{Key: sh.Token, Added: sh.Added, Trans: trans}
	}
	l.replay.Import(shards)
	l.mReplay.Set(int64(l.replay.Len()))
	if running {
		// Publish the restored weights to the running loop through the
		// trainer's ring (bitwise the snapshot's weights: Snapshot/Restore
		// round-trips exactly). No trainer runs concurrently on a follower
		// — goLoops are leader-side — so the tailer is still the only
		// publisher.
		l.mu.Lock()
		l.publishLocked()
		l.mu.Unlock()
	}
	s.recordSnapSums(key, ms.ActorSum, ms.CriticSum)
	return nil
}

// recordSnapSums notes the checksums of the snapshot state this node last
// applied for one model (follower resync, restart recovery). The leader
// side records in captureSnapshot; /checksums exposes both.
func (s *Server) recordSnapSums(key modelKey, actorSum, criticSum uint64) {
	s.mu.Lock()
	s.snapSums[fmt.Sprintf("%dx%d/%d", key.n, key.m, key.spouts)] = [2]uint64{actorSum, criticSum}
	s.mu.Unlock()
}

// unmarshalNet decodes a weight blob and, when wantSum is non-zero,
// verifies its checksum.
func unmarshalNet(blob []byte, wantSum uint64, what string) (*nn.Network, error) {
	net := &nn.Network{}
	if err := net.UnmarshalBinary(blob); err != nil {
		return nil, fmt.Errorf("%s weights: %w", what, err)
	}
	if wantSum != 0 {
		if got := net.Checksum(); got != wantSum {
			return nil, fmt.Errorf("%s weights: checksum %016x does not match the snapshot's recorded %016x (corrupt snapshot)", what, got, wantSum)
		}
	}
	return net, nil
}

// applyRecord replays one WAL record over the restored state. Epoch
// records are upserts applied only when newer (generation guard) than
// what the snapshot or an earlier record already restored; their
// transitions are deduped independently against the replay shard's write
// sequence. Evict tombstones drop only state older than themselves.
func (s *Server) applyRecord(r *durable.Record) {
	if s.validShape(r.Key.N, r.Key.M, r.Key.Spouts) != nil {
		return
	}
	switch r.T {
	case durable.RecEpoch:
		s.applyEpochRecord(r)
	case durable.RecEvict:
		s.applyEvict(r)
	}
}

// applyEpochRecord replays one completed epoch. The record carries only
// scalars, the solution and the raw workload; the state encoding and the
// transition vectors are re-derived here by running exactly the
// computation the live path ran:
//
//	s_t               = Codec.Encode(solution of epoch t−1, workload_t)
//	transition at t   = (s_{t−1} [the pending prevState], the one-hot of
//	                     the pending prevAssign, journaled reward, s_t)
//
// The derivation needs the record chain to be contiguous (the previous
// epoch's solution is the session's current assign). A gap — records
// dropped under WAL backpressure, or a truncated segment boundary —
// degrades exactly like the live path degrades on a lost measurement:
// the pending transition is dropped, scalars still restore, and the
// chain re-anchors on the next contiguous record.
func (s *Server) applyEpochRecord(r *durable.Record) {
	key := modelKey{r.Key.N, r.Key.M, r.Key.Spouts}
	t := s.sessions
	sh := t.shardFor(r.Token)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.entries[r.Token]
	if ok && st.gen >= r.Gen {
		return // snapshot or an earlier record already restored newer state
	}
	if !ok {
		st = &sessionState{
			token: r.Token,
			key:   key,
			rng:   rand.New(rand.NewSource(t.seed ^ int64(hashToken(r.Token)))),
		}
		sh.entries[r.Token] = st
		t.count.Add(1)
	}

	if s.cfg.Learn && len(r.Workload) > 0 {
		// prevAssign/prevState update mirrors the live epoch tail; the
		// old solution (what the workload was measured under) is the
		// session's pre-apply assign when the chain is contiguous, or the
		// cold-start round-robin for a session's very first epoch.
		var oldAssign []int
		switch {
		case ok && st.epoch == r.Epoch-1 && len(st.assign) == key.n:
			oldAssign = st.assign
		case !ok && r.Epoch == 1:
			oldAssign = make([]int, key.n)
			for i := range oldAssign {
				oldAssign[i] = i % key.m
			}
		}
		mdl := s.model(key)
		if oldAssign != nil && len(r.Workload) == key.spouts && mdl.ensureLearner() == nil && mdl.learner != nil {
			// s_t, the epoch's one state vector: never written again, so the
			// transition it closes, the pending slot and the transition it
			// opens all share it (see the live epoch tail in handleConn).
			state := mdl.pol.Codec.Encode(oldAssign, r.Workload, nil)
			if r.TransSeq > 0 && st.hasPrev {
				mdl.learner.replay.AddRecovered(r.Token, r.TransSeq, rl.Transition{
					State:     st.prevState,
					Action:    mdl.pol.Space.Encode(st.prevAssign, nil),
					Reward:    math.Float64frombits(r.RewardBits),
					NextState: state,
				})
			}
			st.prevState = state
			st.prevAssign = append(st.prevAssign[:0], r.Assign...)
			st.hasPrev = true
		} else {
			// Gap: the pending transition's state is unrecoverable, and
			// so is this epoch's (its s_t needs the missing solution).
			st.hasPrev = false
		}
	}

	for st.rngDraws < r.RNGDraws {
		st.rngDraws++
		st.rng.Float64()
	}
	st.gen = r.Gen
	st.epoch = r.Epoch
	st.assign = append(st.assign[:0], r.Assign...)
	st.learnEpoch = r.LearnEpoch
	st.norm.SetState(math.Float64frombits(r.NormMeanBits), math.Float64frombits(r.NormVarBits), r.NormN)
	st.live = false
	st.lastSeen = t.now()
}

// applyEvict drops a recovered session if the tombstone postdates its
// state (a session re-created under the same token after the eviction
// has a newer generation and survives).
func (s *Server) applyEvict(r *durable.Record) {
	t := s.sessions
	sh := t.shardFor(r.Token)
	sh.mu.Lock()
	st, ok := sh.entries[r.Token]
	if !ok || st.gen >= r.Gen {
		sh.mu.Unlock()
		return
	}
	delete(sh.entries, r.Token)
	t.count.Add(-1)
	sh.mu.Unlock()
	s.mu.Lock()
	mdl := s.models[st.key]
	s.mu.Unlock()
	if mdl != nil && mdl.learner != nil {
		mdl.learner.dropShard(r.Token)
	}
}

// applyRecovered upserts one session's persisted state into the table
// (detached, fresh TTL clock). The exploration RNG is reseeded from the
// token exactly as attach does and fast-forwarded to the journaled draw
// count, so the recovered stream continues where the dead daemon's
// stopped.
func (t *sessionTable) applyRecovered(ss *durable.SessionSnap) {
	key := modelKey{ss.Key.N, ss.Key.M, ss.Key.Spouts}
	sh := t.shardFor(ss.Token)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.entries[ss.Token]
	if ok && st.gen >= ss.Gen {
		return // snapshot or an earlier record already restored newer state
	}
	if !ok {
		st = &sessionState{
			token: ss.Token,
			key:   key,
			rng:   rand.New(rand.NewSource(t.seed ^ int64(hashToken(ss.Token)))),
		}
		sh.entries[ss.Token] = st
		t.count.Add(1)
	}
	for st.rngDraws < ss.RNGDraws {
		st.rngDraws++
		st.rng.Float64()
	}
	st.gen = ss.Gen
	st.epoch = ss.Epoch
	st.assign = append(st.assign[:0], ss.Assign...)
	st.learnEpoch = ss.LearnEpoch
	st.norm.SetState(ss.NormMean, ss.NormVar, ss.NormN)
	// A fresh vector, never an overwrite: the old one may be a stored
	// transition's NextState.
	st.prevState = append([]float64(nil), ss.PrevState...)
	st.prevAssign = append(st.prevAssign[:0], ss.PrevAssign...)
	st.hasPrev = ss.HasPrev
	st.live = false
	st.lastSeen = t.now()
}

// captureSnapshot assembles the full serving state. It runs on the
// durability writer goroutine at a record boundary; sessions are read
// under their own locks (never while holding the server lock, so the
// eviction path's table→server lock order cannot deadlock against it)
// and everything is emitted in sorted order so identical state produces
// identical snapshot bytes.
func (s *Server) captureSnapshot() (*durable.Snapshot, error) {
	snap := &durable.Snapshot{
		Seed:    s.cfg.Seed,
		NextGen: s.sessions.genCtr.Load(),
	}
	// Collect the sessions shard by shard (locking one shard at a time,
	// never two), then emit in sorted token order so identical state
	// produces identical snapshot bytes regardless of shard layout. An
	// acknowledged epoch always reaches the snapshot: its record enqueues
	// after the session is visible in its shard, both on the capturing
	// goroutine's past side of the record boundary the capture runs at.
	t := s.sessions
	var sessions []*sessionState
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, st := range sh.entries {
			sessions = append(sessions, st)
		}
		sh.mu.Unlock()
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].token < sessions[j].token })
	for _, st := range sessions {
		st.mu.Lock()
		snap.Sessions = append(snap.Sessions, snapOfSession(st))
		st.mu.Unlock()
	}
	for _, m := range s.learningModels() {
		ms, err := m.learner.exportSnap()
		if err != nil {
			return nil, fmt.Errorf("model %v: %w", m.key, err)
		}
		snap.Models = append(snap.Models, ms)
	}
	// Record the barrier's weight checksums for /checksums: every learning
	// model is in every snapshot, so wholesale replacement is exact.
	sums := make(map[string][2]uint64, len(snap.Models))
	for i := range snap.Models {
		k := snap.Models[i].Key
		sums[fmt.Sprintf("%dx%d/%d", k.N, k.M, k.Spouts)] = [2]uint64{snap.Models[i].ActorSum, snap.Models[i].CriticSum}
	}
	s.mu.Lock()
	s.snapSums = sums
	s.mu.Unlock()
	return snap, nil
}

// snapOfSession copies one session's persisted fields; callers hold
// st.mu.
func snapOfSession(st *sessionState) durable.SessionSnap {
	normMean, normVar, normN := st.norm.State()
	return durable.SessionSnap{
		Token:      st.token,
		Key:        durable.SessionKey{N: st.key.n, M: st.key.m, Spouts: st.key.spouts},
		Gen:        st.gen,
		Epoch:      st.epoch,
		Assign:     append([]int(nil), st.assign...),
		LearnEpoch: st.learnEpoch,
		RNGDraws:   st.rngDraws,
		NormMean:   normMean,
		NormVar:    normVar,
		NormN:      normN,
		PrevState:  append(durable.F64s(nil), st.prevState...),
		PrevAssign: append([]int(nil), st.prevAssign...),
		HasPrev:    st.hasPrev,
	}
}

// epochRecord builds the WAL record for a just-completed epoch; callers
// hold st.mu (the slices are copied — the session reuses its buffers
// next epoch, while the record is encoded asynchronously). The caller
// fills Workload/TransSeq/Reward in learning mode.
func epochRecord(st *sessionState) *durable.Record {
	normMean, normVar, normN := st.norm.State()
	return &durable.Record{
		T:            durable.RecEpoch,
		Token:        st.token,
		Key:          durable.SessionKey{N: st.key.n, M: st.key.m, Spouts: st.key.spouts},
		Gen:          st.gen,
		Epoch:        st.epoch,
		Assign:       append([]int(nil), st.assign...),
		LearnEpoch:   st.learnEpoch,
		RNGDraws:     st.rngDraws,
		NormMeanBits: math.Float64bits(normMean),
		NormVarBits:  math.Float64bits(normVar),
		NormN:        normN,
	}
}

// exportSnap captures the learner's weights (all four networks), update
// count, and replay shards.
func (l *modelLearner) exportSnap() (durable.ModelSnap, error) {
	k := l.mdl.key
	ms := durable.ModelSnap{Key: durable.SessionKey{N: k.n, M: k.m, Spouts: k.spouts}}
	l.mu.Lock()
	actor, actorT, critic, criticT := l.ac.Networks()
	var errs [4]error
	ms.Actor, errs[0] = actor.MarshalBinary()
	ms.ActorT, errs[1] = actorT.MarshalBinary()
	ms.Critic, errs[2] = critic.MarshalBinary()
	ms.CriticT, errs[3] = criticT.MarshalBinary()
	ms.ActorSum, ms.CriticSum = actor.Checksum(), critic.Checksum()
	ms.Updates = l.updates
	actorOpt, criticOpt := l.ac.Optimizers()
	ms.ActorOpt = optimSnap(actorOpt.State())
	ms.CriticOpt = optimSnap(criticOpt.State())
	l.mu.Unlock()
	for _, err := range errs {
		if err != nil {
			return ms, err
		}
	}
	for _, se := range l.replay.Export() {
		sh := durable.ShardSnap{Token: se.Key, Added: se.Added, Trans: make([]durable.TransitionRec, len(se.Trans))}
		for i, tr := range se.Trans {
			sh.Trans[i] = durable.FromTransition(tr)
		}
		ms.Shards = append(ms.Shards, sh)
	}
	return ms, nil
}

// optimSnap converts a captured Adam state to its snapshot form (shared
// backing arrays — State() already copied).
func optimSnap(s *nn.AdamState) *durable.OptimSnap {
	os := &durable.OptimSnap{T: s.T}
	for i := range s.MW {
		os.MW = append(os.MW, durable.F64s(s.MW[i]))
		os.VW = append(os.VW, durable.F64s(s.VW[i]))
		os.MB = append(os.MB, durable.F64s(s.MB[i]))
		os.VB = append(os.VB, durable.F64s(s.VB[i]))
	}
	return os
}

// optimState converts a snapshotted optimizer back to the nn form. A nil
// OptimSnap restores the "never stepped" state.
func optimState(os *durable.OptimSnap) *nn.AdamState {
	s := &nn.AdamState{}
	if os == nil {
		return s
	}
	s.T = os.T
	for i := range os.MW {
		s.MW = append(s.MW, []float64(os.MW[i]))
		s.VW = append(s.VW, []float64(os.VW[i]))
		s.MB = append(s.MB, []float64(os.MB[i]))
		s.VB = append(s.VB, []float64(os.VB[i]))
	}
	return s
}

// reseedForRecovery gives the trainer a fresh sampling RNG derived from
// the snapshot sequence. rand.Rand positions are not serializable (Intn
// consumes a variable number of source values), so instead of pretending
// to restore the old stream, recovery commits to a new deterministic one:
// identical recoveries of the same data dir train identically, which is
// the property the golden durability harness pins.
func (l *modelLearner) reseedForRecovery(snapSeq uint64) {
	k := l.mdl.key
	seed := l.mdl.srv.cfg.Seed + int64(k.n*7_368_787+k.m*104_729+k.spouts*31) + 1
	l.rng = rand.New(rand.NewSource(seed + 2 + int64(snapSeq)*1_000_000_007))
}
