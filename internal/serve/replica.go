package serve

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/durable"
)

// Replica mode (tentpole of the replicated-fleet frontier): a daemon
// started with Config.ReplicateFrom tails the leader's WAL over TCP
// instead of accepting sessions. Every shipped record runs through the
// same recovery re-derivation path a restart uses, so the replica holds a
// continuously warm session table, replay shards, and trainer weights —
// and a byte-exact mirror of the leader's data directory on its own disk.
// Followers never accept full sessions and never train before promotion
// (the Polynesia lesson: replication must not contend with the leader's
// serve path), which is what makes the failover acceptance criterion
// structural: an unpromoted follower's weights and replay are bitwise the
// leader's last shipped barrier, because nothing has trained against
// them. Followers do answer read-only (inference-only) sessions from
// those continuously-warm weights — follower reads never mutate state, so
// the bitwise property survives them.
//
// Promote() flips the daemon to leader: stop tailing, bump the
// replication generation, open the mirror as its own WAL, start the batch
// loops and background loops, and begin accepting the old leader's
// resumption tokens. Connections that arrive before promotion are shed
// with a retry reply, so a client with a resumption token that lands here
// early backs off and reconnects once promoted — zero protocol errors.

// replicaState carries the follower machinery between Serve and Promote.
type replicaState struct {
	tailer   *durable.Tailer
	cancel   context.CancelFunc
	done     chan struct{} // closed when the tailer goroutine exits
	promoted chan struct{} // closed by Promote once serving is live
}

// startReplica warms the server from the mirror directory and starts the
// tailer. Called by Serve before the accept loop.
func (s *Server) startReplica(ctx context.Context) error {
	return s.startReplicaTo(ctx, s.cfg.ReplicateFrom)
}

// startReplicaTo begins (or re-begins, at Rejoin) a follower role epoch
// tailing the leader shipping on addr: warm state is recovered from the
// mirror, the batch loops start so the follower can answer read-only
// sessions from its continuously-warm weights, and the tailer runs under
// the role epoch's context and wait group.
func (s *Server) startReplicaTo(ctx context.Context, addr string) error {
	if s.cfg.DataDir == "" {
		return fmt.Errorf("serve: ReplicateFrom requires DataDir (the replication mirror)")
	}
	start := time.Now() // the mirror's scan + decode is recovery time too
	rec, st, err := durable.Recover(s.cfg.DataDir, durable.LogConfig{Logf: log.Printf})
	if err != nil {
		return err
	}
	nModels, err := s.recoverDurable(rec)
	if err != nil {
		return err
	}
	s.mRecoveryMS.Set(time.Since(start).Milliseconds())
	s.mRecSessions.Set(int64(s.sessions.len()))
	s.mRecModels.Set(int64(nModels))

	tctx, cancel := context.WithCancel(ctx)
	tailer, err := durable.NewTailer(durable.TailConfig{
		Dir:          s.cfg.DataDir,
		Addr:         addr,
		Handler:      (*tailApplier)(s),
		Logf:         log.Printf,
		Applied:      s.reg.Counter("serve_repl_applied_records_total"),
		SnapsApplied: s.reg.Counter("serve_repl_snapshots_applied_total"),
		Reconnects:   s.reg.Counter("serve_repl_reconnects_total"),
		SegsReceived: s.reg.Counter("serve_repl_segments_received_total"),
		Lag:          s.mReplLag,
		Gen:          s.mGen,
	}, st)
	if err != nil {
		cancel()
		return err
	}
	rs := &replicaState{tailer: tailer, cancel: cancel, done: make(chan struct{}), promoted: make(chan struct{})}
	s.mu.Lock()
	s.repl = rs
	rwg := s.roleWG
	// Follower reads: batch loops run on the follower too, serving
	// inference-only sessions from the replicated weights. Recovery above
	// ran with ctx unset (direct weight installs are safe before a loop
	// exists); everything from here on routes installs through the
	// publication channels.
	s.ctx = ctx
	for _, m := range s.models {
		m.start()
	}
	s.mu.Unlock()
	s.wg.Add(1)
	if rwg != nil {
		rwg.Add(1)
	}
	go func() {
		defer s.wg.Done()
		if rwg != nil {
			defer rwg.Done()
		}
		defer close(rs.done)
		if err := tailer.Run(tctx); err != nil {
			// Terminal tail failures (stale leader generation) leave the
			// replica warm but frozen; promotion remains possible.
			log.Printf("serve: replication tail stopped: %v", err)
		}
	}()
	log.Printf("serve: replica of %s: warmed %d sessions, %d models from mirror %s",
		addr, s.sessions.len(), nModels, s.cfg.DataDir)
	return nil
}

// tailApplier adapts the Server to durable.TailHandler. It runs on the
// tailer goroutine — the only mutator of serving state in replica mode.
type tailApplier Server

// ApplyRecord implements durable.TailHandler via the recovery replay
// path (generation-guarded, so re-shipped records are no-ops).
func (a *tailApplier) ApplyRecord(r *durable.Record) error {
	s := (*Server)(a)
	s.applyRecord(r)
	// Keep the mutation counter ahead of everything applied, so state
	// created after promotion always postdates replicated state.
	for {
		cur := s.sessions.genCtr.Load()
		if r.Gen <= cur || s.sessions.genCtr.CompareAndSwap(cur, r.Gen) {
			return nil
		}
	}
}

// ApplySnapshot implements durable.TailHandler. A compaction marker
// (reset=false) arrives in-stream exactly at the leader's snapshot
// barrier: its sessions and transitions were already applied
// record-by-record, but the trained weights and optimizer moments travel
// ONLY in snapshots (followers never train), so the models are installed
// from it — that is what makes a promoted follower's networks bitwise the
// leader's last shipped barrier instead of its own initialization. A
// reset replaces the warm state wholesale: the follower fell behind the
// leader's retention window and its state is no longer a prefix of the
// leader's.
func (a *tailApplier) ApplySnapshot(snap *durable.Snapshot, reset bool) error {
	s := (*Server)(a)
	if !reset {
		for i := range snap.Models {
			if err := s.restoreModel(&snap.Models[i], snap.Seq); err != nil {
				return fmt.Errorf("marker model %v: %w", snap.Models[i].Key, err)
			}
		}
		return nil
	}
	// Wholesale replacement of the session table — but the model objects
	// must survive: live read-only sessions hold references to them and
	// their running batch loops. restoreModel re-installs each model's
	// weights through the publication channel; a model absent from the
	// snapshot just keeps serving its last weights until one covers it.
	s.sessions.reset()
	_, err := s.recoverDurable(&durable.Recovered{Snapshot: snap})
	return err
}

// Promote flips a replica into the serving leader: stop tailing (the
// in-flight frame finishes applying, so warm state equals the mirror),
// bump the replication generation, open the mirror as this daemon's own
// WAL, start the leader-side background loops, and begin accepting full
// sessions — including every resumption token the dead leader issued.
// The batch loops keep running across the flip (a follower serving
// read-only sessions upgrades in place). A second Promote (or one on a
// non-replica) is refused — until a Rejoin starts the next follower
// epoch, after which the node is promotable again.
func (s *Server) Promote() error {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	s.mu.Lock()
	rs := s.repl
	ctx := s.roleCtx
	s.mu.Unlock()
	if rs == nil {
		s.mPromoteRej.Inc()
		return fmt.Errorf("serve: not a replica")
	}
	if ctx == nil {
		s.mPromoteRej.Inc()
		return fmt.Errorf("serve: replica is not running")
	}
	if s.demoted.Load() {
		s.mPromoteRej.Inc()
		return fmt.Errorf("serve: promote: node is demoted (rejoin first)")
	}
	if !s.promoting.CompareAndSwap(false, true) {
		s.mPromoteRej.Inc()
		return fmt.Errorf("serve: already promoted")
	}

	start := time.Now()
	rs.tailer.Stop()
	<-rs.done
	rs.cancel()

	// Own the WAL under a fresh generation: the old leader, if it ever
	// comes back, is now the stale one and every follower of this node
	// will refuse it.
	// Failures past the latch roll it back: a transient disk error must
	// leave the node promotable, or the gateway's retries would get
	// "already promoted" from a replica that never started serving and a
	// two-node group would shed all traffic with no way out. The steps up
	// to here are safe to re-run — Stop is idempotent and rs.done stays
	// closed.
	gen := rs.tailer.Gen() + 1
	if err := durable.WriteGen(s.cfg.DataDir, gen); err != nil {
		s.promoting.Store(false)
		return fmt.Errorf("serve: promote: %w", err)
	}
	lg, _, err := s.openLog()
	if err != nil {
		s.promoting.Store(false)
		return fmt.Errorf("serve: promote: open mirror as own WAL: %w", err)
	}
	// The Recovered result is deliberately ignored: warm state was built
	// from exactly the bytes now on disk (the tailer applies and mirrors
	// each frame together), so re-applying it would be pure waste on the
	// failover critical path.
	s.mu.Lock()
	s.dur = lg
	s.mu.Unlock()

	if err := s.activate(ctx); err != nil {
		// The only activation failure is the shipping listener; a promoted
		// node that cannot feed its own followers must still serve.
		log.Printf("serve: promote: %v (serving without shipping)", err)
	}
	s.replicating.Store(false)
	close(rs.promoted)
	s.mPromotions.Inc()
	s.mRole.Set(1)
	s.mGen.Set(int64(gen))
	log.Printf("serve: promoted to leader (generation %d) in %v; %d sessions warm",
		gen, time.Since(start).Round(time.Millisecond), s.sessions.len())
	return nil
}

// serving reports whether full sessions are accepted (leader from the
// start, or replica after promotion — unless demoted by failover
// fencing, and not while a rejoined node is back to following).
func (s *Server) serving() bool {
	return !s.demoted.Load() && !s.replicating.Load()
}

// readOnlyOK reports whether inference-only sessions are accepted: any
// serving leader, or an undemoted follower whose batch loops are warm
// (follower reads). A demoted node serves nothing — fencing must fence
// reads too, or a stalled ex-leader would answer from frozen weights.
func (s *Server) readOnlyOK() bool {
	if s.demoted.Load() {
		return false
	}
	if s.serving() {
		return true
	}
	s.mu.Lock()
	warm := s.ctx != nil
	s.mu.Unlock()
	return s.replicating.Load() && warm
}

// RetargetReplication re-points an unpromoted replica's tailer at a new
// leader shipping address. The gateway calls it (via POST /retarget) on a
// group's surviving followers after a failover, so they replicate from
// the promoted node instead of tailing the dead leader forever.
func (s *Server) RetargetReplication(addr string) error {
	if addr == "" {
		return fmt.Errorf("serve: retarget: empty address")
	}
	s.mu.Lock()
	rs := s.repl
	s.mu.Unlock()
	if rs == nil {
		return fmt.Errorf("serve: retarget: not a replica")
	}
	if s.promoting.Load() {
		return fmt.Errorf("serve: retarget: already promoted")
	}
	old := rs.tailer.Addr()
	rs.tailer.Retarget(addr)
	log.Printf("serve: replication retargeted %s -> %s", old, addr)
	return nil
}

// Rejoin re-enters a demoted (or otherwise deposed) ex-leader into the
// group as a tailing follower of the leader shipping on addr — the
// self-healing step failover used to leave to an operator. The current
// role epoch is torn down (batch loops, background loops, ship server,
// tailer — sessions and accept loops survive, shedding meanwhile), local
// snapshots and WAL segments are cleared so the tailer's hello carries
// position zero, and the next follower epoch starts: the leader answers
// the blank position with a full reset snapshot — the exact lagged-
// follower resync path — under the generation guard (repl-gen is kept;
// the new leader's higher generation is adopted, a stale one refused).
// On a node already tailing undemoted, Rejoin degenerates to an
// idempotent retarget. A serving leader refuses (demote first).
func (s *Server) Rejoin(addr string) error {
	if addr == "" {
		return fmt.Errorf("serve: rejoin: empty leader address")
	}
	s.roleMu.Lock()
	defer s.roleMu.Unlock()

	if s.replicating.Load() && !s.demoted.Load() {
		s.mu.Lock()
		rs := s.repl
		s.mu.Unlock()
		if rs != nil {
			if rs.tailer.Addr() != addr {
				rs.tailer.Retarget(addr)
				log.Printf("serve: rejoin: already following; retargeted to %s", addr)
			}
			return nil
		}
	}
	if s.serving() {
		return fmt.Errorf("serve: rejoin: node is the serving leader (demote first)")
	}
	s.mu.Lock()
	ctxRun := s.ctxRun
	cancel := s.roleCancel
	rwg := s.roleWG
	s.mu.Unlock()
	if ctxRun == nil || ctxRun.Err() != nil {
		return fmt.Errorf("serve: rejoin: daemon is not running")
	}

	start := time.Now()
	if cancel != nil {
		cancel()
	}
	if rwg != nil {
		rwg.Wait()
	}
	// Every role-scoped goroutine is down. Fail whatever a racing session
	// managed to enqueue after the batch loops' own exit drain, drop the
	// warm state, and close the WAL (no final snapshot — the mirror is
	// about to be reset anyway).
	s.mu.Lock()
	models := s.models
	s.models = map[modelKey]*model{}
	s.reg.Gauge("serve_models").Set(0)
	dur := s.dur
	s.dur = nil
	s.ctx = nil
	s.repl = nil
	s.mu.Unlock()
	for _, m := range models {
		m.failPending()
	}
	if dur != nil {
		if err := dur.Close(); err != nil {
			log.Printf("serve: rejoin: closing WAL: %v", err)
		}
	}
	s.sessions.reset()
	if err := durable.ResetMirror(s.cfg.DataDir); err != nil {
		s.mRejoinErrs.Inc()
		return fmt.Errorf("serve: rejoin: reset mirror: %w", err)
	}

	// Next epoch: a follower of addr. replicating flips before demoted
	// clears so serving() is never momentarily true in between.
	roleCtx, roleCancel := context.WithCancel(ctxRun)
	s.mu.Lock()
	s.roleCtx = roleCtx
	s.roleCancel = roleCancel
	s.roleWG = &sync.WaitGroup{}
	s.mu.Unlock()
	s.promoting.Store(false)
	s.replicating.Store(true)
	s.demoted.Store(false)
	s.mRole.Set(0)
	if err := s.startReplicaTo(roleCtx, addr); err != nil {
		// A node that failed to re-enter must stay fenced, not half-serve.
		s.demoted.Store(true)
		s.mRejoinErrs.Inc()
		return fmt.Errorf("serve: rejoin: %w", err)
	}
	s.mRejoins.Inc()
	log.Printf("serve: rejoined as follower of %s in %v (state reset, resyncing from scratch)",
		addr, time.Since(start).Round(time.Millisecond))
	return nil
}

// startShipServer begins serving WAL shipping on Config.ReplListen under
// this daemon's replication generation. Followers of a just-promoted
// node resume from their mirror position exactly as they would from the
// original leader.
func (s *Server) startShipServer(ctx context.Context) error {
	gen := durable.ReadGen(s.cfg.DataDir)
	if gen == 0 {
		gen = 1
		if err := durable.WriteGen(s.cfg.DataDir, gen); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", s.cfg.ReplListen)
	if err != nil {
		return fmt.Errorf("serve: repl listen %s: %w", s.cfg.ReplListen, err)
	}
	ss := durable.NewShipServer(durable.ShipConfig{
		Log:              s.dur,
		Gen:              gen,
		Logf:             log.Printf,
		SegmentsShipped:  s.reg.Counter("serve_repl_segments_shipped_total"),
		SnapshotsShipped: s.reg.Counter("serve_repl_snapshots_shipped_total"),
	})
	stop := context.AfterFunc(ctx, func() { ln.Close(); ss.Close() })
	s.mu.Lock()
	rwg := s.roleWG
	s.mu.Unlock()
	s.wg.Add(1)
	if rwg != nil {
		rwg.Add(1)
	}
	go func() {
		defer s.wg.Done()
		if rwg != nil {
			defer rwg.Done()
		}
		defer stop()
		ss.Serve(ln)
	}()
	s.mGen.Set(int64(gen))
	log.Printf("serve: shipping WAL on %s (generation %d)", s.cfg.ReplListen, gen)
	return nil
}
