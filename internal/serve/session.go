package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/rl"
)

// errLineTooLong aliases the shared frame-decoder's cap error; the decoders
// (both framings) live in internal/core next to the wire protocol they
// frame, where the fuzz harness exercises them.
var errLineTooLong = core.ErrFrameTooLong

// handleConn services one scheduler session end to end: admission, framing
// negotiation, hello, then the measurement→solution loop. Everything the
// session owns (buffers, request object) lives here, so a session costs one
// goroutine plus a few small allocations no matter how many epochs it runs.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)

	// Admission control: beyond MaxSessions the daemon is explicit about
	// being full instead of letting sessions pile up. Counted before any
	// per-connection work — the framing sniff below blocks on client bytes.
	if s.active.Add(1) > int64(s.cfg.MaxSessions) {
		s.active.Add(-1)
		s.mRejected.Inc()
		s.shedConn(conn, br, "retry: server at session capacity")
		return
	}
	defer s.active.Add(-1)
	s.mAccepted.Inc()
	cur := s.active.Load()
	if cur > s.mSessionsPeak.Value() {
		s.mSessionsPeak.Set(cur) // racy max: fine for a monitoring gauge
	}
	s.mSessions.Add(1)
	defer s.mSessions.Add(-1)

	// Unblock blocking reads/writes when the server shuts down.
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()

	// Framing negotiation: the connection's first byte names the framing
	// (the binary magic, or '{' opening an NDJSON hello) and the whole
	// session stays in it — see core.Wire for the negotiation contract.
	if conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) != nil {
		return
	}
	binary, err := core.SniffBinary(br)
	if err != nil {
		return
	}
	w := core.NewWire(br, conn, s.cfg.MaxLineBytes, binary)
	if binary {
		s.mBinSessions.Inc()
	} else {
		s.mNDJSessions.Inc()
	}
	write := func(msg *core.SolutionMsg) error {
		if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
			return err
		}
		return w.WriteSolution(msg)
	}

	// Hello: topology shape, answered with the session's starting solution.
	var hello HelloMsg
	if err := w.ReadHello(&hello); err != nil {
		if isProtoErr(err) {
			s.mProtoErrs.Inc()
			if core.IsMalformed(err) {
				// A complete frame that wasn't a valid hello: the peer is
				// still synchronized, so the rejection is readable.
				_ = write(&core.SolutionMsg{Err: fmt.Sprintf("bad hello: %v", err)})
			}
		}
		return
	}
	if err := s.validShape(hello.N, hello.M, hello.Spouts); err != nil {
		s.mProtoErrs.Inc()
		_ = write(&core.SolutionMsg{Err: fmt.Sprintf("bad hello: %v", err)})
		return
	}
	key := modelKey{hello.N, hello.M, hello.Spouts}
	mdl := s.model(key)

	// Role gating, after the hello — only the hello says whether the
	// session is full or inference-only. Full sessions need a serving
	// leader; read-only ones are also answered by an undemoted warm
	// follower (follower reads).
	if hello.ReadOnly {
		if !s.readOnlyOK() {
			s.mShed.Inc()
			_ = write(&core.SolutionMsg{Err: "retry: read-only unavailable (demoted or cold)", Retry: true})
			return
		}
		s.runReadOnly(ctx, conn, w, write, &hello, mdl)
		return
	}
	if !s.serving() {
		s.mShed.Inc()
		_ = write(&core.SolutionMsg{Err: "retry: not serving (unpromoted replica or demoted leader)", Retry: true})
		return
	}

	// Attach resumable per-topology state: a hello presenting a tracked
	// token continues that session — same current solution, exploration
	// schedule position, reward statistics and pending transition — while
	// an empty or unknown token starts cold under a (possibly new) token.
	st, resumed, aerr := s.sessions.attach(hello.Token, key, func() {
		// Fired (under the shard lock) when another connection presents
		// this session's token: unblock this goroutine's I/O so it
		// detaches and the presenter's retry can take the session over.
		_ = conn.SetDeadline(time.Now())
	})
	if aerr != nil {
		if hello.Token != "" {
			// Only hellos actually trying to resume count as resume
			// rejections; a tokenless hello shed by a full table is plain
			// admission control.
			s.mResumeRej.Inc()
		}
		if errors.Is(aerr, errTokenLive) || errors.Is(aerr, errTableFull) {
			// Transient: the stale connection holding the token (or the
			// table slot) is about to be reaped; the client backs off and
			// redials.
			_ = write(&core.SolutionMsg{Err: "retry: " + aerr.Error(), Retry: true})
		} else {
			_ = write(&core.SolutionMsg{Err: fmt.Sprintf("bad hello: %v", aerr)})
		}
		return
	}
	defer s.sessions.detach(st)
	if resumed {
		s.mResumed.Inc()
	} else {
		// Cold start: the round-robin prior is the "current assignment"
		// half of the first state encoding. Under st.mu — the session is
		// already visible in the table, so the durability snapshotter may
		// be reading st.assign concurrently.
		st.mu.Lock()
		st.assign = make([]int, hello.N)
		for i := range st.assign {
			st.assign[i] = i % hello.M
		}
		st.mu.Unlock()
	}
	if err := write(&core.SolutionMsg{Epoch: st.epoch, Assign: st.assign, Token: st.token, Resumed: resumed}); err != nil {
		return
	}

	learner := mdl.learner
	adim := mdl.pol.Space.Dim()
	req := &inferReq{
		state:  make([]float64, mdl.pol.StateDim()),
		result: make([]int, hello.N),
	}
	var meas core.MeasurementMsg
	for epoch := st.epoch + 1; ; epoch++ {
		if s.sessions.isKicked(st) {
			// A takeover presenter asked for this session: stand down so
			// its retry can attach (our deadline re-arming below would
			// otherwise erase the presenter's I/O kick).
			return
		}
		if conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) != nil {
			return
		}
		if err := w.ReadMeasurement(&meas); err != nil {
			if ctx.Err() == nil && isProtoErr(err) {
				s.mProtoErrs.Inc()
				switch {
				case errors.Is(err, errLineTooLong):
					if conn.SetReadDeadline(time.Now().Add(s.cfg.WriteTimeout)) == nil && w.Drain() == nil {
						_ = write(&core.SolutionMsg{Epoch: epoch, Err: errLineTooLong.Error()})
					}
				case core.IsMalformed(err):
					_ = write(&core.SolutionMsg{Epoch: epoch, Err: fmt.Sprintf("bad measurement: %v", err)})
				}
			}
			return
		}
		s.mRequests.Inc()
		if meas.Err != "" {
			// The scheduler failed to deploy the previous solution; keep
			// serving from the same state rather than tearing down.
			s.mDeployErrs.Inc()
		}
		if len(meas.Workload) != hello.Spouts {
			s.mProtoErrs.Inc()
			_ = write(&core.SolutionMsg{Epoch: epoch, Err: fmt.Sprintf("measurement has %d spout rates, session declared %d", len(meas.Workload), hello.Spouts)})
			return
		}
		// A non-zero epoch echo (1-based) not matching the last served
		// epoch means the client measured an older deployment (lost
		// reply, then a resubmit after resuming): still serve it, but
		// its reward does not belong to the pending transition. (Counted
		// after queue admission so shed-and-resubmit cycles don't inflate
		// the metric.)
		stale := meas.Epoch != 0 && meas.Epoch != st.epoch+1

		start := time.Now()
		// s_t: the solution issued at t−1 plus the fresh workload.
		mdl.pol.Codec.Encode(st.assign, meas.Workload, req.state)
		req.noise = nil
		if learner != nil {
			// ε-decay exploration, per session: the noise stream comes from
			// the session's own RNG (part of its resumable state), so it is
			// deterministic per session regardless of batching or timing.
			// Drawn at most once per epoch — a queue-full shed resubmits the
			// same epoch and must reuse the same decision, or load shedding
			// would advance the RNG and the ε schedule timing-dependently.
			// Mutations run under st.mu (and every draw counts into
			// st.rngDraws) so the durability snapshotter always sees a
			// consistent ⟨schedule position, stream position⟩ pair —
			// recovery reseeds from the token and fast-forwards exactly
			// rngDraws draws.
			if st.noiseEpoch != epoch {
				st.mu.Lock()
				st.noiseEpoch = epoch
				st.noiseOn = false
				eps := s.cfg.Explore.At(st.learnEpoch)
				st.learnEpoch++
				if eps > 0 && st.drawFloat() < eps {
					st.noiseOn = true
					if cap(st.noise) < adim {
						st.noise = make([]float64, adim)
					}
					st.noise = st.noise[:adim]
					for i := range st.noise {
						st.noise[i] = eps * st.drawFloat()
					}
				}
				st.mu.Unlock()
			}
			if st.noiseOn {
				req.noise = st.noise
			}
		}
		req.done = make(chan struct{})
		select {
		case mdl.queue <- req:
		default:
			// Queue full: shed with an explicit retry instead of blocking —
			// the scheduler sees backpressure and resubmits after backoff.
			s.mShed.Inc()
			if err := write(&core.SolutionMsg{Epoch: epoch, Err: "retry: inference queue full", Retry: true}); err != nil {
				return
			}
			epoch--
			continue
		}
		failed := false
		select {
		case <-req.done:
			failed = req.failed
		case <-mdl.stopped:
			// The batch loop tore down mid-request (role transition):
			// either its exit drain failed the request — done closes right
			// after stopped — or the enqueue raced past the drain and the
			// request will never complete. Shed either way.
			select {
			case <-req.done:
				failed = req.failed
			default:
				failed = true
			}
		case <-ctx.Done():
			return
		}
		if failed {
			s.mShed.Inc()
			_ = write(&core.SolutionMsg{Epoch: epoch, Err: "retry: not serving (role change)", Retry: true})
			return
		}
		if stale {
			s.mStaleMeas.Inc()
		}
		var transSeq uint64
		var transReward float64
		var state []float64
		if learner != nil {
			// s_t leaves the request's reused buffer once, as the epoch's one
			// immutable state vector: NextState of the transition this
			// measurement closes, the pending prevState, and next epoch the
			// State of the transition it opens all share it uncopied —
			// stored transitions are immutable and nothing writes through
			// st.prevState, it is only ever replaced.
			state = append([]float64(nil), req.state...)
			// The measurement closes the pending transition (s_{t−1},
			// a_{t−1}): its reward is the (standardized) negative latency
			// this epoch reported for deploying a_{t−1}. A deploy failure
			// or a stale resubmission poisons the reward, so that
			// transition is dropped.
			if meas.Err == "" && !stale && st.hasPrev {
				st.mu.Lock() // Normalize mutates journaled normalizer state
				t := rl.Transition{
					State:     st.prevState,
					Action:    mdl.pol.Space.Encode(st.prevAssign, nil),
					Reward:    st.norm.Normalize(-meas.AvgTupleTimeMS),
					NextState: state,
				}
				st.mu.Unlock()
				transSeq = learner.observe(st.token, t)
				transReward = t.Reward
			}
		}
		st.mu.Lock()
		copy(st.assign, req.result)
		if learner != nil {
			// Open the next pending transition: (s_t, a_t) awaits the next
			// epoch's reward.
			st.prevState = state
			st.prevAssign = append(st.prevAssign[:0], st.assign...)
			st.hasPrev = true
		}
		st.epoch = epoch
		var rec *durable.Record
		if s.dur != nil {
			// Journal the completed epoch before acknowledging the
			// solution, so an acknowledged epoch is always
			// (asynchronously) on its way to disk. Only scalars, the
			// solution and the raw workload are journaled; recovery
			// re-derives the state encodings and the transition vectors
			// by replaying the same computation over the record chain.
			st.gen = s.sessions.genCtr.Add(1)
			rec = epochRecord(st)
			if learner != nil {
				rec.Workload = append(durable.F64s(nil), meas.Workload...)
				rec.TransSeq = transSeq
				rec.RewardBits = math.Float64bits(transReward)
			}
		}
		st.mu.Unlock()
		if rec != nil {
			s.dur.Append(rec)
		}
		if err := write(&core.SolutionMsg{Epoch: epoch, Assign: st.assign}); err != nil {
			return
		}
		s.mLatency.Observe(time.Since(start))
	}
}

// runReadOnly services an inference-only session: state→action answers
// from the node's current weights, nothing journaled, nothing learned, no
// resumption state issued. Served by leaders and — the point — by
// undemoted followers from their continuously-warm replicated weights,
// with staleness bounded by the serve_repl_lag_records gauge. A hello
// token is honored as a warm start: the tracked session's replicated
// solution seeds the state encoding, but the session is never attached —
// the leader's client may resume it elsewhere at any moment.
func (s *Server) runReadOnly(ctx context.Context, conn net.Conn, w *core.Wire, write func(*core.SolutionMsg) error, hello *core.HelloMsg, mdl *model) {
	s.mROSessions.Inc()
	s.mROActive.Add(1)
	defer s.mROActive.Add(-1)

	// Starting solution: the tracked session's state when the hello
	// presents a known token of the same shape, the cold round-robin prior
	// otherwise (an unknown token is a cold start, never an error — same
	// degradation rule as resumption after TTL eviction).
	assign := make([]int, hello.N)
	epoch := 0
	warm := false
	if hello.Token != "" {
		if pkey, passign, pepoch, ok := s.sessions.peek(hello.Token); ok && pkey == mdl.key && len(passign) == hello.N {
			copy(assign, passign)
			epoch = pepoch
			warm = true
		}
	}
	if !warm {
		for i := range assign {
			assign[i] = i % hello.M
		}
	}
	// No token in the reply: there is nothing resumable to come back to.
	if err := write(&core.SolutionMsg{Epoch: epoch, Assign: assign, Resumed: warm}); err != nil {
		return
	}

	req := &inferReq{
		state:  make([]float64, mdl.pol.StateDim()),
		result: make([]int, hello.N),
	}
	var meas core.MeasurementMsg
	for epoch++; ; epoch++ {
		if conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) != nil {
			return
		}
		if err := w.ReadMeasurement(&meas); err != nil {
			if ctx.Err() == nil && isProtoErr(err) {
				s.mProtoErrs.Inc()
				switch {
				case errors.Is(err, errLineTooLong):
					if conn.SetReadDeadline(time.Now().Add(s.cfg.WriteTimeout)) == nil && w.Drain() == nil {
						_ = write(&core.SolutionMsg{Epoch: epoch, Err: errLineTooLong.Error()})
					}
				case core.IsMalformed(err):
					_ = write(&core.SolutionMsg{Epoch: epoch, Err: fmt.Sprintf("bad measurement: %v", err)})
				}
			}
			return
		}
		s.mRequests.Inc()
		if len(meas.Workload) != hello.Spouts {
			s.mProtoErrs.Inc()
			_ = write(&core.SolutionMsg{Epoch: epoch, Err: fmt.Sprintf("measurement has %d spout rates, session declared %d", len(meas.Workload), hello.Spouts)})
			return
		}
		if !s.readOnlyOK() {
			// Demoted (or torn down) since the hello: fencing fences reads
			// too — a stalled ex-leader must not answer from frozen weights.
			s.mShed.Inc()
			_ = write(&core.SolutionMsg{Epoch: epoch, Err: "retry: not serving (role change)", Retry: true})
			return
		}

		start := time.Now()
		mdl.pol.Codec.Encode(assign, meas.Workload, req.state)
		req.noise = nil
		req.done = make(chan struct{})
		select {
		case mdl.queue <- req:
		default:
			s.mShed.Inc()
			if err := write(&core.SolutionMsg{Epoch: epoch, Err: "retry: inference queue full", Retry: true}); err != nil {
				return
			}
			epoch--
			continue
		}
		failed := false
		select {
		case <-req.done:
			failed = req.failed
		case <-mdl.stopped:
			select {
			case <-req.done:
				failed = req.failed
			default:
				failed = true
			}
		case <-ctx.Done():
			return
		}
		if failed {
			s.mShed.Inc()
			_ = write(&core.SolutionMsg{Epoch: epoch, Err: "retry: not serving (role change)", Retry: true})
			return
		}
		copy(assign, req.result)
		if err := write(&core.SolutionMsg{Epoch: epoch, Assign: assign}); err != nil {
			return
		}
		s.mLatency.Observe(time.Since(start))
	}
}

// shedConn reads a connection's hello — in whichever framing the client
// opened with — and answers an explicit retry in that framing, so the
// client backs off instead of treating the shed as a dead server. The
// reply is only written after a COMPLETE hello frame (malformed contents
// are fine — the peer is synchronized and will parse the reply; a torn or
// oversized-and-undrainable frame is not, and gets silence): replying into
// a half-written frame would desynchronize the client's decoder. The hello
// is consumed first because closing a socket with unread received data
// sends RST, destroying the retry reply in flight. Used by the admission
// path, which sheds before reading the hello; post-hello role gating
// replies through the session's already-negotiated Wire instead.
func (s *Server) shedConn(conn net.Conn, br *bufio.Reader, errText string) {
	if conn.SetDeadline(time.Now().Add(s.cfg.WriteTimeout)) != nil {
		return
	}
	binary, err := core.SniffBinary(br)
	if err != nil {
		return
	}
	w := core.NewWire(br, conn, s.cfg.MaxLineBytes, binary)
	var hello core.HelloMsg
	if err := w.ReadHello(&hello); err != nil && !core.IsMalformed(err) {
		if !errors.Is(err, core.ErrFrameTooLong) || w.Drain() != nil {
			return
		}
	}
	_ = w.WriteSolution(&core.SolutionMsg{Err: errText, Retry: true})
}

// isProtoErr classifies read failures: oversized frames, mid-frame drops,
// binary framing violations and well-framed-but-undecodable payloads are
// protocol errors; a clean EOF, a closed connection, or an idle timeout
// are normal session ends.
func isProtoErr(err error) bool {
	return errors.Is(err, errLineTooLong) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, core.ErrBadFrame) || core.IsMalformed(err)
}
