package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// shape is a topology's dimensions as a session declares them at hello.
type shape struct{ n, m, spouts int }

// serveCfg describes the serve island of a workload: who connects, what
// the daemon is asked to do besides inference, and how long it is measured.
type serveCfg struct {
	sessions  int
	shapes    []shape // sessions are split evenly over the shapes, in order
	mixProto  bool    // odd sessions speak NDJSON, even ones binary
	durable   bool    // daemon runs with -data-dir and -learn
	dropEvery int     // each session drops and resumes by token every N epochs

	// The measured window is either a duration or, when epochs > 0, a fixed
	// number of epochs drawn from a shared counter — fixed so that the WAL
	// the daemon recovers from has the same size whatever the speed.
	window, warm       float64
	epochs, warmEpochs int

	setups   int // daemon launches timed for setup_s (the last one is measured)
	restarts int // SIGKILL/restart cycles timed for recover_ms
}

type sessDesc struct {
	shape  shape
	ndjson bool
}

func (c serveCfg) desc(i int) sessDesc {
	return sessDesc{shape: c.shapes[i*len(c.shapes)/c.sessions], ndjson: c.mixProto && i%2 == 1}
}

// gen is one session's measurement stream: a base rate per topology with
// ±20% drift per epoch, a pure function of (seed, session index).
type gen struct {
	rng  *rand.Rand
	base float64
}

func newGen(seed int64, i int) *gen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	return &gen{rng: rng, base: 100 + 900*rng.Float64()}
}

func (g *gen) next(m *core.MeasurementMsg) {
	for j := range m.Workload {
		m.Workload[j] = g.base * (0.8 + 0.4*g.rng.Float64())
	}
	m.AvgTupleTimeMS = 30 + 40*g.rng.Float64()
}

// serveResult is everything one serve island measured.
type serveResult struct {
	setups   []float64 // seconds: daemon exec → every session's first epoch acknowledged
	hellos   []float64 // ms per initial Session.Connect
	recovers []float64 // ms: restart exec → first epoch acknowledged

	samples  []int64 // measured Session.Step times, ns, ascending
	bin, ndj []int64 // the same, split by framing
	elapsed  float64 // seconds of the measured window

	attempted, failed int
	checkErr          error // first failed output check

	// The daemon at both edges of the measured window.
	d0, d1 daemonSample
	rssMB  float64

	retries, reconnects, resumes int64
}

// delta is how far a /metrics value moved over the measured window.
func (r *serveResult) delta(name string) float64 { return r.d1.metrics[name] - r.d0.metrics[name] }

// sessions builds the client pools, one per (shape, framing) group so that
// each group shares a ClientConfig, and returns the sessions by index.
func (c serveCfg) pools(addr string) ([]*serve.Session, []*serve.Pool) {
	groups := map[sessDesc][]int{}
	var order []sessDesc
	for i := 0; i < c.sessions; i++ {
		d := c.desc(i)
		if _, ok := groups[d]; !ok {
			order = append(order, d)
		}
		groups[d] = append(groups[d], i)
	}
	sessions := make([]*serve.Session, c.sessions)
	var pools []*serve.Pool
	for _, d := range order {
		proto := "binary"
		if d.ndjson {
			proto = "ndjson"
		}
		p := serve.NewPool(serve.ClientConfig{
			Addr:  addr,
			Hello: serve.HelloMsg{Topology: "bench", N: d.shape.n, M: d.shape.m, Spouts: d.shape.spouts},
			Proto: proto,
		}, len(groups[d]))
		for j, i := range groups[d] {
			sessions[i] = p.Session(j)
		}
		pools = append(pools, p)
	}
	return sessions, pools
}

// island is one live daemon plus the state the session goroutines share.
type island struct {
	cfg      serveCfg
	seed     int64
	d        *daemon
	tr       *tracer
	sessions []*serve.Session // by session index
	pools    []*serve.Pool

	setupOnly bool // sessions leave after their first epoch
	outs      []sessionOut
	wg        sync.WaitGroup
	release   chan struct{} // closed once the window is fixed

	// Time mode: fixed before the sessions are released.
	start, end time.Time
	// Count mode.
	counter   atomic.Int64
	countT0   atomic.Int64  // unix ns when the first measured epoch was drawn
	countT1   atomic.Int64  // unix ns of the last measured acknowledgement
	measuring chan struct{} // closed by the session that draws the first measured epoch

	mu       sync.Mutex
	checkErr error
}

func (is *island) flag(err error) {
	is.mu.Lock()
	if is.checkErr == nil {
		is.checkErr = err
	}
	is.mu.Unlock()
}

// checkSolution is the per-epoch output check: length N (Session.Step
// already enforces it), every entry a machine, epoch advanced by one.
func checkSolution(assign []int, sh shape, prevEpoch, epoch int) error {
	if len(assign) != sh.n {
		return fmt.Errorf("solution has %d entries, want %d", len(assign), sh.n)
	}
	for _, a := range assign {
		if a < 0 || a >= sh.m {
			return fmt.Errorf("solution entry %d outside [0,%d)", a, sh.m)
		}
	}
	if epoch != prevEpoch+1 {
		return fmt.Errorf("epoch went %d → %d", prevEpoch, epoch)
	}
	return nil
}

// sessionOut is what one session goroutine hands back.
type sessionOut struct {
	hello             float64
	samples           []int64
	attempted, failed int
	tr                *tracer
}

// drive is one closed-loop session: connect, first epoch, wait for the
// window to be fixed, then step until the window closes — no think time,
// one epoch in flight.
func (is *island) drive(ctx context.Context, i int, sess *serve.Session, ready *sync.WaitGroup) (out sessionOut) {
	defer sess.Close()
	desc := is.cfg.desc(i)
	out.tr = is.tr.child(4096)
	readyDone := false
	defer func() {
		if !readyDone {
			ready.Done()
		}
	}()

	sp := out.tr.begin("session.connect", int64(i)<<32, -1)
	t0 := time.Now()
	err := sess.Connect(ctx)
	out.hello = float64(time.Since(t0)) / 1e6
	out.tr.end(sp)
	if err != nil {
		is.flag(fmt.Errorf("session %d connect: %w", i, err))
		return out
	}

	g := newGen(is.seed, i)
	meas := core.MeasurementMsg{Workload: make([]float64, desc.shape.spouts)}
	step := func(k int) (time.Time, time.Duration, error) {
		g.next(&meas)
		prev := sess.Epoch()
		sp := out.tr.begin("session.step", int64(i)<<32|int64(k), -1)
		t0 := time.Now()
		assign, err := sess.Step(ctx, meas)
		t1 := time.Now()
		out.tr.end(sp)
		if err == nil {
			if cerr := checkSolution(assign, desc.shape, prev, sess.Epoch()); cerr != nil {
				is.flag(fmt.Errorf("session %d: %w", i, cerr))
			}
		}
		return t1, t1.Sub(t0), err
	}

	if _, _, err := step(0); err != nil {
		is.flag(fmt.Errorf("session %d first epoch: %w", i, err))
		return out
	}
	ready.Done()
	readyDone = true
	<-is.release
	if is.setupOnly {
		return out
	}

	total := int64(is.cfg.warmEpochs + is.cfg.epochs)
	fails := 0
	for k := 1; ctx.Err() == nil; k++ {
		measured := false
		if is.cfg.epochs > 0 {
			n := is.counter.Add(1)
			if n > total {
				break
			}
			if measured = n > int64(is.cfg.warmEpochs); n == int64(is.cfg.warmEpochs)+1 {
				is.countT0.Store(time.Now().UnixNano())
				close(is.measuring)
			}
		} else if !time.Now().Before(is.end) {
			break
		}
		dropped := is.cfg.dropEvery > 0 && k%is.cfg.dropEvery == 0
		if dropped {
			sess.Close() // the next Step redials and resumes by token
		}
		t1, d, err := step(k)
		if is.cfg.epochs == 0 {
			measured = !t1.Before(is.start) && t1.Before(is.end)
		}
		if measured {
			out.attempted++
		}
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			if measured {
				out.failed++
			}
			if fails++; fails >= 3 {
				is.flag(fmt.Errorf("session %d gave up: %w", i, err))
				break
			}
			continue
		}
		fails = 0
		if dropped && !sess.Resumed() {
			is.flag(fmt.Errorf("session %d: drop at epoch %d was not resumed", i, k))
		}
		if measured {
			out.samples = append(out.samples, int64(d))
			if is.cfg.epochs > 0 {
				for now := t1.UnixNano(); ; {
					old := is.countT1.Load()
					if now <= old || is.countT1.CompareAndSwap(old, now) {
						break
					}
				}
			}
		}
	}
	return out
}

// launch starts the daemon and one goroutine per session, and returns once
// every session has its first epoch acknowledged: the set-up time. The
// sessions then wait for release to be closed.
func (is *island) launch(ctx context.Context, bin, tmp string) (setup float64, err error) {
	if is.d, err = newDaemon(bin, tmp, is.cfg.durable); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := is.d.start(); err != nil {
		return 0, fmt.Errorf("%w\n%s", err, is.d.log)
	}
	is.sessions, is.pools = is.cfg.pools(is.d.addr)
	is.outs = make([]sessionOut, len(is.sessions))
	is.release = make(chan struct{})
	var ready sync.WaitGroup
	ready.Add(len(is.sessions))
	for i, sess := range is.sessions {
		is.wg.Add(1)
		go func() {
			defer is.wg.Done()
			is.outs[i] = is.drive(ctx, i, sess, &ready)
		}()
	}
	ready.Wait()
	setup = time.Since(t0).Seconds()
	is.mu.Lock()
	err = is.checkErr
	is.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, is.d.log)
	}
	return setup, err
}

// teardown waits for the sessions and stops the daemon; it keeps the first
// error.
func (is *island) teardown(err error) error {
	if is.d == nil {
		return err
	}
	is.wg.Wait()
	if serr := is.d.stop(); err == nil {
		err = serr
	}
	return err
}

// runServe runs one serve island: cfg.setups timed launches (all but the
// last torn down at once), the measured window on the last, then
// cfg.restarts SIGKILL/restart cycles on the same data directory.
func runServe(cfg serveCfg, seed int64, bin, tmp string, tr *tracer) (res *serveResult, err error) {
	res = &serveResult{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for rep := 0; rep < cfg.setups-1; rep++ {
		is := &island{cfg: cfg, seed: seed, setupOnly: true}
		setup, err := is.launch(ctx, bin, tmp)
		if is.release != nil {
			close(is.release)
		}
		if err = is.teardown(err); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		res.setups = append(res.setups, setup)
	}

	is := &island{cfg: cfg, seed: seed, tr: tr, measuring: make(chan struct{})}
	defer func() {
		cancel() // sessions still stepping on an error path leave now
		err = is.teardown(err)
	}()
	setup, err := is.launch(ctx, bin, tmp)
	if err != nil {
		if is.release != nil {
			close(is.release)
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.setups = append(res.setups, setup)

	// Fix the window, release the sessions, and sample the daemon at both
	// edges of the measured part.
	now := time.Now()
	is.start = now.Add(time.Duration(cfg.warm * float64(time.Second)))
	is.end = is.start.Add(time.Duration(cfg.window * float64(time.Second)))
	close(is.release)
	done := make(chan struct{})
	go func() { is.wg.Wait(); close(done) }()
	if cfg.epochs > 0 {
		select {
		case <-is.measuring:
		case <-done:
		}
	} else {
		time.Sleep(time.Until(is.start))
	}
	if res.d0, err = is.d.sample(); err != nil {
		return nil, err
	}
	if cfg.epochs == 0 {
		time.Sleep(time.Until(is.end))
	} else {
		<-done
	}
	if res.d1, err = is.d.sample(); err != nil {
		return nil, err
	}
	if res.rssMB, err = is.d.rssMB(); err != nil {
		return nil, err
	}
	<-done
	res.elapsed = cfg.window
	if cfg.epochs > 0 {
		res.elapsed = float64(is.countT1.Load()-is.countT0.Load()) / 1e9
	}

	tokens := make([]string, cfg.sessions)
	lastAck := make([]int, cfg.sessions)
	for i := range is.outs {
		o := &is.outs[i]
		res.hellos = append(res.hellos, o.hello)
		res.attempted += o.attempted
		res.failed += o.failed
		res.samples = append(res.samples, o.samples...)
		if cfg.desc(i).ndjson {
			res.ndj = append(res.ndj, o.samples...)
		} else {
			res.bin = append(res.bin, o.samples...)
		}
		tr.merge(o.tr)
		tokens[i], lastAck[i] = is.sessions[i].Token(), is.sessions[i].Epoch()
	}
	slices.Sort(res.samples)
	slices.Sort(res.bin)
	slices.Sort(res.ndj)
	for _, p := range is.pools {
		st := p.Stats()
		res.retries += st.Retries.Load()
		res.reconnects += st.Reconnects.Load()
		res.resumes += st.Resumes.Load()
	}

	for c := 0; c < cfg.restarts; c++ {
		ms, err := is.recoverOnce(ctx, tokens, lastAck)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w\n%s", c, err, is.d.log)
		}
		res.recovers = append(res.recovers, ms)
	}
	is.mu.Lock()
	res.checkErr = is.checkErr
	is.mu.Unlock()
	return res, nil
}

// recoverOnce SIGKILLs the daemon and restarts it on the same directory and
// ports. Session 0 alone presents its token and runs one epoch: the time
// from the restart's exec to that acknowledgement is what is returned, free
// of contention between reconnecting clients. The other sessions follow, so
// that every token is checked: a durable daemon must resume each one at an
// epoch no later than the last that session saw acknowledged.
func (is *island) recoverOnce(ctx context.Context, tokens []string, lastAck []int) (float64, error) {
	if err := is.d.proc.Kill(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := is.d.start(); err != nil {
		return 0, err
	}
	sessions, _ := is.cfg.pools(is.d.addr)
	resume := func(i int) error {
		sess, desc := sessions[i], is.cfg.desc(i)
		sess.SetToken(tokens[i])
		defer sess.Close()
		if err := sess.Connect(ctx); err != nil {
			return err
		}
		if is.cfg.durable {
			if !sess.Resumed() {
				return fmt.Errorf("token %s was not resumed after SIGKILL", tokens[i])
			}
			if sess.Epoch() > lastAck[i] {
				return fmt.Errorf("token %s resumed at epoch %d, beyond the last acknowledged %d", tokens[i], sess.Epoch(), lastAck[i])
			}
		}
		meas := core.MeasurementMsg{Workload: make([]float64, desc.shape.spouts)}
		newGen(is.seed, i).next(&meas)
		prev := sess.Epoch()
		assign, err := sess.Step(ctx, meas)
		if err != nil {
			return err
		}
		lastAck[i] = sess.Epoch()
		return checkSolution(assign, desc.shape, prev, sess.Epoch())
	}
	if err := resume(0); err != nil {
		return 0, fmt.Errorf("session 0: %w", err)
	}
	ms := float64(time.Since(t0)) / 1e6
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i := 1; i < len(sessions); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = resume(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("session %d: %w", i, err)
		}
	}
	return ms, nil
}
