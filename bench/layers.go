package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/actionspace"
	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rl"
	"repro/internal/serve"
)

// probe is one in-process timing of a public function.
type probe struct {
	ns     float64 // median over batches of the mean time per call
	allocs float64 // heap allocations per call
	n      int     // calls timed
}

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink any

// probeBatch is how long one batch of a probe runs at full scale.
const probeBatch = 4 * time.Millisecond

// measure times fn from outside: a warm-up call, a calibration that sizes
// batches to batchTime, then seven batches whose median is kept.
func measure(fn func(), batchTime time.Duration) probe {
	fn()
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if time.Since(t0) >= batchTime || iters >= 1<<22 {
			break
		}
		iters *= 2
	}
	const batches = 7
	per := make([]float64, batches)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(iters)
	}
	runtime.ReadMemStats(&ms1)
	n := batches * iters
	return probe{ns: median(per), allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(n), n: n}
}

// onTwoCores runs fn with two Ps: the only place the benchmark leaves one
// busy thread per process, for the probes that shard a GEMM over a pool of
// two. No daemon is running while the layer probes run.
func onTwoCores(fn func()) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// request is one generated epoch of a session, as the replay and the
// probes consume it.
type request struct {
	session int
	desc    sessDesc
	meas    core.MeasurementMsg
}

// firstRequests regenerates the first n requests of the serve island's
// sessions, round-robin over the sessions — the same streams the live
// sessions sent.
func firstRequests(cfg serveCfg, seed int64, n int) []request {
	gens := make([]*gen, cfg.sessions)
	for i := range gens {
		gens[i] = newGen(seed, i)
	}
	out := make([]request, n)
	for r := range out {
		i := r % cfg.sessions
		d := cfg.desc(i)
		out[r] = request{session: i, desc: d, meas: core.MeasurementMsg{Epoch: r/cfg.sessions + 1, Workload: make([]float64, d.shape.spouts)}}
		gens[i].next(&out[r].meas)
	}
	return out
}

// statesFor encodes h states of a shape from generated requests and random
// current assignments.
func statesFor(sh shape, seed int64, h int) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	space := actionspace.NewSpace(sh.n, sh.m)
	codec := core.NewStateCodec(space, sh.spouts)
	g := newGen(seed, 0)
	meas := core.MeasurementMsg{Workload: make([]float64, sh.spouts)}
	x := mat.NewMatrix(h, codec.Dim())
	for r := 0; r < h; r++ {
		g.next(&meas)
		codec.Encode(space.Random(rng), meas.Workload, x.Row(r))
	}
	return x
}

// seedAgent fills an agent's replay buffer through its public collection
// API so TrainStep performs real updates.
func seedAgent(a *core.ActorCritic, sh shape, count int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, sh.n)
	for i := range assign {
		assign[i] = i % sh.m
	}
	work := make([]float64, sh.spouts)
	for i := range work {
		work[i] = 100 + 10*rng.Float64()
	}
	for i := 0; i < count; i++ {
		next := a.RandomAssignment(assign)
		a.Observe(assign, work, -(1 + rng.Float64()), next, work)
		assign = next
	}
}

func trainStepProbe(sh shape, seed int64, pool *nn.Pool, batchTime time.Duration) probe {
	cfg := core.DefaultACConfig()
	cfg.UpdatesPerStep = 1
	a := core.NewActorCritic(sh.n, sh.m, sh.spouts, cfg, seed)
	seedAgent(a, sh, 2*cfg.BatchSize, seed+1)
	if pool != nil {
		a.SetPool(pool)
	}
	return measure(a.TrainStep, batchTime)
}

var (
	cqSmall = shape{20, 10, 1}
	cqLarge = shape{100, 10, 1}
)

// wireProbe round-trips one epoch (measurement out and back, solution out
// and back) through a Wire over a buffer.
func wireProbe(sh shape, seed int64, binary bool, batchTime time.Duration) probe {
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	w := core.NewWire(br, &buf, 1<<20, binary)
	reqs := firstRequests(serveCfg{sessions: 1, shapes: []shape{sh}}, seed, 1)
	meas := reqs[0].meas
	sol := core.SolutionMsg{Epoch: 7, Assign: actionspace.NewSpace(sh.n, sh.m).Random(rand.New(rand.NewSource(seed)))}
	var gotM core.MeasurementMsg
	var gotS core.SolutionMsg
	var err error
	p := measure(func() {
		buf.Reset()
		br.Reset(&buf)
		if e := w.WriteMeasurement(&meas); e != nil {
			err = e
		}
		if e := w.ReadMeasurement(&gotM); e != nil {
			err = e
		}
		if e := w.WriteSolution(&sol); e != nil {
			err = e
		}
		if e := w.ReadSolution(&gotS); e != nil {
			err = e
		}
	}, batchTime)
	if err != nil || len(gotS.Assign) != sh.n || len(gotM.Workload) != sh.spouts {
		p.ns = math.NaN() // surfaces as an invalid metric rather than a fast one
	}
	return p
}

// epochRecord builds a WAL record shaped like the one the daemon journals
// per served epoch in learning mode.
func epochRecord(req *request, assign []int, epoch int) *durable.Record {
	sh := req.desc.shape
	return &durable.Record{
		T:        durable.RecEpoch,
		Token:    fmt.Sprintf("bench-%04d", req.session),
		Key:      durable.SessionKey{N: sh.n, M: sh.m, Spouts: sh.spouts},
		Gen:      uint64(epoch),
		Epoch:    epoch,
		Assign:   append([]int(nil), assign...),
		Workload: append(durable.F64s(nil), req.meas.Workload...),

		LearnEpoch: epoch, RNGDraws: uint64(epoch),
		NormMeanBits: math.Float64bits(-50), NormVarBits: math.Float64bits(130), NormN: epoch,
		TransSeq: uint64(epoch), RewardBits: math.Float64bits(-0.3),
	}
}

// layerProbes times the public entry points of every layer below serve on
// inputs generated from the workload's seed and primary shape.
func layerProbes(cfg serveCfg, ev *analytic.Evaluator, seed int64, tmp string, batchTime time.Duration) (map[string]probe, error) {
	measure := func(fn func()) probe { return measure(fn, batchTime) }
	out := map[string]probe{}
	sh := cfg.shapes[len(cfg.shapes)-1]
	rng := rand.New(rand.NewSource(seed))

	// serve.Policy.SelectBatch at micro-batch sizes 1 and 64.
	pol := serve.NewPolicy(sh.n, sh.m, sh.spouts, 8, 1)
	for _, h := range []int{1, 64} {
		states := statesFor(sh, seed, h)
		res := make([][]int, h)
		for i := range res {
			res[i] = make([]int, sh.n)
		}
		p := measure(func() { pol.SelectBatch(states, res) })
		p.ns /= float64(h)
		out[fmt.Sprintf("serve.select_batch_us_per_req_b%d", h)] = p
		if h == 64 {
			onTwoCores(func() {
				pol.SetPool(nn.NewPool(parallel.NewSem(1)))
				p := measure(func() { pol.SelectBatch(states, res) })
				p.ns /= float64(h)
				out["serve.select_batch_us_per_req_b64_w2"] = p
				pol.SetPool(nil)
			})
		}
	}

	out["core.wire_bin"] = wireProbe(sh, seed, true, batchTime)
	out["core.wire_ndjson"] = wireProbe(sh, seed, false, batchTime)

	out["core.train_step_ms_cq-small"] = trainStepProbe(cqSmall, seed, nil, batchTime)
	out["core.train_step_ms_cq-large"] = trainStepProbe(cqLarge, seed, nil, batchTime)
	onTwoCores(func() {
		out["core.train_step_ms_w2"] = trainStepProbe(cqLarge, seed, nn.NewPool(parallel.NewSem(1)), batchTime)
	})

	// core.ActorCritic.TrainOnBatch: the daemon's learner path, batch 32 of
	// the workload's shape.
	acfg := core.DefaultACConfig()
	agent := core.NewActorCritic(sh.n, sh.m, sh.spouts, acfg, seed)
	st := statesFor(sh, seed+2, 33)
	space := actionspace.NewSpace(sh.n, sh.m)
	batch := make([]rl.Transition, 32)
	for i := range batch {
		batch[i] = rl.Transition{
			State: st.Row(i), Action: space.Encode(space.Random(rng), nil),
			Reward: -rng.Float64(), NextState: st.Row(i + 1),
		}
	}
	out["core.train_on_batch_ms"] = measure(func() { agent.TrainOnBatch(batch) })

	// nn: the actor at 64 rows, the critic at H·K = 512 candidate rows.
	sdim, adim := sh.n*sh.m+sh.spouts, sh.n*sh.m
	actor := nn.New([]int{sdim, 64, 32, adim}, nn.Tanh, nn.Tanh, rng)
	critic := nn.New([]int{sdim + adim, 64, 32, 1}, nn.Tanh, nn.Identity, rng)
	x64 := statesFor(sh, seed+3, 64)
	out["nn.infer_us_b64"] = measure(func() { sink = actor.ForwardBatchInfer(x64) })
	sa := func(rows int) *mat.Matrix {
		s := statesFor(sh, seed+4, rows)
		x := mat.NewMatrix(rows, sdim+adim)
		for r := 0; r < rows; r++ {
			copy(x.Row(r), s.Row(r))
			space.Encode(space.Random(rng), x.Row(r)[sdim:])
		}
		return x
	}
	x512, x32 := sa(512), sa(32)
	out["nn.infer_us_b512"] = measure(func() { sink = critic.ForwardBatchInfer(x512) })
	dOut := mat.NewMatrix(32, 1)
	dOut.Fill(1)
	out["nn.fwdbwd_ms_b32"] = measure(func() {
		critic.ZeroGrads()
		critic.ForwardBatch(x32)
		sink = critic.BackwardBatch(dOut, 1)
	})

	// mat.MatmulNT at the hot training shape, one-hot dominated and dense.
	onehot, dense := mat.NewMatrix(256, 242), mat.NewMatrix(256, 242)
	for r := 0; r < onehot.Rows; r++ {
		for i := 0; i < 40; i++ {
			onehot.Row(r)[rng.Intn(242)] = 1
		}
	}
	dense.Randomize(rng, 1)
	w := mat.NewMatrix(64, 242)
	w.Randomize(rng, 1)
	dst := mat.NewMatrix(256, 64)
	out["mat.matmul_nt_us_onehot"] = measure(func() { mat.MatmulNT(dst, onehot, w) })
	out["mat.matmul_nt_us_dense"] = measure(func() { mat.MatmulNT(dst, dense, w) })

	// actionspace.KNearestInto at the serving and the training shape.
	for _, k := range []shape{{24, 8, 3}, cqLarge} {
		sp := actionspace.NewSpace(k.n, k.m)
		proto := make([]float64, sp.Dim())
		for i := range proto {
			proto[i] = rng.Float64()
		}
		var knn [][]int
		out[fmt.Sprintf("actionspace.knn_us_%dx%d_k8", k.n, k.m)] = measure(func() { knn = sp.KNearestInto(proto, 8, knn) })
	}

	assign := actionspace.NewSpace(ev.N(), ev.M()).Random(rng)
	out["analytic.eval_us"] = measure(func() { sink = ev.AvgTupleTimeMS(assign) })

	// rl.ShardedReplay: 64 session shards of 256 transitions.
	replay := rl.NewShardedReplay(256)
	keys := make([]string, 64)
	tr := rl.Transition{State: st.Row(0), Action: batch[0].Action, Reward: -1, NextState: st.Row(1)}
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%04d", i)
		for j := 0; j < 256; j++ {
			replay.Add(keys[i], tr)
		}
	}
	var sampled []rl.Transition
	out["rl.sample_us_b32_s64"] = measure(func() { sampled = replay.Sample(rng, 32, sampled) })
	i := 0
	out["rl.add_ns"] = measure(func() { replay.Add(keys[i%64], tr); i++ })

	// durable: append 10k epoch records, sync, then recover them.
	dir, err := os.MkdirTemp(tmp, "wal-") // removed below; on error, with tmp when the run ends
	if err != nil {
		return nil, err
	}
	const recs = 10_000
	lg, _, err := durable.Open(dir, durable.LogConfig{Buffer: 2 * recs})
	if err != nil {
		return nil, err
	}
	reqs := firstRequests(cfg, seed, recs)
	records := make([]*durable.Record, recs)
	for r := range records {
		records[r] = epochRecord(&reqs[r], space.Random(rng), r/cfg.sessions+1)
	}
	t0 := time.Now()
	for _, r := range records {
		lg.Append(r)
	}
	out["durable.append_ns"] = probe{ns: float64(time.Since(t0)) / recs, n: recs}
	t0 = time.Now()
	if err := lg.Sync(); err != nil {
		return nil, err
	}
	out["durable.sync_ms"] = probe{ns: float64(time.Since(t0)), n: 1}
	if err := lg.Close(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	rec, _, err := durable.Recover(dir, durable.LogConfig{})
	if err != nil {
		return nil, err
	}
	if len(rec.Records) != recs {
		return nil, fmt.Errorf("durable.Recover returned %d of %d appended records", len(rec.Records), recs)
	}
	out["durable.recover_us_per_rec"] = probe{ns: float64(time.Since(t0)) / recs, n: recs}
	return out, os.RemoveAll(dir)
}

// replayResult is the stage replay's per-epoch self times, in µs.
type replayResult struct {
	decode, state, actor, knn, critic, journal, encode float64
	n                                                  int
	selectBatchUS                                      float64 // one SelectBatch over a group, per request
	checkErr                                           error
}

func (r replayResult) sum() float64 {
	return r.decode + r.state + r.actor + r.knn + r.critic + r.journal + r.encode
}

// replayStages pushes the first n generated requests of a serve island
// through the request path's public calls, in the order the daemon makes
// them and in groups of batchRows per shape, recording one span per stage.
// It is the benchmark's account of where an epoch's CPU goes without any
// span inside the daemon.
func replayStages(cfg serveCfg, seed int64, n, batchRows int, tmp string, tr *tracer) (replayResult, error) {
	var res replayResult
	if batchRows < 1 {
		batchRows = 1
	}
	reqs := firstRequests(cfg, seed, n)

	type model struct {
		pol    *serve.Policy
		assign [][]int // current solution per session of this shape
		group  []int   // request indexes waiting for a batch
		// batch scratch, grown once: a replay that allocated per batch
		// would time the garbage collector
		states, cand mat.Matrix
		counts       []int
		knn          [][]int
	}
	models := map[shape]*model{}
	for i := 0; i < cfg.sessions; i++ {
		sh := cfg.desc(i).shape
		if models[sh] == nil {
			models[sh] = &model{pol: serve.NewPolicy(sh.n, sh.m, sh.spouts, 8, 1), assign: make([][]int, cfg.sessions)}
		}
		a := make([]int, sh.n)
		for r := range a {
			a[r] = r % sh.m
		}
		models[sh].assign[i] = a
	}

	var lg *durable.Log
	var walDir string // removed below; on error, with tmp when the run ends
	if cfg.durable {
		var err error
		if walDir, err = os.MkdirTemp(tmp, "replay-wal-"); err != nil {
			return res, err
		}
		if lg, _, err = durable.Open(walDir, durable.LogConfig{Buffer: 2 * n}); err != nil {
			return res, err
		}
		defer lg.Close()
	}

	// Wire buffers per framing: the client's encoding of each request is
	// produced outside the spans, the daemon's decoding inside.
	type pipe struct {
		buf bytes.Buffer
		br  *bufio.Reader
		w   *core.Wire
	}
	pipes := map[bool]*pipe{}
	for _, nd := range []bool{false, true} {
		p := &pipe{}
		p.br = bufio.NewReader(&p.buf)
		p.w = core.NewWire(p.br, &p.buf, 1<<20, !nd)
		pipes[nd] = p
	}

	roots := make([]int32, n)
	var meas core.MeasurementMsg
	batchID := int64(0)
	flush := func(sh shape, m *model) error {
		if len(m.group) == 0 {
			return nil
		}
		h := len(m.group)
		batchID++
		bsp := tr.begin("replay.batch", -batchID, -1)
		pol := m.pol
		sdim, adim := pol.Codec.Dim(), pol.Space.Dim()
		states, cand := &m.states, &m.cand
		states.Reshape(h, sdim)
		cand.Reshape(h*pol.K, sdim+adim)
		if cap(m.counts) < h {
			m.counts = make([]int, h)
		}
		counts := m.counts[:h]
		for j, r := range m.group {
			// decode + state happened when the request arrived; redo the
			// (cheap, unspanned) encode into the batch matrix row.
			pol.Codec.Encode(m.assign[reqs[r].session], reqs[r].meas.Workload, states.Row(j))
		}
		sp := tr.begin("replay.actor", -batchID, bsp)
		protos := pol.Actor.ForwardBatchInfer(states)
		tr.end(sp)

		rows := 0
		for j, r := range m.group {
			sp := tr.begin("replay.knn", int64(r), roots[r])
			m.knn = pol.Space.KNearestInto(protos.Row(j), pol.K, m.knn)
			counts[j] = len(m.knn)
			for _, c := range m.knn {
				row := cand.Row(rows)
				copy(row[:sdim], states.Row(j))
				pol.Space.Encode(c, row[sdim:])
				rows++
			}
			tr.end(sp)
		}
		view := mat.Matrix{Rows: rows, Cols: sdim + adim, Data: cand.Data[:rows*(sdim+adim)]}
		sp = tr.begin("replay.critic", -batchID, bsp)
		q := pol.Critic.ForwardBatchInfer(&view)
		tr.end(sp)

		// Cross-check against the daemon's own entry point on one batch.
		var want [][]int
		if batchID == 1 {
			want = make([][]int, h)
			for j := range want {
				want[j] = make([]int, sh.n)
			}
			sp := tr.begin("replay.select_batch", -batchID, bsp)
			t0 := time.Now()
			pol.SelectBatch(states, want)
			res.selectBatchUS = float64(time.Since(t0)) / 1e3 / float64(h)
			tr.end(sp)
		}

		rows = 0
		for j, r := range m.group {
			req := &reqs[r]
			best, bestQ := rows, 0.0
			for c := 0; c < counts[j]; c++ {
				if v := q.Row(rows)[0]; c == 0 || v > bestQ {
					best, bestQ = rows, v
				}
				rows++
			}
			assign := m.assign[req.session]
			copy(assign, pol.Space.Decode(cand.Row(best)[sdim:]))
			if want != nil && !slices.Equal(assign, want[j]) && res.checkErr == nil {
				res.checkErr = fmt.Errorf("replayed actor→K-NN→critic chose %v, SelectBatch chose %v", assign, want[j])
			}
			if err := checkSolution(assign, sh, req.meas.Epoch-1, req.meas.Epoch); err != nil && res.checkErr == nil {
				res.checkErr = err
			}
			if lg != nil {
				sp := tr.begin("replay.journal", int64(r), roots[r])
				lg.Append(epochRecord(req, assign, req.meas.Epoch))
				tr.end(sp)
			}
			p := pipes[req.desc.ndjson]
			p.buf.Reset()
			sp := tr.begin("replay.encode", int64(r), roots[r])
			err := p.w.WriteSolution(&core.SolutionMsg{Epoch: req.meas.Epoch, Assign: assign})
			tr.end(sp)
			if err != nil {
				return err
			}
			tr.end(roots[r])
		}
		tr.end(bsp)
		m.group = m.group[:0]
		return nil
	}

	state := make([]float64, 0, 1024)
	for r := range reqs {
		req := &reqs[r]
		sh := req.desc.shape
		m := models[sh]
		p := pipes[req.desc.ndjson]
		p.buf.Reset()
		p.br.Reset(&p.buf)
		if err := p.w.WriteMeasurement(&req.meas); err != nil {
			return res, err
		}
		roots[r] = tr.begin("replay.request", int64(r), -1)
		sp := tr.begin("replay.decode", int64(r), roots[r])
		err := p.w.ReadMeasurement(&meas)
		tr.end(sp)
		if err != nil {
			return res, err
		}
		sp = tr.begin("replay.state", int64(r), roots[r])
		state = m.pol.Codec.Encode(m.assign[req.session], meas.Workload, state[:m.pol.Codec.Dim()])
		tr.end(sp)
		if m.group = append(m.group, r); len(m.group) == batchRows {
			if err := flush(sh, m); err != nil {
				return res, err
			}
		}
	}
	shapes := make([]shape, 0, len(models))
	for sh := range models {
		shapes = append(shapes, sh)
	}
	sort.Slice(shapes, func(a, b int) bool { return shapes[a].n < shapes[b].n })
	for _, sh := range shapes {
		if err := flush(sh, models[sh]); err != nil {
			return res, err
		}
	}
	if lg != nil {
		// The writer goroutine's share of the journal: one flush of what
		// the appends queued, spread over the requests.
		sp := tr.begin("replay.journal_flush", 0, -1)
		err := lg.Sync()
		tr.end(sp)
		if err == nil {
			err = lg.Close()
		}
		if err == nil {
			err = os.RemoveAll(walDir)
		}
		if err != nil {
			return res, err
		}
	}

	if tr != nil {
		sums := sumByName(tr.spans)
		us := func(name string) float64 { return float64(sums[name]) / 1e3 / float64(n) }
		res.decode, res.state = us("replay.decode"), us("replay.state")
		res.actor, res.knn, res.critic = us("replay.actor"), us("replay.knn"), us("replay.critic")
		res.journal = us("replay.journal") + us("replay.journal_flush")
		res.encode = us("replay.encode")
	}
	res.n = n
	return res, nil
}
