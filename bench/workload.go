package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// benchSpec is BENCHMARK.json: the one list of workloads, metrics, units
// and regression bounds. The program emits exactly the metrics it names.
type benchSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Paths) == 0 || s.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: needs paths and run_seconds", path)
	}
	return &s, nil
}

// workload is one named input set. Every run has two islands that never
// overlap in time — a serve island (agentd as a child process under closed-
// loop sessions) and a paper island (train → deploy → simulate, in-process)
// — because every workload must report every end-to-end metric. The
// workload decides which island runs at full size (its home) and what the
// full-size island is asked to do; the other runs as a small fixed probe.
type workload struct {
	name      string
	homePaper bool // the paper island is the full-size one
	serve     serveCfg
	paper     paperCfg
}

var (
	shapeLarge = shape{24, 8, 3}
	shapeSmall = shape{12, 4, 2}
)

// budget scales a training budget with the run length, in whole chunks of
// the 25 samples sched.DRL.Train collects at a time.
func budget(perSecond, seconds float64) int {
	return max(50, 25*int(math.Round(perSecond*seconds/25)))
}

// workloadFor sizes a workload for a run of the given measured length. All
// fixed amounts of work (epochs, training budgets, simulated time) are
// linear in seconds, so a given --seconds always means the same inputs.
func workloadFor(name string, seconds float64) (workload, error) {
	sat := serveCfg{
		sessions: 64, shapes: []shape{shapeLarge},
		window: seconds, warm: seconds / 10,
		setups: 5, restarts: 25,
	}
	lone := sat
	lone.sessions = 2
	dur := serveCfg{
		sessions: 64, shapes: []shape{shapeSmall, shapeLarge}, mixProto: true,
		durable: true, dropEvery: 500,
		epochs: int(12_000 * seconds), warmEpochs: int(1_200 * seconds),
		setups: 5, restarts: 3,
	}
	// A deployment needs at least one 10 s metrics window to have a
	// stabilized reading; two simulated minutes is the full-size figure.
	deployMin := min(2, max(0.25, seconds/5))
	probe := paperCfg{
		smallSeeds: 3, smallBudget: budget(20, seconds),
		deployMin: deployMin, desMin: seconds / 2, mixedMS: 3_000 * seconds, setups: 5,
	}
	switch name {
	case "serve-sat":
		return workload{name: name, serve: sat, paper: probe}, nil
	case "serve-lone":
		return workload{name: name, serve: lone, paper: probe}, nil
	case "serve-durable":
		return workload{name: name, serve: dur, paper: probe}, nil
	case "repro":
		lone.window = seconds / 5
		return workload{name: name, homePaper: true, serve: lone, paper: paperCfg{
			smallSeeds: 3, smallBudget: budget(30, seconds), largeBudget: budget(15, seconds),
			deployMin: deployMin, desMin: 2 * seconds, mixedMS: 12_000 * seconds, setups: 5,
		}}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// runWorkload runs both islands and assembles the record. End-to-end
// metrics always come from an untraced run; a traced run reports the
// per-layer metrics instead, and runs its home island twice — untraced,
// then traced, each at half length — so that the tracing overhead is a
// number.
func (e *env) runWorkload(w workload, seed int64, seconds float64, traced bool) (*runRecord, error) {
	rec := &runRecord{
		Workload: w.name, Seed: seed, Seconds: seconds,
		NProc: runtime.NumCPU(), SharedCore: runtime.NumCPU() < 2,
		Correct: true, Metrics: map[string]metricOut{},
	}
	check := func(err error) {
		if err != nil {
			rec.Correct = false
			rec.Notes = append(rec.Notes, "CHECK FAILED: "+err.Error())
		}
	}
	vals := map[string]value{}

	if !traced {
		sres, err := runServe(w.serve, seed, e.agentd, e.tmp, nil)
		if err != nil {
			return nil, err
		}
		pres, err := runPaper(w.paper, seed, nil)
		if err != nil {
			return nil, err
		}
		check(sres.checkErr)
		check(pres.checkErr)
		rec.Attempted = sres.attempted + pres.attempted
		rec.Failed = sres.failed + pres.failed
		endToEnd(sres, pres, vals, rec)
		emit(e.spec.EndToEnd, vals, rec)
		return rec, nil
	}

	// The untraced twin of the home island, at half length.
	rec.Trace = 1
	scfg, pcfg := w.serve, w.paper
	rate := func(r *serveResult) float64 { return float64(len(r.samples)) / r.elapsed }
	var baseline float64
	if w.homePaper {
		pcfg.smallBudget, pcfg.largeBudget = max(50, pcfg.smallBudget/2), max(50, pcfg.largeBudget/2)
		twin := pcfg
		twin.trainOnly = true
		base, err := runPaper(twin, seed, nil)
		if err != nil {
			return nil, err
		}
		baseline = base.trainS
	} else {
		scfg.window, scfg.epochs = scfg.window/2, scfg.epochs/2
		base, err := runServe(scfg, seed, e.agentd, e.tmp, nil)
		if err != nil {
			return nil, err
		}
		baseline = rate(base)
	}

	tr := newTracer(1 << 18)
	sres, err := runServe(scfg, seed, e.agentd, e.tmp, tr)
	if err != nil {
		return nil, err
	}
	pres, err := runPaper(pcfg, seed, tr)
	if err != nil {
		return nil, err
	}
	check(sres.checkErr)
	check(pres.checkErr)
	rec.Attempted = sres.attempted + pres.attempted
	rec.Failed = sres.failed + pres.failed

	// Replay in groups of the batch size the daemon actually formed.
	rows := 1.0
	if batches := sres.delta("serve_inference_batches_total"); batches > 0 {
		rows = sres.delta("serve_inference_requests_total") / batches
	}
	rp, err := replayStages(scfg, seed, int(1_000*seconds), int(math.Round(rows)), e.tmp, tr)
	if err != nil {
		return nil, err
	}
	check(rp.checkErr)
	probes, err := layerProbes(scfg, pres.evaluator, seed, e.tmp, e.probeBatch)
	if err != nil {
		return nil, err
	}
	perLayer(sres, pres, rp, probes, vals)
	if w.homePaper {
		vals["bench.trace_overhead_pct"] = value{100 * (pres.trainS - baseline) / baseline, 2}
	} else {
		vals["bench.trace_overhead_pct"] = value{100 * (baseline - rate(sres)) / baseline, 2}
	}
	emit(e.spec.PerLayer, vals, rec)
	rec.Notes = append(rec.Notes, fmt.Sprintf(
		"replay: one SelectBatch over a group cost %.2f µs/request against %.2f µs for the actor, K-NN and critic spans",
		rp.selectBatchUS, rp.actor+rp.knn+rp.critic))
	path := filepath.Join(e.outDir, "trace-"+w.name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rec.Notes = append(rec.Notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	return rec, nil
}

// endToEnd fills the end-to-end metrics from the two islands.
func endToEnd(s *serveResult, p *paperResult, vals map[string]value, rec *runRecord) {
	setups := make([]float64, len(s.setups))
	for i := range setups {
		setups[i] = s.setups[i] + p.setups[i%len(p.setups)]
	}
	n := len(s.samples)
	vals["setup_s"] = value{median(setups), len(setups)}
	vals["epochs_per_s"] = value{float64(n) / s.elapsed, n}
	vals["epoch_p50_ms"] = value{ms(percentile(s.samples, 0.50)), n}
	vals["epoch_p99_ms"] = value{ms(percentile(s.samples, 0.99)), n}
	vals["recover_ms"] = value{median(s.recovers), len(s.recovers)}
	vals["train_s"] = value{p.trainS, len(p.ratios)}
	vals["sim_tuples_per_s"] = value{float64(p.tuples) / p.simWallS, int(p.tuples)}
	vals["ac_tuple_ratio"] = value{geomean(p.ratios), len(p.ratios)}
	if q := highestPercentile(n); q > 0.99 {
		rec.Notes = append(rec.Notes, fmt.Sprintf("epoch p%g = %.4f ms (highest percentile with ≥10 of the n=%d samples beyond it)",
			100*q, ms(percentile(s.samples, q)), n))
	}
	if s.failed > 0 {
		rec.Notes = append(rec.Notes, fmt.Sprintf("failed_share = %d/%d: failed steps have no latency and count against every percentile", s.failed, s.attempted))
	}
}

// perLayer fills the per-layer metrics: daemon-side deltas over the
// measured window, client-side counters, the stage replay and the probes.
func perLayer(s *serveResult, p *paperResult, rp replayResult, probes map[string]probe, vals map[string]value) {
	n := len(s.samples)
	reqs := s.delta("serve_requests_total")
	per := func(x float64) float64 {
		if reqs == 0 {
			return 0
		}
		return x / reqs
	}
	ratio := func(num, den string) float64 {
		if d := s.delta(den); d != 0 {
			return s.delta(num) / d
		}
		return 0
	}
	cpuUser, cpuSys := per(1e6*(s.d1.user-s.d0.user)), per(1e6*(s.d1.sys-s.d0.sys))
	vals["serve.cpu_user_us_per_epoch"] = value{cpuUser, int(reqs)}
	vals["serve.cpu_sys_us_per_epoch"] = value{cpuSys, int(reqs)}
	vals["serve.batch_rows_mean"] = value{ratio("serve_inference_requests_total", "serve_inference_batches_total"), int(s.delta("serve_inference_batches_total"))}
	vals["serve.batch_ms_mean"] = value{1e3 * ratio("serve_inference_batch_latency_sum_seconds", "serve_inference_batch_latency_count"), int(s.delta("serve_inference_batch_latency_count"))}
	vals["serve.hello_ms"] = value{median(s.hellos), len(s.hellos)}
	vals["serve.resumes"] = value{float64(s.resumes), n}
	vals["serve.reconnects"] = value{float64(s.reconnects), n}
	vals["serve.retries"] = value{float64(s.retries), n}
	vals["serve.shed_total"] = value{s.delta("serve_requests_shed_total"), int(reqs)}
	vals["serve.p50_ms_binary"] = value{ms(percentile(s.bin, 0.5)), len(s.bin)}
	vals["serve.p50_ms_ndjson"] = value{ms(percentile(s.ndj, 0.5)), len(s.ndj)}
	rounds := s.delta("serve_train_round_latency_count")
	vals["serve.train_rounds_per_s"] = value{rounds / s.elapsed, int(rounds)}
	vals["serve.train_round_ms_mean"] = value{1e3 * ratio("serve_train_round_latency_sum_seconds", "serve_train_round_latency_count"), int(rounds)}
	vals["serve.wal_records_per_epoch"] = value{per(s.delta("serve_wal_records_total")), int(reqs)}
	vals["serve.wal_bytes_per_epoch"] = value{per(s.delta("serve_wal_bytes_total")), int(reqs)}
	vals["serve.wal_dropped"] = value{s.delta("serve_wal_dropped_total"), int(reqs)}
	vals["serve.rss_mb"] = value{s.rssMB, 1}

	vals["serve.replay_decode_us"] = value{rp.decode, rp.n}
	vals["serve.replay_state_us"] = value{rp.state, rp.n}
	vals["serve.replay_actor_us"] = value{rp.actor, rp.n}
	vals["serve.replay_knn_us"] = value{rp.knn, rp.n}
	vals["serve.replay_critic_us"] = value{rp.critic, rp.n}
	vals["serve.replay_journal_us"] = value{rp.journal, rp.n}
	vals["serve.replay_encode_us"] = value{rp.encode, rp.n}
	vals["serve.replay_us_per_epoch"] = value{rp.sum(), rp.n}
	vals["serve.unattributed_us_per_epoch"] = value{cpuUser + cpuSys - rp.sum(), int(reqs)}
	vals["serve.idle_wait_ms"] = value{ms(percentile(s.samples, 0.5)) - rp.sum()/1e3, n}

	us := func(name string) value { return value{probes[name].ns / 1e3, probes[name].n} }
	msv := func(name string) value { return value{probes[name].ns / 1e6, probes[name].n} }
	nsv := func(name string) value { return value{probes[name].ns, probes[name].n} }
	for _, name := range []string{
		"serve.select_batch_us_per_req_b1", "serve.select_batch_us_per_req_b64", "serve.select_batch_us_per_req_b64_w2",
		"nn.infer_us_b64", "nn.infer_us_b512", "mat.matmul_nt_us_onehot", "mat.matmul_nt_us_dense",
		"actionspace.knn_us_24x8_k8", "actionspace.knn_us_100x10_k8", "analytic.eval_us",
		"rl.sample_us_b32_s64", "durable.recover_us_per_rec",
	} {
		vals[name] = us(name)
	}
	for _, name := range []string{
		"core.train_step_ms_cq-small", "core.train_step_ms_cq-large", "core.train_step_ms_w2",
		"core.train_on_batch_ms", "nn.fwdbwd_ms_b32", "durable.sync_ms",
	} {
		vals[name] = msv(name)
	}
	vals["rl.add_ns"] = nsv("rl.add_ns")
	vals["durable.append_ns"] = nsv("durable.append_ns")
	vals["core.wire_bin_ns_per_epoch"] = nsv("core.wire_bin")
	vals["core.wire_ndjson_ns_per_epoch"] = nsv("core.wire_ndjson")
	vals["core.wire_bin_allocs_per_epoch"] = value{probes["core.wire_bin"].allocs, probes["core.wire_bin"].n}
	vals["core.wire_ndjson_allocs_per_epoch"] = value{probes["core.wire_ndjson"].allocs, probes["core.wire_ndjson"].n}
	vals["core.train_step_allocs"] = value{probes["core.train_step_ms_cq-small"].allocs, probes["core.train_step_ms_cq-small"].n}
	// Operation count from the shapes: 2·256·242·64 floating-point
	// operations per dense MatmulNT call.
	vals["mat.gflops_dense"] = value{2 * 256 * 242 * 64 / probes["mat.matmul_nt_us_dense"].ns, probes["mat.matmul_nt_us_dense"].n}

	vals["sim.ns_per_tuple"] = value{p.desNsPerTuple, int(p.desTuples)}
	vals["sim.allocs_per_tuple"] = value{p.desAllocsPerTuple, int(p.desTuples)}
	vals["multisim.ns_per_event"] = value{p.multiNsPerEvent, int(p.multiEvents)}
	vals["sched.train_s_cq-small"] = value{p.trainSmallS, 1}
	vals["sched.train_s_cq-large"] = value{p.trainLargeS, 1}
	vals["sched.schedule_us_ac"] = value{p.schedule.ns / 1e3, p.schedule.n}
}
