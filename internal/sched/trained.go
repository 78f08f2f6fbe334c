package sched

// Adapters that make the trained policies — the paper's actor-critic and
// DQN agents and the model-based SVR baseline — first-class Schedulers
// with the registry's Train(budget) → frozen Schedule lifecycle. This is
// what lets scenarios (internal/multisim) and the tournament harness
// place with DRL policies through the same interface as the
// training-free baselines.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/nn"
	"repro/internal/workload"
)

// trainEnv is the mutable-rate analytic environment trainable schedulers
// learn on: a constant-rate snapshot of the configured arrival processes
// (taken at control-plane time 0) whose rates can be rescaled to expose
// the agent to varying workloads.
type trainEnv struct {
	*analytic.Evaluator
	rates map[string]*workload.ConstantRate
	base  map[string]float64
}

func (cfg Config) newTrainEnv() (*trainEnv, error) {
	rates := map[string]*workload.ConstantRate{}
	base := map[string]float64{}
	arr := map[string]workload.ArrivalProcess{}
	for name, p := range cfg.Arrivals {
		r := &workload.ConstantRate{PerSecond: p.RateAt(0)}
		rates[name] = r
		base[name] = r.PerSecond
		arr[name] = r
	}
	ev, err := analytic.New(cfg.Top, cfg.Cl, arr)
	if err != nil {
		return nil, err
	}
	return &trainEnv{Evaluator: ev, rates: rates, base: base}, nil
}

// setScale multiplies all base rates by s.
func (te *trainEnv) setScale(s float64) {
	for name, r := range te.rates {
		r.PerSecond = te.base[name] * s
	}
}

// noisy wraps the training environment with the configured measurement
// jitter (the paper's real-cluster noise model).
func (cfg Config) noisy(te *trainEnv, rngOff, streamOff int64) *env.Noisy {
	return &env.Noisy{
		Environment: te,
		Sigma:       cfg.MeasureSigma,
		Rng:         rand.New(rand.NewSource(cfg.Seed + rngOff)),
		StreamSeed:  cfg.Seed + streamOff,
	}
}

// jitterer perturbs the training workload every few epochs.
type jitterer struct {
	te  *trainEnv
	amp float64
	rng *rand.Rand
}

func (j *jitterer) maybe() {
	if j.amp <= 0 {
		return
	}
	s := 1 + j.amp*(2*j.rng.Float64()-1)
	j.te.setScale(s)
}

// gemmPool returns the worker pool a training run's GEMM row bands shard
// across (nil = sequential kernels). The kernels are bitwise invariant
// to the pool, so this never affects the trained policy.
func (cfg Config) gemmPool() *nn.Pool {
	if cfg.Sem == nil {
		return nil
	}
	return nn.NewPool(cfg.Sem)
}

// checkDims verifies a deployment environment matches the configuration
// the scheduler was built (and trained) for.
func (cfg Config) checkDims(kind string, e env.Environment) error {
	if e.N() != cfg.Top.NumExecutors() || e.M() != cfg.Cl.Size() {
		return fmt.Errorf("sched: %s configured for %d×%d, environment is %d×%d",
			kind, cfg.Top.NumExecutors(), cfg.Cl.Size(), e.N(), e.M())
	}
	return nil
}

// DRL wraps a core DRL agent (actor-critic or DQN) as a Trainable
// Scheduler. Train runs the paper's two-phase loop — offline collection
// of random-schedule transitions, then online learning — against the
// fast analytic environment built from the Config; Schedule then freezes
// the policy and returns its exploitation-only solution for the
// environment's current workload.
type DRL struct {
	cfg     Config
	agent   core.Agent
	ctrl    *core.Controller
	rewards []float64
	trained bool
}

func newDRL(cfg Config, agent core.Agent) *DRL {
	return &DRL{cfg: cfg, agent: agent}
}

// Name implements Scheduler with the agent's paper name
// ("Actor-critic-based DRL" / "DQN-based DRL").
func (d *DRL) Name() string { return d.agent.Name() }

// Trained implements Trainable.
func (d *DRL) Trained() bool { return d.trained }

// Agent exposes the wrapped agent (persistence, serving handoff).
func (d *DRL) Agent() core.Agent { return d.agent }

// Rewards returns the raw online-learning reward history (−ms per
// decision epoch) — the reward-curve figures' input.
func (d *DRL) Rewards() []float64 { return d.rewards }

// Train implements Trainable: offline collection of `budget` random
// transitions (chunked, with workload jitter between chunks) followed by
// online learning. budget ≤ 0 uses Config.TrainBudget (default 500).
// Training happens at most once; later calls are no-ops.
func (d *DRL) Train(budget int) error {
	if d.trained {
		return nil
	}
	cfg := d.cfg
	if budget <= 0 {
		budget = cfg.TrainBudget
	}
	if budget <= 0 {
		budget = 500
	}
	te, err := cfg.newTrainEnv()
	if err != nil {
		return err
	}
	d.ctrl = core.NewController(cfg.noisy(te, seedNoisyRng, seedNoisyStream), d.agent)
	jit := &jitterer{te: te, amp: cfg.WorkloadJitter, rng: rand.New(rand.NewSource(cfg.Seed + seedJitter))}
	if p := cfg.gemmPool(); p != nil {
		type pooled interface{ SetPool(*nn.Pool) }
		if ag, ok := d.agent.(pooled); ok {
			ag.SetPool(p)
		}
	}

	// Offline phase: collect in chunks so the workload can vary between
	// chunks (the paper collects 10,000 samples "for each experimental
	// setup"); within a chunk the rollouts fan out over the pool.
	for remaining := budget; remaining > 0; {
		chunk := 25
		if chunk > remaining {
			chunk = remaining
		}
		if err := d.ctrl.CollectOfflineParallel(chunk, chunk, cfg.Sem, cfg.Workers); err != nil {
			return err
		}
		remaining -= chunk
		jit.maybe()
	}

	// Online phase.
	epochs := cfg.OnlineEpochs
	if epochs <= 0 {
		epochs = budget / 2
	}
	for t := 0; t < epochs; t += 25 {
		n := 25
		if t+n > epochs {
			n = epochs - t
		}
		d.ctrl.OnlineLearn(n, nil)
		jit.maybe()
	}
	// Leave the environment at the base workload so policies extracted
	// without an explicit workload target the nominal rates.
	te.setScale(1)
	d.rewards = d.ctrl.Rewards
	d.trained = true
	return nil
}

// Schedule implements Scheduler: the frozen policy's exploitation-only
// solution for e's current workload (training first with the configured
// budget if Train was never called). The agent's greedy paths are pure —
// repeated calls with the same workload return the same assignment.
func (d *DRL) Schedule(e env.Environment) ([]int, error) {
	if !d.trained {
		if err := d.Train(0); err != nil {
			return nil, err
		}
	}
	if err := d.cfg.checkDims(d.Name(), e); err != nil {
		return nil, err
	}
	return d.Policy(d.ctrl.Assign, e.Workload()), nil
}

// Policy returns the frozen policy's exploitation-only choice from an
// arbitrary state — how a trained agent reacts to a workload change
// without re-training (Figure 12's adaptivity path).
func (d *DRL) Policy(assign []int, work []float64) []int {
	type greedy interface {
		Greedy(assign []int, work []float64) []int
	}
	if g, ok := d.agent.(greedy); ok {
		return g.Greedy(assign, work)
	}
	return append([]int(nil), assign...)
}

// ModelBasedTrained wraps the model-based SVR baseline with the
// Train→Schedule lifecycle: Train fits the predictor on random schedules
// measured on the analytic training environment (with the configured
// measurement noise); Schedule then searches the assignment space under
// the frozen model's guidance for the environment's current workload.
type ModelBasedTrained struct {
	cfg     Config
	mb      *ModelBased
	trained bool
}

func newModelBasedTrained(cfg Config) (Scheduler, error) {
	return &ModelBasedTrained{
		cfg: cfg,
		mb: &ModelBased{
			Top: cfg.Top, Cl: cfg.Cl,
			Rng:     rand.New(rand.NewSource(cfg.Seed + seedModelRng)),
			Samples: cfg.TrainBudget,
			Sem:     cfg.Sem,
			Workers: cfg.Workers,
		},
	}, nil
}

// Name implements Scheduler.
func (t *ModelBasedTrained) Name() string { return t.mb.Name() }

// Trained implements Trainable.
func (t *ModelBasedTrained) Trained() bool { return t.trained }

// Train implements Trainable: measure `budget` random schedules on the
// noisy analytic environment and fit the SVR (budget ≤ 0 uses
// Config.TrainBudget, which zero-defaults to ModelBased's 300).
func (t *ModelBasedTrained) Train(budget int) error {
	if t.trained {
		return nil
	}
	if budget > 0 {
		t.mb.Samples = budget
	}
	te, err := t.cfg.newTrainEnv()
	if err != nil {
		return err
	}
	if err := t.mb.Fit(t.cfg.noisy(te, seedModelNoisy, seedModelStream)); err != nil {
		return err
	}
	t.trained = true
	return nil
}

// Schedule implements Scheduler: local search under the fitted model for
// e's current workload (training first if Train was never called).
func (t *ModelBasedTrained) Schedule(e env.Environment) ([]int, error) {
	if !t.trained {
		if err := t.Train(0); err != nil {
			return nil, err
		}
	}
	if err := t.cfg.checkDims(t.mb.Name(), e); err != nil {
		return nil, err
	}
	return t.mb.Schedule(e)
}

// StaticEnv is a minimal env.Environment carrying fixed dimensions and a
// fixed workload — what a frozen scheduler needs to re-project its
// policy under a hypothetical workload (the Figure 12 workload-change
// reaction). It cannot be measured: trained schedulers never call
// AvgTupleTimeMS after training, and handing a StaticEnv to an untrained
// scheduler is a programming error.
type StaticEnv struct {
	NExec int
	NMach int
	Rates []float64
}

// N implements env.Environment.
func (s StaticEnv) N() int { return s.NExec }

// M implements env.Environment.
func (s StaticEnv) M() int { return s.NMach }

// Workload implements env.Environment.
func (s StaticEnv) Workload() []float64 { return append([]float64(nil), s.Rates...) }

// AvgTupleTimeMS implements env.Environment; a StaticEnv has no system
// behind it, so measuring through it returns NaN (poisoning any model
// fitted against it rather than silently training on zeros).
func (StaticEnv) AvgTupleTimeMS([]int) float64 { return math.NaN() }
