// Package repro is a from-scratch Go reproduction of
//
//	Li, Xu, Tang, Wang. "Model-Free Control for Distributed Stream Data
//	Processing using Deep Reinforcement Learning." VLDB 2018.
//
// It provides a Storm-like distributed stream data processing substrate (a
// discrete-event simulator plus a fast analytic evaluator), the paper's
// DRL-based model-free scheduling framework (the actor-critic method with
// exact K-nearest-neighbor action selection, and the DQN baseline), the
// comparison schedulers (Storm's default round-robin and the model-based
// SVR predictor of Li et al. TBD'16), the three benchmark applications, and
// runners that regenerate every figure of the paper's evaluation.
//
// Quick start:
//
//	sys, _ := repro.ContinuousQueries(repro.Small)
//	env := repro.NewSimEnv(sys, 1)
//	agent := repro.NewActorCriticAgent(sys, 1)
//	ctrl := repro.NewController(env, agent)
//	ctrl.CollectOffline(500)         // offline phase: random schedules
//	ctrl.OnlineLearn(200, nil)       // online learning
//	best := ctrl.GreedySolution()    // trained scheduling solution
//	fmt.Println(env.AvgTupleTimeMS(best))
//
// See README.md for the system inventory and PERFORMANCE.md for measured
// results.
package repro

import (
	"context"
	mrand "math/rand"

	"repro/internal/actionspace"
	"repro/internal/analytic"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Logical-layer types (see internal/topology).
type (
	// Topology is a validated application graph of spouts and bolts.
	Topology = topology.Topology
	// TopologyBuilder accumulates components and edges.
	TopologyBuilder = topology.Builder
	// Component is a spout or bolt with its cost profile.
	Component = topology.Component
	// Grouping is a tuple-distribution policy.
	Grouping = topology.Grouping
)

// Grouping policies (§2.1).
const (
	Shuffle = topology.Shuffle
	Fields  = topology.Fields
	All     = topology.All
	Global  = topology.Global
)

// NewTopology starts building an application graph.
func NewTopology(name string) *TopologyBuilder { return topology.NewBuilder(name) }

// Physical-layer types (see internal/cluster).
type (
	// Cluster is a set of worker machines plus the network cost model.
	Cluster = cluster.Cluster
	// Machine is one worker machine.
	Machine = cluster.Machine
	// Assignment maps executors to machines (the scheduling solution X).
	Assignment = cluster.Assignment
)

// NewCluster returns m machines patterned on the paper's testbed (10
// slots, 1 Gbps network).
func NewCluster(m int) *Cluster { return cluster.NewUniform(m) }

// Environment is the control-plane contract: deploy an assignment, wait
// for stabilization, measure average end-to-end tuple processing time.
type Environment = env.Environment

// System bundles a benchmark application: topology, cluster and arrivals.
type System = apps.System

// Scale selects the continuous-queries experiment size.
type Scale = apps.Scale

// Continuous-queries scales (§4.1).
const (
	Small  = apps.Small
	Medium = apps.Medium
	Large  = apps.Large
)

// ContinuousQueries builds the continuous-queries benchmark (Figure 3).
func ContinuousQueries(s Scale) (*System, error) { return apps.ContinuousQueries(s) }

// LogStream builds the log stream processing benchmark (Figure 4).
func LogStream() (*System, error) { return apps.LogStream() }

// WordCount builds the streaming word-count benchmark (Figure 5).
func WordCount() (*System, error) { return apps.WordCount() }

// NewSimEnv returns the discrete-event-simulator environment for a system —
// the stand-in for a physical Storm cluster. Evaluations are paired
// (identical arrival randomness across assignments) under one seed.
func NewSimEnv(sys *System, seed int64) Environment {
	return &sim.Env{Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals, Seed: seed}
}

// NewAnalyticEnv returns the fast queueing-approximation environment used
// for training loops (~10⁴× faster than the simulator, same ranking).
func NewAnalyticEnv(sys *System) (Environment, error) {
	return analytic.New(sys.Top, sys.Cl, sys.Arrivals)
}

// Scheduler produces assignments for an environment.
type Scheduler = sched.Scheduler

// NewRoundRobinScheduler returns Storm's default scheduler.
func NewRoundRobinScheduler() Scheduler { return sched.RoundRobin{} }

// NewModelBasedScheduler returns the model-based predictive scheduler of
// Li et al. TBD'16 [25] (linear SVR + local search) for a system.
func NewModelBasedScheduler(sys *System, seed int64) Scheduler {
	return &sched.ModelBased{Top: sys.Top, Cl: sys.Cl, Rng: newRand(seed)}
}

// NewTrafficAwareScheduler returns a T-Storm-style traffic-aware heuristic
// [52], an extra baseline beyond the paper's comparison set.
func NewTrafficAwareScheduler(sys *System) Scheduler {
	return &sched.TrafficAware{Top: sys.Top, Cl: sys.Cl}
}

// NewGreedyScheduler returns the statistics-free greedy baseline: one
// speed-normalized load-balancing pass with upstream affinity, no runtime
// measurements or training.
func NewGreedyScheduler(sys *System) Scheduler {
	return &sched.Greedy{Top: sys.Top, Cl: sys.Cl}
}

// Scheduler registry: the canonical name→factory mapping for the whole
// comparison set, shared by cmd/simulate, the figure pipelines, scenario
// placement and the tournament harness.
type (
	// SchedulerConfig parameterizes registry construction: the system
	// triple, the reproducibility seed, and training budgets/noise for
	// the trainable schedulers.
	SchedulerConfig = sched.Config
	// TrainableScheduler is a Scheduler with an explicit Train(budget) →
	// frozen Schedule lifecycle (the model-based, DQN and actor-critic
	// entries).
	TrainableScheduler = sched.Trainable
)

// SchedulerNames lists the registered schedulers in canonical
// comparison-set order (default, greedy, random, traffic, model, dqn, ac).
func SchedulerNames() []string { return sched.Names() }

// NewRegisteredScheduler constructs any registered scheduler by name.
func NewRegisteredScheduler(name string, cfg SchedulerConfig) (Scheduler, error) {
	return sched.New(name, cfg)
}

// NewSchedulerConfig returns a registry configuration for a system with
// every training knob at its default.
func NewSchedulerConfig(sys *System, seed int64) SchedulerConfig {
	return sched.Config{Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals, Seed: seed}
}

// Simulator is the discrete-event simulator behind NewSimEnv, exposed
// for callers that drive runs window by window.
type Simulator = sim.Sim

// NewSimulator builds a simulator for a system with the paper-default
// configuration.
func NewSimulator(sys *System, seed int64) (*Simulator, error) {
	return sim.New(sim.DefaultConfig(sys.Top, sys.Cl, sys.Arrivals, seed))
}

// ParallelMap runs fn(0..n-1) on a bounded worker pool (workers ≤ 0 means
// one per CPU) and returns the results assembled by index — deterministic
// output order regardless of completion order.
func ParallelMap[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return parallel.Map(context.Background(), n, workers,
		func(_ context.Context, i int) (T, error) { return fn(i) })
}

// DRL control framework (the paper's contribution, §3).
type (
	// Agent is a DRL scheduling agent (actor-critic or DQN).
	Agent = core.Agent
	// Controller drives offline training and online learning.
	Controller = core.Controller
	// ActorCritic is the proposed agent (Algorithm 1).
	ActorCritic = core.ActorCritic
	// DQN is the restricted-action-space baseline agent (§3.2).
	DQN = core.DQN
	// ACConfig holds actor-critic hyperparameters.
	ACConfig = core.ACConfig
	// DQNConfig holds DQN hyperparameters.
	DQNConfig = core.DQNConfig
	// SampleDatabase persists transition samples (Figure 1's Database).
	SampleDatabase = core.Database
)

// DefaultACConfig returns the paper's actor-critic hyperparameters
// (64/32 tanh networks, τ=0.01, γ=0.99, |B|=1000, H=32, K=8).
func DefaultACConfig() ACConfig { return core.DefaultACConfig() }

// DefaultDQNConfig returns the DQN baseline's hyperparameters.
func DefaultDQNConfig() DQNConfig { return core.DefaultDQNConfig() }

// NewActorCriticAgent builds the paper's actor-critic agent for a system.
func NewActorCriticAgent(sys *System, seed int64) *ActorCritic {
	return core.NewActorCritic(sys.Top.NumExecutors(), sys.Cl.Size(), sys.NumSpouts(),
		core.DefaultACConfig(), seed)
}

// NewActorCriticAgentWith builds the agent with custom hyperparameters.
func NewActorCriticAgentWith(sys *System, cfg ACConfig, seed int64) *ActorCritic {
	return core.NewActorCritic(sys.Top.NumExecutors(), sys.Cl.Size(), sys.NumSpouts(), cfg, seed)
}

// NewDQNAgent builds the DQN baseline agent for a system.
func NewDQNAgent(sys *System, seed int64) *DQN {
	return core.NewDQN(sys.Top.NumExecutors(), sys.Cl.Size(), sys.NumSpouts(),
		core.DefaultDQNConfig(), seed)
}

// NewController wires an agent to an environment, starting from the
// round-robin deployment.
func NewController(e Environment, a Agent) *Controller { return core.NewController(e, a) }

// ActionSpace is the N×M scheduling action space with exact K-NN search
// (the MIQP-NN substitute). The K-NN search reuses a workspace owned by
// the space, so an ActionSpace is not safe for concurrent use — give each
// goroutine its own.
type ActionSpace = actionspace.Space

// NewActionSpace returns an unconstrained N×M action space.
func NewActionSpace(n, m int) *ActionSpace { return actionspace.NewSpace(n, m) }

// Workload processes.
type (
	// ArrivalProcess yields spout arrival rates over time.
	ArrivalProcess = workload.ArrivalProcess
	// ConstantRate is a stationary arrival process.
	ConstantRate = workload.ConstantRate
	// StepRate steps the rate at a point in time (Figure 12's +50%).
	StepRate = workload.StepRate
)

// Experiment runners.
type (
	// ExperimentConfig controls training fidelity.
	ExperimentConfig = experiments.Config
	// FigureResult holds a regenerated figure's series.
	FigureResult = experiments.Result
)

// Experiment fidelity presets.
var (
	// FullFidelity follows the paper's budgets (10,000 offline samples).
	FullFidelity = experiments.Defaults
	// ReducedFidelity preserves all qualitative results at ~10× less compute.
	ReducedFidelity = experiments.Reduced
	// QuickFidelity is for smoke tests and benchmarks.
	QuickFidelity = experiments.Quick
)

// Figure runners, one per figure in the paper's evaluation (§4.2).
func Figure6(s Scale, cfg ExperimentConfig) (*FigureResult, error) {
	return experiments.Fig6(context.Background(), s, cfg)
}

// Figure7 regenerates the CQ-large online-learning reward curves.
func Figure7(cfg ExperimentConfig) (*FigureResult, error) {
	return experiments.Fig7(context.Background(), cfg)
}

// Figure8 regenerates the log-stream tuple-time curves.
func Figure8(cfg ExperimentConfig) (*FigureResult, error) {
	return experiments.Fig8(context.Background(), cfg)
}

// Figure9 regenerates the log-stream reward curves.
func Figure9(cfg ExperimentConfig) (*FigureResult, error) {
	return experiments.Fig9(context.Background(), cfg)
}

// Figure10 regenerates the word-count tuple-time curves.
func Figure10(cfg ExperimentConfig) (*FigureResult, error) {
	return experiments.Fig10(context.Background(), cfg)
}

// Figure11 regenerates the word-count reward curves.
func Figure11(cfg ExperimentConfig) (*FigureResult, error) {
	return experiments.Fig11(context.Background(), cfg)
}

// Figure12 regenerates the workload-change comparison for "cq", "log" or
// "wc".
func Figure12(which string, cfg ExperimentConfig) (*FigureResult, error) {
	return experiments.Fig12(context.Background(), which, cfg)
}

// SummarizeFigures aggregates stabilized values into the paper's headline
// claim (average improvement over default and model-based scheduling).
func SummarizeFigures(results []*FigureResult) (overDefault, overModelBased float64, lines []string) {
	return experiments.Summary(results)
}

// Figure id sets accepted by RunFigures.
var (
	// FigureIDs lists every figure of the evaluation in paper order.
	FigureIDs = experiments.FigureIDs
	// TupleTimeFigureIDs lists the figures the headline summary aggregates.
	TupleTimeFigureIDs = experiments.TupleTimeFigureIDs
)

// RunFigures regenerates a whole figure suite on a bounded worker pool
// (cfg.Workers goroutines; 0 means one per CPU, 1 forces sequential). The
// first error cancels figures not yet started; results come back in input
// order and are byte-identical for any worker count.
func RunFigures(ctx context.Context, ids []string, cfg ExperimentConfig) ([]*FigureResult, error) {
	return experiments.RunFigures(ctx, ids, cfg)
}

// newRand builds a seeded math/rand source for facade constructors.
func newRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }
