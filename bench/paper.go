package main

import (
	_ "embed"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/actionspace"
	"repro/internal/analytic"
	"repro/internal/apps"
	"repro/internal/multisim"
	"repro/internal/sched"
	"repro/internal/sim"
)

// mixed4 is the benchmark's own copy of examples/scenarios/mixed4.ndjson:
// the inputs of a benchmark must not move when an example is edited.
//
//go:embed mixed4.ndjson
var mixed4 string

// mixedCompleted is the number of tuples mixed4 (which carries its own
// seed) completes by a given simulated horizon, recorded at the commit
// that defined the benchmark. A DES change that alters it is a behaviour
// change, not an optimisation. Horizons not listed are not checked.
var mixedCompleted = map[float64]int64{30_000: 252_003, 120_000: 1_084_071}

// paperCfg describes the paper island of a workload: the offline pipeline
// of the paper, in-process, on one core.
type paperCfg struct {
	smallSeeds  int     // actor-critic trainings on cq-small, seeds s, s+1, …
	smallBudget int     // their budget (offline samples)
	largeBudget int     // budget of one training on cq-large, seed s; 0 = none
	deployMin   float64 // simulated minutes per deployment on the DES
	desMin      float64 // DES throughput: `default` on cq-large, simulated minutes
	mixedMS     float64 // DES throughput: mixed4 on multisim, simulated ms
	setups      int     // constructions timed for setup_s
	trainOnly   bool    // stop after the trainings (the untraced half of a traced run)
}

type paperResult struct {
	setups                 []float64 // seconds per construction
	trainS                 float64
	trainSmallS            float64
	trainLargeS            float64
	ratios                 []float64 // AC stabilized ms ÷ default stabilized ms, per training
	tuples                 int64     // completed in the DES-throughput phase
	simWallS               float64
	desNsPerTuple          float64
	desAllocsPerTuple      float64
	multiNsPerEvent        float64
	schedule               probe
	attempted, failed      int // trainings, deployments and DES runs
	checkErr               error
	evaluator              *analytic.Evaluator
	desTuples, multiEvents int64
}

type training struct {
	sys    *apps.System
	seed   int64
	budget int
	s      sched.Scheduler
}

// buildPaper constructs everything the island needs before any timed work:
// both systems, the cq-large evaluator and one untrained scheduler per
// training, through the registry.
func buildPaper(cfg paperCfg, seed int64) (small, large *apps.System, ev *analytic.Evaluator, ts []training, err error) {
	if small, err = apps.ContinuousQueries(apps.Small); err != nil {
		return
	}
	if large, err = apps.ContinuousQueries(apps.Large); err != nil {
		return
	}
	if ev, err = analytic.New(large.Top, large.Cl, large.Arrivals); err != nil {
		return
	}
	add := func(sys *apps.System, seed int64, budget int) error {
		s, err := sched.New("ac", sched.Config{
			Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals,
			Seed: seed, TrainBudget: budget, Workers: 1,
		})
		ts = append(ts, training{sys: sys, seed: seed, budget: budget, s: s})
		return err
	}
	for i := 0; i < cfg.smallSeeds; i++ {
		if err = add(small, seed+int64(i), cfg.smallBudget); err != nil {
			return
		}
	}
	if cfg.largeBudget > 0 {
		err = add(large, seed, cfg.largeBudget)
	}
	return
}

// deploy runs one assignment on a fresh DES and checks tuple conservation.
func deploy(sys *apps.System, assign []int, seed int64, minutes float64) (*sim.Sim, error) {
	s, err := sim.New(sim.DefaultConfig(sys.Top, sys.Cl, sys.Arrivals, seed))
	if err != nil {
		return nil, err
	}
	if err := s.Deploy(assign); err != nil {
		return nil, err
	}
	s.RunUntil(minutes * 60_000)
	return s, conserved(sys.Name, s)
}

// conserved checks emitted = completed + outstanding + dropped. Replays
// re-emit a root under a new id, so each one adds an emission whose
// predecessor never completes.
func conserved(name string, s *sim.Sim) error {
	if got, want := s.Emitted(), s.Completed()+int64(s.Outstanding())+s.Dropped()+s.Replayed(); got != want {
		return fmt.Errorf("%s: emitted %d ≠ completed %d + outstanding %d + dropped %d + replayed %d",
			name, got, s.Completed(), s.Outstanding(), s.Dropped(), s.Replayed())
	}
	return nil
}

func sameRun(a, b *sim.Sim) bool {
	wa, wb := a.Windows(), b.Windows()
	if len(wa) != len(wb) || a.Completed() != b.Completed() || a.Emitted() != b.Emitted() {
		return false
	}
	for i := range wa {
		if wa[i] != wb[i] {
			return false
		}
	}
	return true
}

func runPaper(cfg paperCfg, seed int64, tr *tracer) (*paperResult, error) {
	res := &paperResult{}
	var (
		small, large *apps.System
		ts           []training
		err          error
	)
	for rep := 0; rep < max(cfg.setups, 1); rep++ {
		t0 := time.Now()
		if small, large, res.evaluator, ts, err = buildPaper(cfg, seed); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	flag := func(err error) {
		res.failed++
		if res.checkErr == nil {
			res.checkErr = err
		}
	}

	for i, t := range ts {
		res.attempted++
		sp := tr.begin("sched.train:"+t.sys.Name, int64(i), -1)
		t0 := time.Now()
		err := t.s.(sched.Trainable).Train(t.budget)
		d := time.Since(t0).Seconds()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("train %s seed %d: %w", t.sys.Name, t.seed, err)
		}
		res.trainS += d
		if t.sys == small {
			res.trainSmallS += d
		} else {
			res.trainLargeS += d
		}
	}
	if cfg.trainOnly {
		return res, nil
	}

	// Deploy every trained policy and `default` on the DES, same seed.
	rr := sched.RoundRobin{}
	baseline := map[*apps.System]float64{}
	for _, sys := range []*apps.System{small, large} {
		if sys == large && cfg.largeBudget == 0 {
			continue
		}
		res.attempted++
		assign, _ := rr.Schedule(&sim.Env{Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals, Seed: seed})
		sp := tr.begin("sim.deploy:default:"+sys.Name, int64(len(ts)), -1)
		s, err := deploy(sys, assign, seed, cfg.deployMin)
		tr.end(sp)
		if err != nil {
			flag(err)
			continue
		}
		baseline[sys] = s.AvgOverLastWindows(5)
		if sys == small {
			// Same seed, same code: the rerun must be bitwise equal.
			again, err := deploy(sys, assign, seed, cfg.deployMin)
			if err != nil || !sameRun(s, again) {
				flag(fmt.Errorf("%s: same-seed DES rerun differs", sys.Name))
			}
		}
	}
	for i, t := range ts {
		res.attempted++
		env := &sim.Env{Top: t.sys.Top, Cl: t.sys.Cl, Arrivals: t.sys.Arrivals, Seed: seed}
		assign, err := t.s.Schedule(env)
		if err != nil {
			flag(err)
			continue
		}
		if !actionspace.NewSpace(env.N(), env.M()).Feasible(assign) {
			flag(fmt.Errorf("%s seed %d: AC assignment infeasible: %v", t.sys.Name, t.seed, assign))
			continue
		}
		if i == 0 {
			res.schedule = measure(func() { _, _ = t.s.Schedule(env) }, probeBatch)
		}
		sp := tr.begin("sim.deploy:ac:"+t.sys.Name, int64(i), -1)
		s, err := deploy(t.sys, assign, seed, cfg.deployMin)
		tr.end(sp)
		if err != nil {
			flag(err)
			continue
		}
		if base := baseline[t.sys]; base > 0 {
			res.ratios = append(res.ratios, s.AvgOverLastWindows(5)/base)
		}
	}

	// DES throughput: one long single-topology run, one shared-cluster run.
	res.attempted += 2
	assign, _ := rr.Schedule(&sim.Env{Top: large.Top, Cl: large.Cl, Arrivals: large.Arrivals, Seed: seed})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := tr.begin("sim.run:default:"+large.Name, -1, -1)
	t0 := time.Now()
	s, err := deploy(large, assign, seed, cfg.desMin)
	desWall := time.Since(t0).Seconds()
	tr.end(sp)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		flag(err)
	} else {
		res.desTuples = s.Completed()
		res.desNsPerTuple = desWall * 1e9 / float64(s.Completed())
		res.desAllocsPerTuple = float64(ms1.Mallocs-ms0.Mallocs) / float64(s.Completed())
	}

	sc, err := multisim.Load(strings.NewReader(mixed4))
	if err != nil {
		return nil, err
	}
	m, err := multisim.Build(sc, false)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("multisim.run:mixed4", -2, -1)
	t0 = time.Now()
	m.RunUntil(cfg.mixedMS)
	mixWall := time.Since(t0).Seconds()
	tr.end(sp)
	var mixTuples int64
	for _, inst := range m.Instances() {
		mixTuples += inst.Sim.Completed()
		if err := conserved(inst.Name, inst.Sim); err != nil {
			flag(err)
		}
	}
	if want, ok := mixedCompleted[cfg.mixedMS]; ok && mixTuples != want {
		flag(fmt.Errorf("mixed4 completed %d tuples by %.0f ms, recorded checksum is %d", mixTuples, cfg.mixedMS, want))
	}
	res.multiEvents = m.EventsProcessed()
	res.multiNsPerEvent = mixWall * 1e9 / float64(m.EventsProcessed())
	res.tuples = res.desTuples + mixTuples
	res.simWallS = desWall + mixWall
	return res, nil
}
