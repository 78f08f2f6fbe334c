package sched

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/env"
	"repro/internal/topology"
)

// Greedy is the statistics-free baseline (janus-datalog's "when greedy
// beats optimal" question applied to stream scheduling): no measurements,
// no cost-model fitting, no training — one O(N·M·E) pass over static
// topology and cluster structure. Executors are placed in topology order;
// each goes to the machine minimizing speed-normalized accumulated service
// demand, discounted by an affinity bonus for machines already hosting
// upstream executors (co-location avoids serialization + network latency).
// Its value in the tournament is the denominator: per-decision cost is
// nanoseconds, so any quality gap to the DRL policies is the price of
// statistics.
type Greedy struct {
	Top *topology.Topology
	Cl  *cluster.Cluster
	// Affinity weights upstream co-location against load balance; the
	// discount per upstream executor already on a machine is
	// Affinity·(SerializeMS+NetworkMS)/parallelism. Default 1.0.
	Affinity float64

	// LastScheduleNS and LastDecisions record the wall-clock cost of the
	// most recent Schedule call — the tournament reports
	// LastScheduleNS/LastDecisions as per-decision latency alongside
	// solution quality.
	LastScheduleNS int64
	LastDecisions  int
}

// Name implements Scheduler.
func (*Greedy) Name() string { return "Greedy" }

// Schedule implements Scheduler.
func (g *Greedy) Schedule(e env.Environment) ([]int, error) {
	start := time.Now()
	top, cl := g.Top, g.Cl
	n, m := e.N(), e.M()
	if m <= 0 {
		return nil, fmt.Errorf("sched: no machines")
	}
	if n != top.NumExecutors() || m != cl.Size() {
		return nil, fmt.Errorf("sched: greedy configured for %dx%d, environment is %dx%d",
			top.NumExecutors(), cl.Size(), n, m)
	}

	// Static structure: component of each executor, upstream components of
	// each component. Builder order is topological, so by the time an
	// executor is placed its upstream peers already are.
	nc := len(top.Components)
	cidx := make(map[string]int, nc)
	compOf := make([]int, n)
	for i, c := range top.Components {
		cidx[c.Name] = i
		lo, hi := top.ExecutorRange(c.Name)
		for x := lo; x < hi; x++ {
			compOf[x] = i
		}
	}
	ins := make([][]int, nc)
	for _, ed := range top.Edges {
		ins[cidx[ed.To]] = append(ins[cidx[ed.To]], cidx[ed.From])
	}

	affinity := g.Affinity
	if affinity <= 0 {
		affinity = 1.0
	}
	assign := make([]int, n)
	load := make([]float64, m) // accumulated service demand (ms per tuple)
	placed := make([][]int, m) // per machine: executor count per component
	for mm := range placed {
		placed[mm] = make([]int, nc)
	}
	for x := 0; x < n; x++ {
		c := compOf[x]
		cost := top.Components[c].ServiceMeanMS
		best, bestScore := -1, 0.0
		for mm := 0; mm < m; mm++ {
			score := (load[mm] + cost) / cl.Machines[mm].SpeedFactor
			for _, u := range ins[c] {
				if cnt := placed[mm][u]; cnt > 0 {
					score -= affinity * (cl.SerializeMS + cl.NetworkMS) *
						float64(cnt) / float64(top.Components[u].Parallelism)
				}
			}
			// Strict improvement required: ties go to the lowest machine
			// index, keeping the pass deterministic.
			if best == -1 || score < bestScore {
				best, bestScore = mm, score
			}
		}
		assign[x] = best
		load[best] += cost
		placed[best][c]++
	}
	g.LastScheduleNS = time.Since(start).Nanoseconds()
	g.LastDecisions = n
	return assign, nil
}

// PerDecisionNS returns the mean wall-clock nanoseconds per executor
// placement in the most recent Schedule call (0 before any call).
func (g *Greedy) PerDecisionNS() int64 {
	if g.LastDecisions == 0 {
		return 0
	}
	return g.LastScheduleNS / int64(g.LastDecisions)
}
