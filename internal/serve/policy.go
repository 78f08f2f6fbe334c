package serve

import (
	"fmt"
	"math/rand"

	"repro/internal/actionspace"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Policy is the serving-side inference engine for one topology shape: the
// exploitation-only actor-critic decision rule of Algorithm 1 (actor
// proto-action → exact K-NN over feasible solutions → critic argmax),
// restructured around the batched kernels so a micro-batch of H requests
// costs one actor GEMM plus one grouped critic pass over all H·K
// candidates, instead of H GEMVs plus H·K critic rows scored one request
// at a time. The candidates are never materialised as (state, action)
// rows: each state enters the critic once, and each candidate is the list
// of action columns K-NN chose (nn.Network.ForwardGroupedInfer).
//
// A Policy owns per-call scratch (including the Space's K-NN workspace),
// so it is confined to a single goroutine — the model's batch loop.
type Policy struct {
	Space  *actionspace.Space
	Codec  *core.StateCodec
	Actor  *nn.Network
	Critic *nn.Network
	K      int

	// pool, when set (SetPool), shards the batched GEMMs' row bands
	// across a shared worker pool; reapplied to networks installed later
	// through SetNetworks.
	pool *nn.Pool

	// scratch, grown to the high-water batch size and reused
	knn       [][]int
	candCount []int
	hot       []int32  // N action columns (executor·M + machine) per candidate
	one       [1][]int // Select's fixed out slice
}

// NewPolicy builds a policy for an n×m action space with numSpouts data
// sources and randomly initialized networks (the paper's serving sizes:
// hidden layers from DefaultACConfig). Trained weights can be installed
// afterwards with SetNetworks.
func NewPolicy(n, m, numSpouts, k int, seed int64) *Policy {
	cfg := core.DefaultACConfig()
	if k <= 0 {
		k = cfg.K
	}
	rng := rand.New(rand.NewSource(seed))
	space := actionspace.NewSpace(n, m)
	codec := core.NewStateCodec(space, numSpouts)
	actorSizes := append(append([]int{codec.Dim()}, cfg.Hidden...), space.Dim())
	criticSizes := append(append([]int{codec.Dim() + space.Dim()}, cfg.Hidden...), 1)
	return &Policy{
		Space:  space,
		Codec:  codec,
		Actor:  nn.New(actorSizes, nn.Tanh, nn.Tanh, rng),
		Critic: nn.New(criticSizes, nn.Tanh, nn.Identity, rng),
		K:      k,
	}
}

// SetNetworks installs trained actor/critic weights (e.g. loaded from a
// cmd/train checkpoint). Dimensions must match the policy's topology.
func (p *Policy) SetNetworks(actor, critic *nn.Network) error {
	if actor.InDim() != p.Codec.Dim() || actor.OutDim() != p.Space.Dim() {
		return fmt.Errorf("serve: actor is %d→%d, policy needs %d→%d",
			actor.InDim(), actor.OutDim(), p.Codec.Dim(), p.Space.Dim())
	}
	if critic.InDim() != p.Codec.Dim()+p.Space.Dim() || critic.OutDim() != 1 {
		return fmt.Errorf("serve: critic is %d→%d, policy needs %d→1",
			critic.InDim(), critic.OutDim(), p.Codec.Dim()+p.Space.Dim())
	}
	p.Actor, p.Critic = actor, critic
	actor.SetPool(p.pool)
	critic.SetPool(p.pool)
	return nil
}

// SetPool installs a GEMM worker pool on the policy's networks — and on
// every network installed later via SetNetworks (weight swaps replace the
// network objects, so the pool must follow them). Nil restores
// single-goroutine execution on the current networks too. Sharding is
// bitwise invariant; the pool only affects latency.
func (p *Policy) SetPool(pool *nn.Pool) {
	p.pool = pool
	p.Actor.SetPool(pool)
	p.Critic.SetPool(pool)
}

// StateDim returns the encoded state length.
func (p *Policy) StateDim() int { return p.Codec.Dim() }

// SelectBatch computes the greedy assignment for every row of states
// (H×StateDim) and writes result i into out[i], which must be length
// Space.N. It allocates nothing once the scratch has grown to the
// high-water batch size.
func (p *Policy) SelectBatch(states *mat.Matrix, out [][]int) {
	p.SelectBatchExplore(states, nil, out)
}

// SelectBatchExplore is SelectBatch with optional per-request exploration:
// noise[i], when non-nil (length Space.Dim()), is added to request i's
// proto-action before the K-NN step — the serving-side form of the
// paper's R(â) = â + ε·I, with the noise drawn by the session so that it
// is deterministic per session no matter how requests are batched. A nil
// noise slice (or nil entries) is pure exploitation.
func (p *Policy) SelectBatchExplore(states *mat.Matrix, noise [][]float64, out [][]int) {
	h := states.Rows
	if len(out) != h {
		panic(fmt.Sprintf("serve: SelectBatch got %d outputs for %d states", len(out), h))
	}
	if noise != nil && len(noise) != h {
		panic(fmt.Sprintf("serve: SelectBatchExplore got %d noise rows for %d states", len(noise), h))
	}
	n, m := p.Space.N, p.Space.M

	// One actor GEMM for the whole micro-batch, through the inference-only
	// path: the state rows are one-hot dominated, so the zero-skipping
	// kernel does ~7× fewer multiply-accumulates on the first layer.
	protos := p.Actor.ForwardBatchInfer(states)
	if noise != nil {
		for i, nz := range noise {
			if nz == nil {
				continue
			}
			row := protos.Row(i)
			for j, v := range nz {
				row[j] += v
			}
		}
	}

	// Exact K-NN per request; each candidate is kept as the ascending list
	// of its one-hot action columns, which is all the critic needs.
	if cap(p.hot) < h*p.K*n {
		p.hot = make([]int32, h*p.K*n)
	}
	if cap(p.candCount) < h {
		p.candCount = make([]int, h)
	}
	candCount := p.candCount[:h]
	rows := 0
	for i := 0; i < h; i++ {
		p.knn = p.Space.KNearestInto(protos.Row(i), p.K, p.knn)
		candCount[i] = len(p.knn)
		for _, cand := range p.knn {
			cols := p.hot[rows*n : (rows+1)*n]
			for e, mach := range cand {
				cols[e] = int32(e*m + mach)
			}
			rows++
		}
	}

	// One critic pass over all H·K candidates, each state scored once
	// (capacity constraints can yield fewer than K candidates per request).
	q := p.Critic.ForwardGroupedInfer(states, candCount, p.hot[:rows*n], n)

	// Per-request critic argmax; the winning action is read back from its
	// column list (the K-NN scratch has been overwritten by later requests
	// by now).
	rows = 0
	for i := 0; i < h; i++ {
		if candCount[i] == 0 {
			// No feasible candidate (over-constrained space): round-robin.
			for r := range out[i] {
				out[i][r] = r % m
			}
			continue
		}
		best, bestQ := rows, 0.0
		for j := 0; j < candCount[i]; j++ {
			if v := q.Row(rows)[0]; j == 0 || v > bestQ {
				best, bestQ = rows, v
			}
			rows++
		}
		for e, col := range p.hot[best*n : (best+1)*n] {
			out[i][e] = int(col) - e*m
		}
	}
}

// Select is the per-request path (micro-batch of one); used when batching
// is disabled and as the baseline in the serving benchmarks.
func (p *Policy) Select(state []float64, out []int) {
	one := mat.Matrix{Rows: 1, Cols: len(state), Data: state}
	p.one[0] = out
	p.SelectBatch(&one, p.one[:])
}
