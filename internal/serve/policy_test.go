package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// TestSelectBatchMatchesPerRequest pins the correctness of the serving
// batcher's core amortization: one batched pass over H states must produce
// exactly the decisions of H per-request passes (same networks, greedy
// rule, no exploration noise — so equality is exact, not approximate).
func TestSelectBatchMatchesPerRequest(t *testing.T) {
	const (
		n, m, spouts = 8, 4, 2
		H            = 37 // not a power of two, not the max batch
	)
	batched := NewPolicy(n, m, spouts, 8, 99)
	single := NewPolicy(n, m, spouts, 8, 99) // same seed => identical nets

	rng := rand.New(rand.NewSource(5))
	states := mat.NewMatrix(H, batched.StateDim())
	// Feasible random states: encoded assignment + workloads.
	assign := make([]int, n)
	work := make([]float64, spouts)
	for i := 0; i < H; i++ {
		for j := range assign {
			assign[j] = rng.Intn(m)
		}
		for j := range work {
			work[j] = 500 * rng.Float64()
		}
		batched.Codec.Encode(assign, work, states.Row(i))
	}

	outB := make([][]int, H)
	for i := range outB {
		outB[i] = make([]int, n)
	}
	batched.SelectBatch(states, outB)

	outS := make([]int, n)
	for i := 0; i < H; i++ {
		single.Select(states.Row(i), outS)
		if fmt.Sprint(outB[i]) != fmt.Sprint(outS) {
			t.Fatalf("state %d: batched %v per-request %v", i, outB[i], outS)
		}
	}

	// Feasibility of every batched decision.
	for i, a := range outB {
		for _, mach := range a {
			if mach < 0 || mach >= m {
				t.Fatalf("decision %d infeasible: %v", i, a)
			}
		}
	}
}

// TestSelectBatchSteadyStateAllocs: after warmup at the high-water batch
// size, batched selection must not allocate (the serving hot path).
func TestSelectBatchSteadyStateAllocs(t *testing.T) {
	const n, m, spouts, H = 8, 4, 2, 32
	p := NewPolicy(n, m, spouts, 8, 1)
	states := mat.NewMatrix(H, p.StateDim())
	rng := rand.New(rand.NewSource(2))
	assign := make([]int, n)
	work := []float64{100, 200}
	for i := 0; i < H; i++ {
		for j := range assign {
			assign[j] = rng.Intn(m)
		}
		p.Codec.Encode(assign, work, states.Row(i))
	}
	out := make([][]int, H)
	for i := range out {
		out[i] = make([]int, n)
	}
	p.SelectBatch(states, out) // warm up scratch
	allocs := testing.AllocsPerRun(20, func() {
		p.SelectBatch(states, out)
	})
	if allocs > 0 {
		t.Fatalf("SelectBatch allocates %.1f per call at steady state", allocs)
	}
}

// TestSelectBatchShardingInvariant: the micro-batcher's decisions must be
// identical whether or not the policy's GEMMs shard across a pool, and
// the pool's shard counter (the source of serve_gemm_shards_total) must
// engage for a 64-request batch whose H·K candidate pass crosses the
// sharding threshold.
func TestSelectBatchShardingInvariant(t *testing.T) {
	ref := NewPolicy(24, 8, 3, 8, 77)
	sharded := NewPolicy(24, 8, 3, 8, 77)
	pool := nn.NewPool(parallel.NewSem(3))
	sharded.SetPool(pool)

	states := benchStates(ref, 64, 5)
	want := make([][]int, 64)
	got := make([][]int, 64)
	for i := range want {
		want[i] = make([]int, ref.Space.N)
		got[i] = make([]int, ref.Space.N)
	}
	ref.SelectBatch(states, want)
	sharded.SelectBatch(benchStates(sharded, 64, 5), got)

	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("request %d executor %d: sharded %d != unsharded %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	if pool.Shards.Load() == 0 {
		t.Fatal("expected the 64-request batch to dispatch GEMM shards")
	}
}

// packedSelect is the reference for SelectBatchExplore's critic scoring:
// the same actor → noise → K-NN → argmax chain, but with every candidate
// materialised as a (state, action) row and scored by ForwardBatchInfer —
// the pass the grouped one replaced. It returns the decisions and every
// candidate's Q value in scoring order.
func packedSelect(p *Policy, states *mat.Matrix, noise [][]float64) (out [][]int, q []float64) {
	sdim, adim := p.Codec.Dim(), p.Space.Dim()
	protos := p.Actor.ForwardBatchInfer(states)
	var packed []float64
	var cands [][]int
	counts := make([]int, states.Rows)
	for i := 0; i < states.Rows; i++ {
		proto := append([]float64(nil), protos.Row(i)...)
		if noise != nil && noise[i] != nil {
			for j, v := range noise[i] {
				proto[j] += v
			}
		}
		for _, cand := range p.Space.KNearest(proto, p.K) {
			packed = append(packed, states.Row(i)...)
			packed = append(packed, p.Space.Encode(cand, nil)...)
			cands = append(cands, cand)
			counts[i]++
		}
	}
	q = append(q, p.Critic.ForwardBatchInfer(mat.FromSlice(len(cands), sdim+adim, packed)).Data...)
	row := 0
	for _, cnt := range counts {
		a := make([]int, p.Space.N)
		for r := range a {
			a[r] = r % p.Space.M
		}
		best := row
		for j := 0; j < cnt; j++ {
			if q[row] > q[best] {
				best = row
			}
			row++
		}
		if cnt > 0 {
			a = cands[best]
		}
		out = append(out, a)
	}
	return out, q
}

// TestSelectBatchMatchesPackedCritic: scoring each state once and each
// candidate as an index list must change nothing — the Q values the critic
// returns for the lists the policy built are bitwise those of the packed
// rows, and the decisions are the packed reference's — over the serving
// shapes, capacity-constrained spaces that leave fewer than K or zero
// candidates, a zero spout rate, exploration noise on and off, every pool
// size, and for a request decided alone as well as inside a 64-batch.
func TestSelectBatchMatchesPackedCritic(t *testing.T) {
	const H = 64
	for _, tc := range []struct {
		n, m, spouts int
		capacity     []int
		cands        int // per request
	}{
		{12, 4, 2, nil, 8}, {24, 8, 3, nil, 8}, {100, 10, 4, nil, 8},
		{3, 2, 1, []int{2, 1}, 3}, // 3 feasible assignments: fewer than K candidates
		{3, 2, 1, []int{1, 1}, 0}, // none feasible: the round-robin fallback
	} {
		p := NewPolicy(tc.n, tc.m, tc.spouts, 8, 41)
		p.Space.Capacity = tc.capacity
		n := p.Space.N
		rng := rand.New(rand.NewSource(6))
		states := benchStates(p, H, 3)
		for i := 0; i < H; i += 4 {
			states.Row(i)[p.Space.Dim()] = 0 // a silent spout
		}
		explore := make([][]float64, H)
		for i := 1; i < H; i += 2 { // nil entries stay pure exploitation
			explore[i] = make([]float64, p.Space.Dim())
			for j := range explore[i] {
				explore[i][j] = 0.3 * rng.NormFloat64()
			}
		}
		got := make([][]int, H)
		for i := range got {
			got[i] = make([]int, n)
		}

		for _, noise := range [][][]float64{nil, explore} {
			want, wantQ := packedSelect(p, states, noise)
			if len(wantQ) != H*tc.cands {
				t.Fatalf("%dx%d cap %v: %d candidates for %d requests, case expects %d each", tc.n, tc.m, tc.capacity, len(wantQ), H, tc.cands)
			}
			for _, tokens := range []int{-1, 0, 1, 3} {
				p.SetPool(nil)
				if tokens >= 0 {
					p.SetPool(nn.NewPool(parallel.NewSem(tokens)))
				}
				p.SelectBatchExplore(states, noise, got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%dx%d cap %v, %d tokens: decisions differ from the packed reference\n got %v\nwant %v",
						tc.n, tc.m, tc.capacity, tokens, got, want)
				}
				q := p.Critic.ForwardGroupedInfer(states, p.candCount[:H], p.hot[:len(wantQ)*n], n)
				if len(q.Data) != len(wantQ) {
					t.Fatalf("%dx%d cap %v: %d candidates scored, packed reference has %d", tc.n, tc.m, tc.capacity, len(q.Data), len(wantQ))
				}
				for i, v := range q.Data {
					if math.Float64bits(v) != math.Float64bits(wantQ[i]) {
						t.Fatalf("%dx%d cap %v, %d tokens: Q[%d] = %v, packed %v", tc.n, tc.m, tc.capacity, tokens, i, v, wantQ[i])
					}
				}
			}

			p.SetPool(nil)
			for i := 0; i < H; i++ {
				one := mat.Matrix{Rows: 1, Cols: states.Cols, Data: states.Row(i)}
				var nz [][]float64
				if noise != nil {
					nz = noise[i : i+1]
				}
				p.SelectBatchExplore(&one, nz, got[:1])
				if fmt.Sprint(got[0]) != fmt.Sprint(want[i]) {
					t.Fatalf("%dx%d cap %v: request %d alone chose %v, in the batch %v", tc.n, tc.m, tc.capacity, i, got[0], want[i])
				}
			}
		}
	}
}
