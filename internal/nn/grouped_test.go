package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// groupedCase is one candidate batch in factored form (what
// ForwardGroupedInfer takes) and materialised (what ForwardBatchInfer
// takes): groups are requests, shared rows are encoded states — a one-hot
// n×m assignment followed by spout rates — and every candidate is a one-hot
// n×m action.
type groupedCase struct {
	shared *mat.Matrix
	counts []int
	hot    []int32
	nHot   int
	packed *mat.Matrix
}

// newGroupedCase draws a batch whose groups cycle through zero candidates,
// fewer than k, and k, and whose first spout rate is zero in every third
// group.
func newGroupedCase(rng *rand.Rand, n, m, spouts, groups, k int) groupedCase {
	sdim, adim := n*m+spouts, n*m
	c := groupedCase{shared: mat.NewMatrix(groups, sdim), counts: make([]int, groups), nHot: n}
	for g := 0; g < groups; g++ {
		row := c.shared.Row(g)
		for e := 0; e < n; e++ {
			row[e*m+rng.Intn(m)] = 1
		}
		for s := 0; s < spouts; s++ {
			row[adim+s] = rng.Float64()
		}
		if g%3 == 0 {
			row[adim] = 0
		}
		switch g % 5 {
		case 0:
			c.counts[g] = 0
		case 1:
			c.counts[g] = 1 + rng.Intn(k-1)
		default:
			c.counts[g] = k
		}
		for r := 0; r < c.counts[g]; r++ {
			for e := 0; e < n; e++ {
				c.hot = append(c.hot, int32(e*m+rng.Intn(m)))
			}
		}
	}
	c.packed = mat.NewMatrix(len(c.hot)/n, sdim+adim)
	r := 0
	for g, cnt := range c.counts {
		for ; cnt > 0; cnt-- {
			row := c.packed.Row(r)
			copy(row, c.shared.Row(g))
			for _, col := range c.hot[r*n : (r+1)*n] {
				row[sdim+int(col)] = 1
			}
			r++
		}
	}
	return c
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestForwardGroupedInferBitwise: the grouped pass must return, bit for
// bit, what ForwardBatchInfer returns on the materialised rows — for the
// serving shapes, groups of k, fewer than k and zero candidates, a zero
// spout rate in the shared part, every pool size (the gather shards on
// group boundaries), and for a request scored alone as well as inside the
// 64-batch.
func TestForwardGroupedInferBitwise(t *testing.T) {
	const groups, k = 64, 8
	for _, sh := range []struct{ n, m, spouts int }{{12, 4, 2}, {24, 8, 3}, {100, 10, 4}} {
		rng := rand.New(rand.NewSource(int64(sh.n)))
		c := newGroupedCase(rng, sh.n, sh.m, sh.spouts, groups, k)
		sdim := c.shared.Cols
		net := New([]int{c.packed.Cols, 64, 32, 1}, Tanh, Identity, rng)
		want := append([]float64(nil), net.Clone().ForwardBatchInfer(c.packed).Data...)

		for _, tokens := range []int{-1, 0, 1, 3} {
			var pool *Pool
			if tokens >= 0 {
				pool = NewPool(parallel.NewSem(tokens))
			}
			net.SetPool(pool)
			got := net.ForwardGroupedInfer(c.shared, c.counts, c.hot, c.nHot)
			requireSameBits(t, "grouped vs packed", got.Data, want)
			if tokens == 3 && pool.Shards.Load() == 0 {
				t.Fatalf("%dx%d: a pool of 3 dispatched no shards over %d candidate rows", sh.n, sh.m, c.packed.Rows)
			}
		}

		net.SetPool(nil)
		row := 0
		for g, cnt := range c.counts {
			one := mat.Matrix{Rows: 1, Cols: sdim, Data: c.shared.Row(g)}
			got := net.ForwardGroupedInfer(&one, c.counts[g:g+1], c.hot[row*c.nHot:(row+cnt)*c.nHot], c.nHot)
			requireSameBits(t, "group alone vs in the batch", got.Data, want[row:row+cnt])
			row += cnt
		}
	}
}

// TestForwardGroupedInferNoGroups: an empty batch and a batch whose every
// group is empty both yield zero rows.
func TestForwardGroupedInferNoGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := New([]int{10 + 8, 4, 1}, Tanh, Identity, rng)
	if got := net.ForwardGroupedInfer(mat.NewMatrix(0, 10), nil, nil, 4); got.Rows != 0 {
		t.Fatalf("no groups: %d rows", got.Rows)
	}
	if got := net.ForwardGroupedInfer(mat.NewMatrix(2, 10), []int{0, 0}, nil, 4); got.Rows != 0 {
		t.Fatalf("two empty groups: %d rows", got.Rows)
	}
}

// TestRestoreRefreshesGroupedInfer: the grouped pass reads the same weight
// transpose as ForwardBatchInfer, so a Restore after the cache was built
// must be visible to it as well.
func TestRestoreRefreshesGroupedInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := newGroupedCase(rng, 6, 3, 2, 7, 4)
	sizes := []int{c.packed.Cols, 16, 8, 1}
	net := New(sizes, Tanh, Identity, rng)
	net.ForwardGroupedInfer(c.shared, c.counts, c.hot, c.nHot) // builds the cache from the old weights

	donor := New(sizes, Tanh, Identity, rng)
	if err := net.Restore(donor.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	got := net.ForwardGroupedInfer(c.shared, c.counts, c.hot, c.nHot)
	requireSameBits(t, "grouped pass after Restore", got.Data, donor.ForwardBatchInfer(c.packed).Data)
}
