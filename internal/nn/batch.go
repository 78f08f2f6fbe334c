package nn

import (
	"context"
	"fmt"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// Minibatch passes. A batch of H samples is a row-major H×dim matrix; one
// ForwardBatch/BackwardBatch pair replaces H per-sample Forward/Backward
// calls with three GEMMs per layer (Y = X·Wᵀ, GradW += Δᵀ·X, dX = Δ·W).
// The GEMMs run on mat's blocked multi-core engine by default — sparse
// one-hot-dominated batches hit its zero-skipping fast paths, and a pool
// installed via Network.SetPool shards the row bands across workers
// (bitwise invariant to worker count). In mat.KernelReference mode the
// kernels accumulate in the same order as the per-sample GEMV kernels, so
// batched and per-sample passes agree bitwise; in the default blocked
// mode they agree to ~1e-12 (see internal/mat/gemm.go).
//
// All intermediates live in per-layer workspaces that are allocated on
// first use and reused while the batch size stays constant (the training
// loops use a fixed H), so steady-state batched training does not allocate.

// ensureBatch sizes the layer's minibatch workspace for h rows. The
// backing arrays — including the blocked GEMM engine's packed-tile
// workspace — grow monotonically (mat.Reshape / mat.Workspace), so a
// serving path whose micro-batch size fluctuates request-to-request (see
// internal/serve) reuses one high-water-mark allocation instead of
// reallocating every time the batch size changes.
func (d *Dense) ensureBatch(h int) {
	if d.bIn == nil {
		d.bIn, d.bOut, d.bDelta, d.bDIn = &mat.Matrix{}, &mat.Matrix{}, &mat.Matrix{}, &mat.Matrix{}
		d.ws = &mat.Workspace{}
	}
	d.bIn.Reshape(h, d.In)
	d.bOut.Reshape(h, d.Out)
	d.bDelta.Reshape(h, d.Out)
	d.bDIn.Reshape(h, d.In)
}

// ForwardBatch computes the layer output for every row of x, caching what
// BackwardBatch needs. The returned matrix is owned by the layer and valid
// until the next ForwardBatch call.
func (d *Dense) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: ForwardBatch got %d columns, layer input is %d", x.Cols, d.In))
	}
	d.ensureBatch(x.Rows)
	d.bIn.CopyFrom(x)
	d.pool.add(mat.MatmulNTP(d.bOut, x, d.W, d.ws, d.pool.sem()))
	d.activate(d.bOut)
	return d.bOut
}

// BackwardBatch takes dL/d(output) for the whole batch, accumulates dL/dW
// and dL/db scaled by scale (pass 0 to skip weight gradients when only the
// input gradient is wanted), and returns dL/d(input). The returned matrix
// is owned by the layer and valid until the next BackwardBatch call.
func (d *Dense) BackwardBatch(dOut *mat.Matrix, scale float64) *mat.Matrix {
	return d.backwardBatch(dOut, scale, true)
}

// backwardBatch is BackwardBatch with the input-gradient GEMM optional:
// the first layer of a pure weight-update pass never needs dL/d(input)
// (nothing sits below the network input), and that dX = Δ·W product is a
// dense GEMM as large as the layer's forward pass.
func (d *Dense) backwardBatch(dOut *mat.Matrix, scale float64, needDIn bool) *mat.Matrix {
	if d.bOut == nil || dOut.Rows != d.bOut.Rows || dOut.Cols != d.Out {
		panic(fmt.Sprintf("nn: BackwardBatch got %dx%d, want %dx%d matching the last ForwardBatch",
			dOut.Rows, dOut.Cols, d.bOut.Rows, d.Out))
	}
	for r := 0; r < dOut.Rows; r++ {
		src := dOut.Row(r)
		out := d.bOut.Row(r)
		dst := d.bDelta.Row(r)
		for i, g := range src {
			dst[i] = g * d.Act.derivFromOutput(out[i])
		}
	}
	if scale != 0 {
		d.pool.add(d.GradW.AddMatmulTNScaledP(d.bDelta, d.bIn, scale, d.ws, d.pool.sem()))
		mat.AddColSumScaled(d.GradB, d.bDelta, scale)
	}
	if !needDIn {
		return nil
	}
	d.pool.add(mat.MatmulP(d.bDIn, d.bDelta, d.W, d.ws, d.pool.sem()))
	return d.bDIn
}

// ensureInferCache maintains the layer's inference-only state: the In×Out
// transpose of W that the inference passes multiply against, and their
// output and GEMM workspaces. It is the only writer of d.wt.
//
// The inference passes call it with refresh false: the transpose is built
// on first use and trusted from then on, so a direct write to W (an
// optimizer step, SoftUpdate, HardCopy) is NOT seen by ForwardBatchInfer or
// ForwardGroupedInfer — training paths keep using ForwardBatch. The one
// way to change the weights of a network that has already served is
// Network.Restore, which calls it with refresh true after copying the
// weights in: an existing transpose is rebuilt in place (no reallocation),
// and a layer that has never served stays lazy. Restore must not run
// concurrently with an inference pass on the same network.
func (d *Dense) ensureInferCache(refresh bool) {
	if d.wt == nil {
		if refresh {
			return
		}
		d.wt = mat.NewMatrix(d.In, d.Out)
		d.iOut, d.gBase = &mat.Matrix{}, &mat.Matrix{}
		if d.ws == nil {
			d.ws = &mat.Workspace{}
		}
	} else if !refresh {
		return
	}
	for i := 0; i < d.Out; i++ {
		for j, v := range d.W.Row(i) {
			d.wt.Data[j*d.Out+i] = v
		}
	}
}

// activate applies the layer's bias and activation to every row of m in
// place.
func (d *Dense) activate(m *mat.Matrix) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] = d.Act.apply(row[i] + d.B[i])
		}
	}
}

// forwardBatchInfer is the inference-only batched pass used by the serving
// path (internal/serve): no backprop caches are written, and the layer
// computes Y = X·Wᵀ through the zero-skipping axpy GEMM (mat.Matmul) over
// the cached In×Out transpose of its weights (see ensureInferCache for who
// may change the weights under it). For the serving workload the input
// rows are one-hot dominated (flattened assignment matrices), so skipping
// zero coefficients drops most of the layer-1 multiply-accumulates — the
// layer that dominates inference cost.
//
// Summation order differs from Forward/ForwardBatch (single accumulator
// per output instead of the 4-lane dot), so outputs may differ in the last
// bits — irrelevant for action selection, which is why only the inference
// path uses it.
func (d *Dense) forwardBatchInfer(x *mat.Matrix) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: forwardBatchInfer got %d columns, layer input is %d", x.Cols, d.In))
	}
	d.ensureInferCache(false)
	d.iOut.Reshape(x.Rows, d.Out)
	d.pool.add(mat.MatmulP(d.iOut, x, d.wt, d.ws, d.pool.sem()))
	d.activate(d.iOut)
	return d.iOut
}

// Sharding plan of the grouped pass's gather: fixed bands of groupBand
// groups (a function of the group count alone, never of pool capacity),
// engaged once the gather is at least groupedShardMinAdds additions.
const (
	groupBand           = 8
	groupedShardMinAdds = 1 << 18
)

// forwardGroupedInfer is forwardBatchInfer for input rows that come in
// groups sharing a prefix and ending in a one-hot suffix: group g has
// counts[g] rows, each the concatenation of shared.Row(g) and a suffix
// whose only nonzeros are nHot ones at the positions listed — ascending,
// relative to the start of the suffix — in the row's stretch of hot. The
// prefix product is computed once per group by the same rowwise kernel,
// and each row then adds the nHot weight rows its indices name
// (mat.GatherAddRows). The output is bitwise identical to
// forwardBatchInfer on the materialised rows, in the same row order.
func (d *Dense) forwardGroupedInfer(shared *mat.Matrix, counts []int, hot []int32, nHot int) *mat.Matrix {
	g, sdim := shared.Rows, shared.Cols
	if sdim > d.In || len(counts) != g {
		panic(fmt.Sprintf("nn: forwardGroupedInfer got %d shared columns and %d counts for %d groups, layer input is %d",
			sdim, len(counts), g, d.In))
	}
	d.ensureInferCache(false)
	if cap(d.gOff) < g+1 {
		d.gOff = make([]int, g+1)
	}
	d.gOff = d.gOff[:g+1]
	rows := 0
	for i, c := range counts {
		d.gOff[i] = rows
		rows += c
	}
	d.gOff[g] = rows
	if len(hot) != rows*nHot {
		panic(fmt.Sprintf("nn: forwardGroupedInfer got %d indices for %d rows of %d", len(hot), rows, nHot))
	}

	d.wtShared = mat.Matrix{Rows: sdim, Cols: d.Out, Data: d.wt.Data[:sdim*d.Out]}
	d.wtG = mat.Matrix{Rows: d.In - sdim, Cols: d.Out, Data: d.wt.Data[sdim*d.Out:]}
	d.gBase.Reshape(g, d.Out)
	d.pool.add(mat.MatmulP(d.gBase, shared, &d.wtShared, d.ws, d.pool.sem()))

	d.iOut.Reshape(rows, d.Out)
	bands := (g + groupBand - 1) / groupBand
	if sem := d.pool.sem(); sem == nil || sem.Cap() == 0 || bands < 2 || rows*nHot*d.Out < groupedShardMinAdds {
		d.gatherGroups(0, g, hot, nHot)
	} else {
		_ = parallel.ForEachSem(context.Background(), sem, bands, 0, func(_ context.Context, band int) error {
			d.gatherGroups(band*groupBand, min((band+1)*groupBand, g), hot, nHot)
			return nil
		})
		d.pool.add(bands)
	}
	d.activate(d.iOut)
	return d.iOut
}

// gatherGroups fills the output rows of groups [lo, hi): base row plus the
// gathered weight rows. Rows are independent, so any split is bitwise
// invariant.
func (d *Dense) gatherGroups(lo, hi int, hot []int32, nHot int) {
	for g := lo; g < hi; g++ {
		base := d.gBase.Row(g)
		for r := d.gOff[g]; r < d.gOff[g+1]; r++ {
			mat.GatherAddRows(d.iOut.Row(r), base, &d.wtG, hot[r*nHot:(r+1)*nHot])
		}
	}
}

// ForwardBatchInfer evaluates the network on every row of x through the
// inference-only path (see Dense.forwardBatchInfer for the contract). The
// returned matrix is owned by the final layer and valid until its next
// inference pass.
func (n *Network) ForwardBatchInfer(x *mat.Matrix) *mat.Matrix {
	h := x
	for _, l := range n.Layers {
		h = l.forwardBatchInfer(h)
	}
	return h
}

// ForwardGroupedInfer is ForwardBatchInfer over Σ counts input rows given
// in factored form (see Dense.forwardGroupedInfer): row r of group g is
// shared.Row(g) followed by a one-hot block with ones at hot[r·nHot :
// (r+1)·nHot]. This is the serving path's critic pass — the state is the
// shared prefix, the K-NN candidates are the index lists — and it returns
// bitwise what ForwardBatchInfer returns on the packed rows, so a row's
// value stays independent of the batch it is scored in. Only the first
// layer differs; the rest run forwardBatchInfer. The returned matrix is
// owned by the final layer and valid until its next inference pass.
func (n *Network) ForwardGroupedInfer(shared *mat.Matrix, counts []int, hot []int32, nHot int) *mat.Matrix {
	h := n.Layers[0].forwardGroupedInfer(shared, counts, hot, nHot)
	for _, l := range n.Layers[1:] {
		h = l.forwardBatchInfer(h)
	}
	return h
}

// ForwardBatch evaluates the network on every row of x. The returned matrix
// is owned by the final layer and valid until its next ForwardBatch call.
func (n *Network) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	h := x
	for _, l := range n.Layers {
		h = l.ForwardBatch(h)
	}
	return h
}

// BackwardBatch backpropagates per-row dL/d(output) through the whole stack
// (which must have just run ForwardBatch on the batch of interest),
// accumulating gradients scaled by scale, and returns dL/d(input) per row.
func (n *Network) BackwardBatch(dOut *mat.Matrix, scale float64) *mat.Matrix {
	g := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].BackwardBatch(g, scale)
	}
	return g
}

// BackwardBatchGrads is BackwardBatch for weight updates only: it skips
// the first layer's input-gradient GEMM (dL/dx of the network input,
// which no optimizer consumes — only probes like the actor update's ∇â Q
// need it, and they keep using BackwardBatch). The accumulated gradients
// are identical to BackwardBatch's.
func (n *Network) BackwardBatchGrads(dOut *mat.Matrix, scale float64) {
	g := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].backwardBatch(g, scale, i > 0)
	}
}
