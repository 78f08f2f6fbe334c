package mat

// Batched GEMM entry points for minibatch neural-network passes.
//
// Two execution engines sit behind the three routines (see blocked.go for
// the engine itself and the dispatch rules):
//
//   - the **reference** engine: the PR 1 scalar kernels whose per-row
//     accumulation order matches the per-sample GEMV kernels (MulVec,
//     MulVecT, AddOuterScaled) bitwise — a batched pass over H rows equals
//     H per-sample passes exactly;
//   - the **blocked** engine (default): a register- and cache-blocked GEMM
//     with packed tiles and a 4×4 micro-kernel. It reassociates each
//     output element's reduction (one strict ascending-k chain instead of
//     the GEMV kernels' 4-lane split), so it agrees with the reference
//     engine to ~1e-12 relative error rather than bitwise. Its order is
//     fixed by the shape alone, so results are bitwise reproducible
//     run-to-run and identical for every worker count.
//
// SetKernelMode(KernelReference) forces the reference engine everywhere —
// the mode the bitwise batched-vs-per-sample equivalences hold in.
//
// The P variants (MatmulP, MatmulNTP, AddMatmulTNScaledP) additionally
// shard fixed row bands of the output across a shared parallel.Sem worker
// pool; the plain forms are the P forms with no pool.

// Matmul computes dst = a · b. a is R×K, b is K×C, dst is R×C. dst may not
// alias a or b. The inner loop runs over contiguous rows of b (axpy form)
// and zero coefficients of a are skipped — the shape that keeps
// one-hot-dominated inputs and ReLU backward passes cheap. This form runs
// the rowwise kernels in both engine modes: each output row is computed
// independently of the others, so a row's result is bitwise invariant to
// the batch it arrives in — the property the serving path's
// timing-dependent micro-batching relies on (see blocked.go).
func Matmul(dst, a, b *Matrix) {
	MatmulP(dst, a, b, nil, nil)
}

// MatmulNT computes dst = a · bᵀ. a is R×K, b is C×K (transposed operand),
// dst is R×C. In the reference engine every dst element is a dot product of
// two contiguous row-major rows — the layout of a forward pass Y = X·Wᵀ
// with row-major weights W (Out×In), needing no transposed weight copy. The
// blocked engine packs both operands instead, trading the copy for 4×4
// register reuse.
func MatmulNT(dst, a, b *Matrix) {
	MatmulNTP(dst, a, b, nil, nil)
}

// AddMatmulTNScaled accumulates m += scale · aᵀ · b. a is H×R, b is H×C, m
// is R×C. This is the weight-gradient kernel: with a = batch deltas and b =
// batch inputs it accumulates the same sum of scaled outer products as H
// AddOuterScaled calls (in the same order, in the reference engine).
func (m *Matrix) AddMatmulTNScaled(a, b *Matrix, scale float64) {
	m.AddMatmulTNScaledP(a, b, scale, nil, nil)
}

// Reference band kernels ----------------------------------------------------
//
// Each computes rows [lo, hi) of the output with the PR 1 scalar loops.
// Per output row the arithmetic is identical to the full-range loop, so a
// banded run — sequential or sharded — is bitwise identical to the
// original single-loop kernels.

// matmulRefBand: dst rows [lo, hi) of dst = a·b, axpy form with zero
// skipping on a's coefficients. Consecutive nonzero coefficients are
// consumed in pairs through the fused axpy2 kernel — bitwise identical to
// one axpy per coefficient, with half the dst traffic.
func matmulRefBand(dst, a, b *Matrix, lo, hi int) {
	bc := b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for k < len(arow) {
			f1 := arow[k]
			if f1 == 0 {
				k++
				continue
			}
			k1 := k
			for k++; k < len(arow) && arow[k] == 0; k++ {
			}
			if k == len(arow) {
				axpy(drow, b.Data[k1*bc:(k1+1)*bc], f1)
				break
			}
			axpy2(drow, b.Data[k1*bc:(k1+1)*bc], b.Data[k*bc:(k+1)*bc], f1, arow[k])
			k++
		}
	}
}

// GatherAddRows computes dst = base + Σₖ b.Row(idx[k]), adding the rows in
// the order idx lists them. It is the Matmul row kernel for a coefficient
// row whose remaining nonzeros are all exactly 1 and whose positions the
// caller already holds as integers: with base the product over the
// preceding coefficients and idx ascending, dst is bitwise what
// matmulRefBand computes for the full row (1·w == w, and the additions
// arrive in the same ascending-k order) — without the multiplies and
// without scanning the row for its nonzeros. dst and base have length
// b.Cols; dst may alias base.
func GatherAddRows(dst, base []float64, b *Matrix, idx []int32) {
	c := b.Cols
	if len(dst) != c || len(base) != c {
		shapePanic("GatherAddRows", "%s %s over rows of %s", vec("dst", len(dst)), vec("base", len(base)), dims(b.Rows, c))
	}
	src := base
	k := 0
	for ; k+1 < len(idx); k += 2 {
		i1, i2 := int(idx[k]), int(idx[k+1])
		addRows2(dst, src, b.Data[i1*c:(i1+1)*c], b.Data[i2*c:(i2+1)*c])
		src = dst
	}
	if k < len(idx) {
		i1 := int(idx[k])
		s1 := b.Data[i1*c : (i1+1)*c]
		for t, v := range src {
			dst[t] = v + s1[t]
		}
	} else if k == 0 {
		copy(dst, base)
	}
}

// addRows2 computes dst = (src + s1) + s2: axpy2 with both coefficients 1
// and the accumulator read from src, so the first pair of a gather also
// performs the copy of the base row.
func addRows2(dst, src, s1, s2 []float64) {
	n := len(dst) &^ 3
	src = src[:len(dst)]
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	for t := 0; t < n; t += 4 {
		v0 := src[t] + s1[t]
		v1 := src[t+1] + s1[t+1]
		v2 := src[t+2] + s1[t+2]
		v3 := src[t+3] + s1[t+3]
		dst[t] = v0 + s2[t]
		dst[t+1] = v1 + s2[t+1]
		dst[t+2] = v2 + s2[t+2]
		dst[t+3] = v3 + s2[t+3]
	}
	for t := n; t < len(dst); t++ {
		dst[t] = (src[t] + s1[t]) + s2[t]
	}
}

// matmulNTRefBand: dst rows [lo, hi) of dst = a·bᵀ, dot form. Output
// columns are consumed in pairs through the fused dot2 kernel — bitwise
// identical to one dot per column, loading the shared a row half as often.
func matmulNTRefBand(dst, a, b *Matrix, lo, hi int) {
	bc := b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+1 < b.Rows; j += 2 {
			drow[j], drow[j+1] = dot2(arow, b.Data[j*bc:(j+1)*bc], b.Data[(j+1)*bc:(j+2)*bc])
		}
		if j < b.Rows {
			drow[j] = dot(arow, b.Data[j*bc:(j+1)*bc])
		}
	}
}

// addMatmulTNScaledRefBand: m rows [lo, hi) of m += scale·aᵀ·b. The loop
// is the reference kernel's with the (h, i) loops interchanged; per output
// row i the contributions still arrive in ascending-h order, so the result
// is bitwise identical to the reference kernel.
func addMatmulTNScaledRefBand(m, a, b *Matrix, scale float64, lo, hi int) {
	for h := 0; h < a.Rows; h++ {
		arow := a.Row(h)
		brow := b.Row(h)
		for i := lo; i < hi; i++ {
			ai := arow[i]
			if ai == 0 {
				continue
			}
			axpy(m.Data[i*m.Cols:(i+1)*m.Cols], brow, ai*scale)
		}
	}
}

// AddColSumScaled accumulates dst += scale · column-sums of a: the batched
// bias-gradient kernel. dst has length a.Cols.
func AddColSumScaled(dst []float64, a *Matrix, scale float64) {
	if len(dst) != a.Cols {
		shapePanic("AddColSumScaled", "%s for %s", vec("dst", len(dst)), dims(a.Rows, a.Cols))
	}
	for h := 0; h < a.Rows; h++ {
		row := a.Row(h)
		for j, v := range row {
			dst[j] += scale * v
		}
	}
}
