package mat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	m.Randomize(rng, 2)
	return m
}

// naive reference: dst[i][j] = Σ_k a[i][k]·b[k][j]
func naiveMatmul(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func TestMatmulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {32, 122, 64}, {9, 4, 13}} {
		r, k, c := dims[0], dims[1], dims[2]
		a, b := randMat(rng, r, k), randMat(rng, k, c)
		dst := NewMatrix(r, c)
		Matmul(dst, a, b)
		want := naiveMatmul(a, b)
		for i, v := range dst.Data {
			if math.Abs(v-want.Data[i]) > 1e-12 {
				t.Fatalf("Matmul %dx%dx%d: element %d got %g want %g", r, k, c, i, v, want.Data[i])
			}
		}
	}
}

// TestMatmulNTMatchesMulVec pins the two-tier numerical contract against
// the per-sample GEMV path: bitwise identity in reference mode (the
// kernels share one accumulation order), 1e-12 agreement in the default
// blocked mode (the blocked engine reassociates each reduction).
func TestMatmulNTMatchesMulVec(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    KernelMode
		bitwise bool
	}{
		{"reference", KernelReference, true},
		{"blocked", KernelBlocked, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := SetKernelMode(tc.mode)
			defer SetKernelMode(prev)
			rng := rand.New(rand.NewSource(2))
			a := randMat(rng, 68, 161) // batch of 68 inputs (big enough to engage the blocked engine)
			w := randMat(rng, 23, 161) // Out×In weights
			dst := NewMatrix(68, 23)
			MatmulNT(dst, a, w)
			row := make([]float64, 23)
			for h := 0; h < 68; h++ {
				w.MulVec(row, a.Row(h))
				for j, v := range row {
					if tc.bitwise && dst.At(h, j) != v {
						t.Fatalf("MatmulNT row %d col %d: %g != MulVec %g (must be bitwise identical in reference mode)", h, j, dst.At(h, j), v)
					}
					if d := math.Abs(dst.At(h, j) - v); d > 1e-12 {
						t.Fatalf("MatmulNT row %d col %d: %g vs MulVec %g (|Δ|=%g)", h, j, dst.At(h, j), v, d)
					}
				}
			}
		})
	}
}

// TestAddMatmulTNScaledMatchesOuterSum: same two-tier contract for the
// weight-gradient kernel against per-sample outer products.
func TestAddMatmulTNScaledMatchesOuterSum(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    KernelMode
		bitwise bool
	}{
		{"reference", KernelReference, true},
		{"blocked", KernelBlocked, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := SetKernelMode(tc.mode)
			defer SetKernelMode(prev)
			rng := rand.New(rand.NewSource(3))
			delta := randMat(rng, 41, 29)
			x := randMat(rng, 41, 34)
			got := NewMatrix(29, 34)
			got.Fill(0.5)
			want := got.Clone()
			got.AddMatmulTNScaled(delta, x, 0.25)
			for h := 0; h < 41; h++ {
				want.AddOuterScaled(delta.Row(h), x.Row(h), 0.25)
			}
			for i, v := range got.Data {
				if tc.bitwise && v != want.Data[i] {
					t.Fatalf("element %d: %g != %g (must be bitwise identical in reference mode)", i, v, want.Data[i])
				}
				if d := math.Abs(v - want.Data[i]); d > 1e-12 {
					t.Fatalf("element %d: %g vs %g (|Δ|=%g)", i, v, want.Data[i], d)
				}
			}
		})
	}
}

func TestAddColSumScaled(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := []float64{1, 1, 1}
	AddColSumScaled(dst, a, 2)
	want := []float64{11, 15, 19}
	for i, v := range dst {
		if v != want[i] {
			t.Fatalf("col %d: got %g want %g", i, v, want[i])
		}
	}
}

// BenchmarkMatmul measures the batched forward-pass GEMM at the critic's
// candidate-scoring shape: a 256×242 minibatch against 64×242 weights.
func BenchmarkMatmul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMat(rng, 256, 242)
	w := randMat(rng, 64, 242)
	dst := NewMatrix(256, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatmulNT(dst, x, w)
	}
	b.SetBytes(int64(8 * 256 * 242 * 64))
}

// TestGatherAddRowsMatchesMatmulRow pins the kernel's contract: a base
// product over a row's leading coefficients plus the gathered rows of its
// trailing ones is bitwise the Matmul row over the whole coefficient row —
// for even, odd and empty index lists, an odd width (the unroll tail), an
// odd number of leading nonzeros (where Matmul's axpy2 pairs the last
// prefix coefficient with the first one) and dst aliasing base.
func TestGatherAddRowsMatchesMatmulRow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct{ prefix, suffix, c, nIdx int }{
		{27, 96, 64, 24}, {6, 48, 64, 12}, {5, 20, 7, 3}, {4, 9, 5, 1}, {3, 8, 6, 0}, {0, 30, 64, 10},
	} {
		b := randMat(rng, tc.prefix+tc.suffix, tc.c)
		full := NewMatrix(1, tc.prefix+tc.suffix)
		for k := 0; k < tc.prefix; k++ {
			full.Data[k] = rng.NormFloat64()
		}
		idx := make([]int32, 0, tc.nIdx)
		for _, k := range rng.Perm(tc.suffix)[:tc.nIdx] {
			idx = append(idx, int32(k))
		}
		slices.Sort(idx)
		for _, k := range idx {
			full.Data[tc.prefix+int(k)] = 1
		}
		want := NewMatrix(1, tc.c)
		Matmul(want, full, b)

		head := FromSlice(1, tc.prefix, full.Data[:tc.prefix])
		bHead := FromSlice(tc.prefix, tc.c, b.Data[:tc.prefix*tc.c])
		bTail := FromSlice(tc.suffix, tc.c, b.Data[tc.prefix*tc.c:])
		base := NewMatrix(1, tc.c)
		Matmul(base, head, bHead)
		got := make([]float64, tc.c)
		GatherAddRows(got, base.Data, bTail, idx)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want.Data[j]) {
				t.Fatalf("%+v col %d: gathered %g != Matmul %g", tc, j, got[j], want.Data[j])
			}
		}
		GatherAddRows(base.Data, base.Data, bTail, idx) // in place
		for j := range got {
			if math.Float64bits(base.Data[j]) != math.Float64bits(want.Data[j]) {
				t.Fatalf("%+v col %d: in-place gather %g != Matmul %g", tc, j, base.Data[j], want.Data[j])
			}
		}
	}
}
