package tensor

// Property tests for the stochastic invariants the solver's convergence
// proof (Theorem 1) rests on: whatever COO tensor is ingested, the
// normalised transitions O and R are stochastic along their contraction
// modes, and one blocked ApplyBatch step maps probability columns to
// probability columns. All properties run on both kernel paths (AVX2 and
// the scalar fallback) via runBothKernelPaths.

import (
	"math"
	"math/rand"
	"testing"
)

// propertyTensors draws a spread of random COO shapes: tall, tiny,
// single-relation, duplicate-heavy (Add sums duplicates), dense-ish and
// almost-empty (mostly dangling).
func propertyTensors(rng *rand.Rand) []*Tensor {
	shapes := []struct{ n, m, nnz int }{
		{40, 3, 500},
		{7, 1, 60},
		{25, 6, 25}, // mostly dangling columns/tubes
		{3, 2, 40},  // heavy duplicates over 18 cells
		{64, 4, 2000},
	}
	out := make([]*Tensor, 0, len(shapes)+1)
	for _, s := range shapes {
		out = append(out, randomTensor(rng, s.n, s.m, s.nnz))
	}
	empty := New(9, 2) // all dangling: every column/tube implicit uniform
	empty.Finalize()
	return append(out, empty)
}

// TestPropertyTransitionsStochastic: for random COO input, every column
// o[·,j,k] sums to 1 and every tube r[i,j,·] sums to 1 — the stored ones
// via the package self-checks, a sample of all (including implicit
// dangling) ones via At.
func TestPropertyTransitionsStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for ti, a := range propertyTensors(rng) {
		o := NewNodeTransition(a)
		r := NewRelationTransition(a)
		if !o.ColumnsStochastic(1e-12) {
			t.Errorf("tensor %d: O has a stored column not summing to 1", ti)
		}
		if !r.TubesStochastic(1e-12) {
			t.Errorf("tensor %d: R has a stored tube not summing to 1", ti)
		}
		n, m := o.N(), o.M()
		for trial := 0; trial < 20; trial++ {
			j, k := rng.Intn(n), rng.Intn(m)
			sum := 0.0
			for i := 0; i < n; i++ {
				v := o.At(i, j, k)
				if v < 0 {
					t.Fatalf("tensor %d: o[%d,%d,%d] = %v < 0", ti, i, j, k, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("tensor %d: column (%d,%d) of O sums to %v", ti, j, k, sum)
			}
			i, j2 := rng.Intn(n), rng.Intn(n)
			sum = 0.0
			for k := 0; k < m; k++ {
				v := r.At(i, j2, k)
				if v < 0 {
					t.Fatalf("tensor %d: r[%d,%d,%d] = %v < 0", ti, i, j2, k, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("tensor %d: tube (%d,%d) of R sums to %v", ti, i, j2, sum)
			}
		}
	}
}

// TestPropertyApplyBatchPreservesSimplex: one blocked step keeps every
// column on the probability simplex — non-negative entries summing to 1
// within float tolerance — for the node contraction (O ×̄₁ X ×̄₃ Z) and
// the relation contraction (R ×̄₁ X ×̄₂ X) alike, at the vector strides
// (4, 8), the scalar widths below them and the first width past them, on
// both kernel paths.
func TestPropertyApplyBatchPreservesSimplex(t *testing.T) {
	runBothKernelPaths(t, testPropertyApplyBatchPreservesSimplex)
}

func testPropertyApplyBatchPreservesSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for ti, a := range propertyTensors(rng) {
		o := NewNodeTransition(a)
		r := NewRelationTransition(a)
		n, m := o.N(), o.M()
		if n == 0 {
			continue
		}
		for _, b := range []int{1, 3, 4, 6, 8, 9} {
			x := randomBlock(rng, n, b)
			z := randomBlock(rng, m, b)
			dstX := make([]float64, n*b)
			dstZ := make([]float64, m*b)
			o.ApplyBatch(NewNodeBatchScratch(o, 1, b), x, z, dstX, b)
			r.ApplyBatch(NewRelationBatchScratch(r, 1, b), x, dstZ, b)
			for c := 0; c < b; c++ {
				checkSimplex(t, "O", ti, b, c, column(dstX, n, b, c))
				checkSimplex(t, "R", ti, b, c, column(dstZ, m, b, c))
			}
		}
	}
}

func checkSimplex(t *testing.T, kernel string, ti, b, c int, col []float64) {
	t.Helper()
	sum := 0.0
	for i, v := range col {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("tensor %d, %s width %d, column %d: entry %d = %v", ti, kernel, b, c, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("tensor %d, %s width %d, column %d: mass %v, want 1", ti, kernel, b, c, sum)
	}
}

// TestPropertyApplyBatchFixedPointMass iterates the coupled pair of
// contractions a few steps — the raw eq. (8)/(10) loop without restart
// or features — and checks the simplex survives composition, not just a
// single step (accumulated drift would break the solver's residual
// semantics).
func TestPropertyApplyBatchFixedPointMass(t *testing.T) {
	runBothKernelPaths(t, testPropertyApplyBatchFixedPointMass)
}

func testPropertyApplyBatchFixedPointMass(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randomTensor(rng, 30, 3, 400)
	o := NewNodeTransition(a)
	r := NewRelationTransition(a)
	const b = 8
	n, m := o.N(), o.M()
	so := NewNodeBatchScratch(o, 1, b)
	sr := NewRelationBatchScratch(r, 1, b)
	x, z := randomBlock(rng, n, b), randomBlock(rng, m, b)
	xn, zn := make([]float64, n*b), make([]float64, m*b)
	for step := 0; step < 10; step++ {
		o.ApplyBatch(so, x, z, xn, b)
		r.ApplyBatch(sr, x, zn, b)
		x, xn = xn, x
		z, zn = zn, z
		for c := 0; c < b; c++ {
			checkSimplex(t, "O∘R", step, b, c, column(x, n, b, c))
			checkSimplex(t, "R∘O", step, b, c, column(z, m, b, c))
		}
	}
}
