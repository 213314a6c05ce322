package markov

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestKthLargest(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	cases := []struct {
		k    int
		want float64
	}{
		{1, 5}, {2, 4}, {3, 3}, {5, 1},
		{0, 5},  // clamped to 1
		{99, 1}, // clamped to len
	}
	for _, c := range cases {
		cp := append([]float64(nil), xs...)
		if got := kthLargest(cp, c.k); got != c.want {
			t.Errorf("kthLargest(k=%d) = %v, want %v", c.k, got, c.want)
		}
		// The selection only reorders its input.
		if !sameMultiset(cp, xs) {
			t.Errorf("kthLargest(k=%d) left %v, not a permutation of %v", c.k, cp, xs)
		}
	}
	// NaN ranks after every number, ±0 tie, and long runs of equal values
	// select like the sort-based oracle.
	nan := math.NaN()
	rng := rand.New(rand.NewSource(11))
	pool := []float64{nan, 0, math.Copysign(0, -1), 1, 0.5, 0.25, -1, math.Inf(1)}
	for trial := 0; trial < 500; trial++ {
		xs := make([]float64, 1+rng.Intn(30))
		for i := range xs {
			if rng.Float64() < 0.5 {
				xs[i] = pool[rng.Intn(len(pool))]
			} else {
				xs[i] = rng.Float64()
			}
		}
		for k := 1; k <= len(xs); k++ {
			want := oracleKthLargest(xs, k)
			cp := append([]float64(nil), xs...)
			got := kthLargest(cp, k)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d: kthLargest(%v, %d) = %v, want %v", trial, xs, k, got, want)
			}
			if !sameMultiset(cp, xs) {
				t.Fatalf("trial %d: kthLargest(k=%d) left %v, not a permutation of %v", trial, k, cp, xs)
			}
		}
	}
}

// sameMultiset reports whether a and b hold the same values, NaN
// matching NaN and −0 matching +0.
func sameMultiset(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = slices.Clone(a), slices.Clone(b)
	sort.Float64s(a)
	sort.Float64s(b)
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func TestSparseFeatureTransitionTopK(t *testing.T) {
	features := [][]float64{
		{1, 0, 0},
		{0.9, 0.1, 0},
		{0.8, 0.2, 0},
		{0, 0, 1},
		{0, 0.1, 1},
	}
	w := SparseFeatureTransitionCSR(features, 2)
	for j, s := range w.ColumnSums() {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("sparse W column %d sums to %v, must stay column-stochastic", j, s)
		}
	}
	// Each column keeps at most topK strictly-positive entries (ties can
	// add more; none here).
	nonzero := make([]int, 5)
	w.Each(func(_, c int, v float64) {
		if v > 0 {
			nonzero[c]++
		}
	})
	for j, count := range nonzero {
		if count > 3 {
			t.Errorf("column %d kept %d entries, want <= topK+ties", j, count)
		}
	}
}

// topK >= n keeps every entry: the top-K channel is then the dense one.
func TestSparseFeatureTransitionFallsBackToDense(t *testing.T) {
	features := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	dense := FeatureTransition(features)
	for _, k := range []int{3, 99} {
		sparse := SparseFeatureTransitionCSR(features, k)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if sparse.At(i, j) != dense.At(i, j) {
					t.Fatalf("topK=%d should be the dense matrix: (%d,%d) = %v, want %v", k, i, j, sparse.At(i, j), dense.At(i, j))
				}
			}
		}
	}
}

func TestSparseFeatureTransitionStochasticProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		dim := 1 + rng.Intn(6)
		features := make([][]float64, n)
		for i := range features {
			features[i] = make([]float64, dim)
			for d := range features[i] {
				if rng.Float64() < 0.7 {
					features[i][d] = rng.Float64()
				}
			}
		}
		k := 1 + rng.Intn(n)
		w := SparseFeatureTransitionCSR(features, k)
		for j, s := range w.ColumnSums() {
			if math.Abs(s-1) > 1e-8 {
				t.Fatalf("trial %d: sparse W (k=%d) column %d sums to %v", trial, k, j, s)
			}
		}
	}
}

func TestSparseFeatureTransitionCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, dim := 25, 6
	features := make([][]float64, n)
	for i := range features {
		features[i] = make([]float64, dim)
		for d := range features[i] {
			features[i][d] = rng.Float64()
		}
	}
	const k = 5
	dense := oracleNormalize(oracleCosineMatrix(features), k)
	csr := SparseFeatureTransitionCSR(features, k)
	if csr.NNZ() > n*(k+3) {
		t.Errorf("CSR kept %d entries for topK=%d over %d nodes", csr.NNZ(), k, n)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := make([]float64, n)
	got := make([]float64, n)
	dense.MulVec(x, want)
	csr.MulVec(x, got)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Fatalf("CSR MulVec[%d] = %v, dense %v", i, got[i], want[i])
		}
	}
}

func TestSparseFeatureTransitionCSRPanicsOnDenseRequest(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("topK=0 should panic (use FeatureTransition)")
		}
	}()
	SparseFeatureTransitionCSR([][]float64{{1}}, 0)
}
