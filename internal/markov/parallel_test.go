package markov

import (
	"fmt"
	"math/rand"
	"testing"

	"tmark/internal/par"
	"tmark/internal/vec"
)

func testFeatures(rng *rand.Rand, n, d int) [][]float64 {
	f := make([][]float64, n)
	for i := range f {
		f[i] = make([]float64, d)
		for j := range f[i] {
			if rng.Float64() < 0.5 {
				f[i][j] = rng.Float64()
			}
		}
	}
	return f
}

// The parallel feature-channel builds must be bitwise identical to the
// serial ones: every column is computed independently with unchanged
// arithmetic.
func TestFeatureTransitionParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := testFeatures(rng, 40, 6)
	want := FeatureTransition(f)
	p := par.New(4)
	defer p.Close()
	got := FeatureTransitionPar(f, p)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("cell %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestSparseFeatureTransitionCSRParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := testFeatures(rng, 35, 5)
	for _, topK := range []int{1, 4, 10, 40} {
		want := SparseFeatureTransitionCSR(f, topK)
		p := par.New(3)
		got := SparseFeatureTransitionCSRPar(f, topK, p)
		p.Close()
		if want.NNZ() != got.NNZ() {
			t.Fatalf("topK=%d: NNZ %d, want %d", topK, got.NNZ(), want.NNZ())
		}
		for r := 0; r < 35; r++ {
			for c := 0; c < 35; c++ {
				if want.At(r, c) != got.At(r, c) {
					t.Fatalf("topK=%d: At(%d,%d) = %v, want %v", topK, r, c, got.At(r, c), want.At(r, c))
				}
			}
		}
	}
}

// Every cosine column is computed from the shared index by exactly one
// worker with unchanged arithmetic, so the pooled build must be bitwise
// the serial pairwise matrix, and the dense channel bitwise its serial
// normalisation.
func TestCosineMatrixParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 13, 64} {
		f := denseFeatures(rng, n, 8, 1, true)
		want := oracleCosineMatrix(f)
		wantW := oracleNormalize(want, 0)
		for _, workers := range []int{2, 5} {
			p := par.New(workers)
			got := cosineMatrixPar(f, p)
			gotW := FeatureTransitionPar(f, p)
			p.Close()
			requireSameDense(t, fmt.Sprintf("n=%d workers=%d cosine", n, workers), got, want)
			requireSameDense(t, fmt.Sprintf("n=%d workers=%d channel", n, workers), gotW, wantW)
		}
	}
}

// The dense channel normalises each column inside its own column step;
// on a pool that must be bitwise the serial NormalizeColumns of the
// whole cosine matrix, uniform fill of zero columns included.
func TestNormalizeColumnsParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n, d := 1+rng.Intn(40), 1+rng.Intn(40)
		f := denseFeatures(rng, n, d, 0.6, false)
		want := oracleCosineMatrix(f)
		wantZero := want.NormalizeColumns(true)
		p := par.New(3)
		got := FeatureTransitionPar(f, p)
		p.Close()
		requireSameDense(t, fmt.Sprintf("trial %d", trial), got, want)
		// The zero columns of C are exactly the featureless nodes'.
		featureless := 0
		for _, row := range f {
			if vec.Norm2(row) == 0 {
				featureless++
			}
		}
		if featureless != wantZero {
			t.Fatalf("trial %d: %d featureless nodes, want %d zero columns", trial, featureless, wantZero)
		}
	}
}
