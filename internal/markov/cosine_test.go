package markov

import (
	"math"
	"testing"

	"tmark/internal/par"
	"tmark/internal/vec"
)

// cosineMatrix assembles the cosine matrix C from the column kernel.
func cosineMatrix(features [][]float64) *vec.Matrix {
	return cosineMatrixPar(features, nil)
}

// cosineMatrixPar is cosineMatrix with the columns spread over the pool,
// every worker reading the one shared index as the channel builds do.
func cosineMatrixPar(features [][]float64, p *par.Pool) *vec.Matrix {
	n := len(features)
	m := vec.NewMatrix(n, n)
	x := newCosineIndex(features)
	p.For(n, func(lo, hi int) {
		col := make([]float64, n)
		for j := lo; j < hi; j++ {
			x.column(j, col)
			for i, c := range col {
				m.Data[i*n+j] = c
			}
		}
	})
	return m
}

func TestCosineMatrix(t *testing.T) {
	feats := [][]float64{
		{1, 0},
		{1, 0},
		{0, 1},
		{0, 0}, // featureless node
	}
	c := cosineMatrix(feats)
	if got := c.At(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical features cosine = %v, want 1", got)
	}
	if got := c.At(0, 2); got != 0 {
		t.Errorf("orthogonal features cosine = %v, want 0", got)
	}
	if got := c.At(3, 3); got != 0 {
		t.Errorf("featureless diagonal = %v, want 0", got)
	}
	if got := c.At(0, 3); got != 0 {
		t.Errorf("featureless off-diagonal = %v, want 0", got)
	}
	// Symmetry.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if c.At(i, j) != c.At(j, i) {
				t.Fatalf("cosine matrix not symmetric at %d,%d", i, j)
			}
		}
	}
	// Every column is bitwise the pairwise definition, on every input of
	// the differential suite.
	for _, fc := range oracleCases(t) {
		if fc.big {
			continue
		}
		requireSameDense(t, fc.name, cosineMatrix(fc.features), oracleCosineMatrix(fc.features))
	}
}

func TestCosineMatrixClampsNegative(t *testing.T) {
	c := cosineMatrix([][]float64{{1, 0}, {-1, 0}})
	if got := c.At(0, 1); got != 0 {
		t.Errorf("negative cosine must clamp to 0 for transition weights, got %v", got)
	}
}

// Rows of nonzero norm must share a length, as every pairwise dot
// product demands; zero rows of any length are allowed.
func TestCosineIndexRaggedRowsPanic(t *testing.T) {
	newCosineIndex([][]float64{{1, 0}, nil, {0, 0, 0}, {0, 1}})
	defer func() {
		if recover() == nil {
			t.Errorf("ragged nonzero rows should panic")
		}
	}()
	newCosineIndex([][]float64{{1, 0}, {0, 1, 1}})
}
