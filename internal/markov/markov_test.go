package markov

import (
	"math"
	"testing"
)

func TestFeatureTransitionStochastic(t *testing.T) {
	features := [][]float64{
		{1, 0, 0},
		{1, 1, 0},
		{0, 0, 1},
		{0, 0, 0}, // featureless: its column must become uniform
	}
	w := FeatureTransition(features)
	if !w.IsColumnStochastic(1e-9) {
		t.Fatalf("W must be column-stochastic")
	}
	// Featureless node's column is uniform.
	for i := 0; i < 4; i++ {
		if math.Abs(w.At(i, 3)-0.25) > 1e-12 {
			t.Errorf("W[%d,3] = %v, want 0.25", i, w.At(i, 3))
		}
	}
	// Similar nodes get more mass than dissimilar ones.
	if w.At(0, 1) <= w.At(2, 1) {
		t.Errorf("similar node should out-weigh orthogonal: %v vs %v", w.At(0, 1), w.At(2, 1))
	}
}
