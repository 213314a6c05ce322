package classify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tmark/internal/vec"
)

// blobs generates a linearly separable 2-class problem with a margin.
func blobs(rng *rand.Rand, n int) (X [][]float64, y []int) {
	for i := 0; i < n; i++ {
		c := i % 2
		cx := -2.0
		if c == 1 {
			cx = 2.0
		}
		X = append(X, []float64{cx + rng.NormFloat64()*0.5, rng.NormFloat64() * 0.5})
		y = append(y, c)
	}
	return X, y
}

// bagOfWords generates class-specific token counts for 3 classes.
func bagOfWords(rng *rand.Rand, n, vocab int) (X [][]float64, y []int) {
	perClass := vocab / 3
	for i := 0; i < n; i++ {
		c := i % 3
		row := make([]float64, vocab)
		for w := 0; w < 10; w++ {
			var tok int
			if rng.Float64() < 0.8 {
				tok = c*perClass + rng.Intn(perClass) // class vocabulary
			} else {
				tok = rng.Intn(vocab) // noise
			}
			row[tok]++
		}
		X = append(X, row)
		y = append(y, c)
	}
	return X, y
}

func accuracy(m Model, X [][]float64, y []int) float64 {
	hits := 0
	for i, row := range X {
		if m.Predict(row) == y[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(X))
}

func trainers() map[string]Trainer {
	return map[string]Trainer{
		"logistic": NewLogistic(1),
		"svm":      NewSVM(1),
	}
}

func TestSeparableBlobsAllLearners(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := blobs(rng, 200)
	testX, testY := blobs(rng, 100)
	for name, tr := range trainers() {
		m, err := tr.Train(X, y, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if acc := accuracy(m, testX, testY); acc < 0.95 {
			t.Errorf("%s: accuracy %v on separable blobs, want >= 0.95", name, acc)
		}
	}
}

func TestBagOfWordsLearners(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := bagOfWords(rng, 300, 60)
	testX, testY := bagOfWords(rng, 150, 60)
	for name, c := range map[string]struct {
		tr  Trainer
		min float64
	}{
		"logistic": {NewLogistic(1), 0.9},
		// Pegasos on raw counts is a little noisier than the probabilistic
		// learners; it only needs to be a serviceable ensemble member.
		"svm": {NewSVM(1), 0.85},
	} {
		m, err := c.tr.Train(X, y, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if acc := accuracy(m, testX, testY); acc < c.min {
			t.Errorf("%s: bag-of-words accuracy %v, want >= %v", name, acc, c.min)
		}
	}
}

func TestProbabilitiesAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := bagOfWords(rng, 120, 30)
	for name, tr := range trainers() {
		m, err := tr.Train(X, y, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Classes() != 3 {
			t.Errorf("%s: Classes = %d, want 3", name, m.Classes())
		}
		for trial := 0; trial < 20; trial++ {
			x := X[rng.Intn(len(X))]
			p := m.Probabilities(x)
			if !vec.IsStochastic(p, 1e-8) {
				t.Errorf("%s: probabilities not a distribution: %v", name, p)
			}
			if m.Predict(x) != argmax(p) {
				t.Errorf("%s: Predict disagrees with argmax of Probabilities", name)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		X    [][]float64
		y    []int
		q    int
	}{
		{"empty", nil, nil, 2},
		{"mismatch", [][]float64{{1}}, []int{0, 1}, 2},
		{"ragged", [][]float64{{1, 2}, {1}}, []int{0, 1}, 2},
		{"bad label", [][]float64{{1}}, []int{5}, 2},
		{"no classes", [][]float64{{1}}, []int{0}, 0},
	}
	for _, c := range cases {
		for name, tr := range trainers() {
			if _, err := tr.Train(c.X, c.y, c.q); err == nil {
				t.Errorf("%s/%s: expected error", name, c.name)
			}
		}
	}
}

func TestDeterminismWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := blobs(rng, 100)
	m1, err := NewLogistic(42).Train(X, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewLogistic(42).Train(X, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		x := X[trial]
		p1, p2 := m1.Probabilities(x), m2.Probabilities(x)
		for c := range p1 {
			if p1[c] != p2[c] {
				t.Fatalf("same seed must give identical models: %v vs %v", p1, p2)
			}
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	v := []float64{1000, 1001, 999}
	softmaxInPlace(v)
	var sum float64
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("softmax overflowed: %v", v)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sum = %v, want 1", sum)
	}
	if argmax(v) != 1 {
		t.Errorf("softmax should keep the argmax")
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []fmt.Stringer{NewSVM(0), NewLogistic(0)} {
		if s.String() == "" {
			t.Errorf("%T: empty String()", s)
		}
	}
}
