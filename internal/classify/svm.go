package classify

import (
	"fmt"
	"math"
	"math/rand"
)

// SVM trains one-vs-rest linear support vector machines with the Pegasos
// stochastic sub-gradient solver (Shalev-Shwartz et al.). It is the base
// classifier the EMR baseline votes with, mirroring the paper's use of SVM
// inside its ensemble.
type SVM struct {
	Epochs int
	Lambda float64 // regularisation strength
	Seed   int64
}

// NewSVM returns a trainer with Pegasos defaults.
func NewSVM(seed int64) *SVM { return &SVM{Epochs: 40, Lambda: 1e-3, Seed: seed} }

var _ Trainer = (*SVM)(nil)

// String makes experiment tables self-describing.
func (t *SVM) String() string { return fmt.Sprintf("svm(epochs=%d)", t.Epochs) }

// Train implements Trainer.
func (t *SVM) Train(X [][]float64, y []int, q int) (Model, error) {
	dim, err := validateTrainingSet(X, y, q)
	if err != nil {
		return nil, err
	}
	lambda := t.Lambda
	if lambda <= 0 {
		lambda = 1e-3
	}
	// Scale inputs to unit L2 norm: Pegasos step sizes assume bounded
	// examples, and bag-of-words counts are not.
	scaled := make([][]float64, len(X))
	for i, row := range X {
		var norm float64
		for _, v := range row {
			norm += v * v
		}
		cp := append([]float64(nil), row...)
		if norm > 0 {
			inv := 1 / math.Sqrt(norm)
			for d := range cp {
				cp[d] *= inv
			}
		}
		scaled[i] = cp
	}
	w := make([]float64, q*(dim+1))
	avg := make([]float64, q*(dim+1))
	rng := rand.New(rand.NewSource(t.Seed))
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	step := 0
	for epoch := 0; epoch < t.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, idx := range order {
			step++
			// Offset the schedule so early steps are not wild; combined
			// with iterate averaging this is the standard stabilised
			// Pegasos.
			eta := 1 / (lambda * float64(step+10))
			for c := 0; c < q; c++ {
				label := -1.0
				if y[idx] == c {
					label = 1
				}
				row := w[c*(dim+1) : (c+1)*(dim+1)]
				margin := row[dim]
				for d, xd := range scaled[idx] {
					margin += row[d] * xd
				}
				margin *= label
				// Pegasos update: shrink, then push on margin violation.
				shrink := 1 - eta*lambda
				for d := 0; d < dim; d++ {
					row[d] *= shrink
				}
				if margin < 1 {
					for d, xd := range scaled[idx] {
						row[d] += eta * label * xd
					}
					row[dim] += eta * label
				}
			}
			for i, v := range w {
				avg[i] += (v - avg[i]) / float64(step)
			}
		}
	}
	return &svmModel{q: q, dim: dim, w: avg}, nil
}

type svmModel struct {
	q, dim int
	w      []float64
}

func (m *svmModel) Classes() int { return m.q }

func (m *svmModel) margins(x []float64) []float64 {
	// Apply the same unit-norm scaling used during training.
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	inv := 1.0
	if norm > 0 {
		inv = 1 / math.Sqrt(norm)
	}
	out := make([]float64, m.q)
	for c := 0; c < m.q; c++ {
		row := m.w[c*(m.dim+1) : (c+1)*(m.dim+1)]
		s := row[m.dim]
		for d, xd := range x {
			if d >= m.dim {
				break
			}
			s += row[d] * xd * inv
		}
		out[c] = s
	}
	return out
}

// Probabilities maps the one-vs-rest margins through a softmax; SVM margins
// are not calibrated probabilities, but the ensemble voting in EMR only
// needs a monotone confidence, which this provides.
func (m *svmModel) Probabilities(x []float64) []float64 {
	p := m.margins(x)
	softmaxInPlace(p)
	return p
}

func (m *svmModel) Predict(x []float64) int {
	return argmax(m.margins(x))
}
