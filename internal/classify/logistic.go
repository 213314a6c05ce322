package classify

import (
	"fmt"
	"math"
	"math/rand"
)

// Logistic trains multinomial logistic regression (softmax regression) by
// stochastic gradient descent with L2 regularisation. The zero value is
// unusable; use NewLogistic for sensible defaults.
type Logistic struct {
	Epochs       int
	LearningRate float64
	L2           float64
	Seed         int64
}

// NewLogistic returns a trainer with defaults that work well on the
// bag-of-words features used throughout this repository.
func NewLogistic(seed int64) *Logistic {
	return &Logistic{Epochs: 50, LearningRate: 0.1, L2: 1e-4, Seed: seed}
}

var _ Trainer = (*Logistic)(nil)

// String makes experiment tables self-describing.
func (t *Logistic) String() string { return fmt.Sprintf("logistic(epochs=%d)", t.Epochs) }

// Train implements Trainer.
func (t *Logistic) Train(X [][]float64, y []int, q int) (Model, error) {
	dim, err := validateTrainingSet(X, y, q)
	if err != nil {
		return nil, err
	}
	m := &logisticModel{q: q, dim: dim,
		w: make([]float64, q*(dim+1)), // per class: dim weights + bias
	}
	rng := rand.New(rand.NewSource(t.Seed))
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	probs := make([]float64, q)
	for epoch := 0; epoch < t.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		lr := t.LearningRate / (1 + 0.1*float64(epoch))
		for _, idx := range order {
			m.scores(X[idx], probs)
			softmaxInPlace(probs)
			for c := 0; c < q; c++ {
				g := probs[c]
				if c == y[idx] {
					g -= 1
				}
				row := m.w[c*(dim+1) : (c+1)*(dim+1)]
				for d, xd := range X[idx] {
					row[d] -= lr * (g*xd + t.L2*row[d])
				}
				row[dim] -= lr * g // bias, unregularised
			}
		}
	}
	return m, nil
}

type logisticModel struct {
	q, dim int
	w      []float64
}

func (m *logisticModel) Classes() int { return m.q }

func (m *logisticModel) scores(x []float64, dst []float64) {
	for c := 0; c < m.q; c++ {
		row := m.w[c*(m.dim+1) : (c+1)*(m.dim+1)]
		s := row[m.dim]
		for d, xd := range x {
			s += row[d] * xd
		}
		dst[c] = s
	}
}

func (m *logisticModel) Probabilities(x []float64) []float64 {
	p := make([]float64, m.q)
	m.scores(x, p)
	softmaxInPlace(p)
	return p
}

func (m *logisticModel) Predict(x []float64) int {
	return argmax(m.Probabilities(x))
}

// softmaxInPlace converts raw scores into a probability distribution,
// subtracting the max for numerical stability.
func softmaxInPlace(v []float64) {
	maxV := v[0]
	for _, x := range v[1:] {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - maxV)
		v[i] = e
		sum += e
	}
	for i := range v {
		v[i] /= sum
	}
}
