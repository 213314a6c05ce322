// Package classify provides the from-scratch base learners the relational
// baselines are built on: multinomial logistic regression, a linear SVM
// (Pegasos) and gradient-boosted trees. All trainers are deterministic
// given their seed, which keeps every experiment in this repository
// reproducible.
package classify

import (
	"errors"
	"fmt"
)

// Model is a trained multiclass classifier.
type Model interface {
	// Predict returns the most probable class for x.
	Predict(x []float64) int
	// Probabilities returns a distribution over the classes for x.
	Probabilities(x []float64) []float64
	// Classes returns the number of classes the model was trained on.
	Classes() int
}

// Trainer fits a Model to a design matrix X (one row per example), integer
// labels y in [0, q) and class count q.
type Trainer interface {
	Train(X [][]float64, y []int, q int) (Model, error)
}

// validateTrainingSet performs the shared sanity checks for all trainers.
func validateTrainingSet(X [][]float64, y []int, q int) (dim int, err error) {
	if len(X) == 0 {
		return 0, errors.New("classify: empty training set")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("classify: %d examples but %d labels", len(X), len(y))
	}
	if q <= 0 {
		return 0, fmt.Errorf("classify: class count %d must be positive", q)
	}
	dim = len(X[0])
	for i, row := range X {
		if len(row) != dim {
			return 0, fmt.Errorf("classify: example %d has dim %d, want %d", i, len(row), dim)
		}
	}
	for i, c := range y {
		if c < 0 || c >= q {
			return 0, fmt.Errorf("classify: label %d of example %d out of range %d", c, i, q)
		}
	}
	return dim, nil
}

// argmax returns the index of the largest value, ties toward lower index.
func argmax(v []float64) int {
	best, arg := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, arg = v[i], i
		}
	}
	return arg
}
