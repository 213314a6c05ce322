package tmark

import (
	"cmp"
	"fmt"
	"slices"

	"tmark/internal/vec"
)

// N returns the number of nodes covered by the result.
func (r *Result) N() int { return r.n }

// M returns the number of relations covered by the result.
func (r *Result) M() int { return r.m }

// Q returns the number of classes covered by the result.
func (r *Result) Q() int { return r.q }

// Scores returns the n×q matrix whose column c is the stationary node
// distribution x̄ of class c: entry (i, c) is the confidence that node i
// belongs to class c.
func (r *Result) Scores() *vec.Matrix {
	s := vec.NewMatrix(r.n, r.q)
	for c := range r.Classes {
		for i, v := range r.Classes[c].X {
			s.Set(i, c, v)
		}
	}
	return s
}

// Probabilities returns the per-node class distribution: Scores with every
// row normalised to sum to one. Rows whose raw scores are all zero stay
// zero.
func (r *Result) Probabilities() *vec.Matrix {
	p := r.Scores()
	for i := 0; i < p.Rows; i++ {
		row := p.Row(i)
		vec.Normalize1(row)
	}
	return p
}

// LiftedProbabilities returns the per-node class distribution computed on
// background-subtracted scores: every stationary vector x̄ carries a
// diffuse per-node floor (restart leakage, uniform dangling-column mass,
// and the node's sheer connectivity) that is nearly identical across
// classes, so the informative part of a row is its excess over the row's
// weakest class. Subtracting the per-row minimum removes that floor while
// keeping the argmax; the gained contrast is what makes multi-label
// thresholding work. Perfectly uniform rows fall back to the raw relative
// scores.
func (r *Result) LiftedProbabilities() *vec.Matrix {
	p := r.Scores()
	for i := 0; i < p.Rows; i++ {
		row := p.Row(i)
		if len(row) == 0 {
			continue
		}
		minV := row[0]
		for _, v := range row[1:] {
			if v < minV {
				minV = v
			}
		}
		lifted := make([]float64, len(row))
		any := false
		for c, v := range row {
			if v > minV {
				lifted[c] = v - minV
				any = true
			}
		}
		if any {
			copy(row, lifted)
		}
		vec.Normalize1(row)
	}
	return p
}

// Predict assigns every node its argmax class.
func (r *Result) Predict() []int {
	pred := make([]int, r.n)
	scores := r.Scores()
	for i := 0; i < r.n; i++ {
		pred[i] = vec.Argmax(scores.Row(i))
	}
	return pred
}

// PredictMultiLabel assigns, per node, every class whose normalised score
// is at least share·(max score of that node); share in (0,1]. Each node
// receives at least its argmax class, so the output is never empty.
func (r *Result) PredictMultiLabel(share float64) [][]int {
	if share <= 0 || share > 1 {
		panic(fmt.Sprintf("tmark: PredictMultiLabel share %v out of (0,1]", share))
	}
	probs := r.Probabilities()
	out := make([][]int, r.n)
	for i := 0; i < r.n; i++ {
		row := probs.Row(i)
		best := vec.Argmax(row)
		if best < 0 {
			continue
		}
		threshold := share * row[best]
		var labels []int
		for c, v := range row {
			if v >= threshold && v > 0 {
				labels = append(labels, c)
			}
		}
		if labels == nil {
			labels = []int{best}
		}
		out[i] = labels
	}
	return out
}

// RelationScore pairs a relation index with its stationary probability.
type RelationScore struct {
	Relation int
	Score    float64
}

// LinkRanking returns the relations ranked by their stationary probability
// z̄ for class c, most relevant first. Ties break toward the lower index so
// the ordering is deterministic (see TopRanked).
func (r *Result) LinkRanking(c int) []RelationScore {
	if c < 0 || c >= r.q {
		panic(fmt.Sprintf("tmark: LinkRanking class %d out of range %d", c, r.q))
	}
	return rankedScores(r.Classes[c].Z)
}

// NodeRanking returns the nodes ranked by their stationary probability x̄
// for class c, highest first, ties toward the lower index; useful for
// the director/tag rankings of Tables 5, 9 and 10.
func (r *Result) NodeRanking(c int) []RelationScore {
	if c < 0 || c >= r.q {
		panic(fmt.Sprintf("tmark: NodeRanking class %d out of range %d", c, r.q))
	}
	return rankedScores(r.Classes[c].X)
}

// rankedScores is every entry of v in TopRanked order.
func rankedScores(v []float64) []RelationScore {
	ranked := make([]RelationScore, len(v))
	for i, k := range TopRanked(v, len(v)) {
		ranked[i] = RelationScore{Relation: k, Score: v[k]}
	}
	return ranked
}

// compareRank orders score a at index ia against score b at index ib:
// negative when a ranks first. The higher score ranks first, NaN after
// every number, and equal scores (−0 and +0 are equal, as are two NaNs)
// toward the lower index. On distinct indices this is a total order, so
// a ranking built on it is unique and needs no stable sort.
func compareRank(a float64, ia int, b float64, ib int) int {
	if c := cmp.Compare(b, a); c != 0 {
		return c
	}
	return cmp.Compare(ia, ib)
}

// TopRanked returns the indices of the top best-ranked entries of v,
// best first, in compareRank order; top ≥ len(v) ranks all of v and
// top ≤ 0 returns nil. One pass keeps the best top indices seen so far
// in a heap whose root is the worst of them, so it runs in
// O(n log top) and allocates only the result.
func TopRanked(v []float64, top int) []int {
	top = min(top, len(v))
	if top <= 0 {
		return nil
	}
	worse := func(a, b int) bool { return compareRank(v[a], a, v[b], b) > 0 }
	h := make([]int, 0, top)
	for i := range v {
		if len(h) < top {
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(h[c], h[p]) {
					break
				}
				h[c], h[p] = h[p], h[c]
				c = p
			}
			continue
		}
		if !worse(h[0], i) {
			continue
		}
		h[0] = i
		for p := 0; ; {
			c := 2*p + 1
			if c >= top {
				break
			}
			if c+1 < top && worse(h[c+1], h[c]) {
				c++
			}
			if !worse(h[c], h[p]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	slices.SortFunc(h, func(a, b int) int { return compareRank(v[a], a, v[b], b) })
	return h
}

// Converged reports whether every class iteration reached ε.
func (r *Result) Converged() bool {
	for c := range r.Classes {
		if !r.Classes[c].Converged {
			return false
		}
	}
	return true
}

// MaxIterations returns the largest per-class iteration count, a measure
// of the O(qTD) cost actually incurred.
func (r *Result) MaxIterations() int {
	maxIt := 0
	for c := range r.Classes {
		if r.Classes[c].Iterations > maxIt {
			maxIt = r.Classes[c].Iterations
		}
	}
	return maxIt
}
