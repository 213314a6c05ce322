// Package markov builds the matrix Markov chain that T-Mark composes
// with its tensor chains: the feature-similarity channel W of the
// paper's eq. (9), the column-stochastic transition matrix of a walk
// between nodes with similar features, dense or sparsified to the top-K
// entries of each column.
package markov

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"tmark/internal/obs"
	"tmark/internal/par"
	"tmark/internal/sparse"
	"tmark/internal/vec"
)

// FeatureTransition builds the paper's feature channel: the cosine
// similarity matrix C of the node features, column-normalised into the
// transition matrix W (eq. 9). Zero columns (featureless nodes nobody is
// similar to) become uniform, keeping W stochastic.
//
// Feature values must be finite (hin.Validate rejects any other graph);
// rows may be nil or all zero, and every other row must have the same
// length.
func FeatureTransition(features [][]float64) *vec.Matrix {
	return FeatureTransitionPar(features, nil)
}

// FeatureTransitionPar is FeatureTransition with the columns spread over
// the pool; a nil pool runs serially. Each column is computed and
// normalised on its own, so the result is bitwise identical to the serial
// build. The build duration is published to the default obs registry
// (tmark_build_w_seconds_total), a once-per-model cost.
func FeatureTransitionPar(features [][]float64, p *par.Pool) *vec.Matrix {
	start := time.Now()
	defer obs.Default().Timer("tmark_build_w").ObserveSince(start)
	n := len(features)
	w := vec.NewMatrix(n, n)
	x := newCosineIndex(features)
	p.For(n, func(lo, hi int) {
		col := make([]float64, n)
		for j := lo; j < hi; j++ {
			x.column(j, col)
			var s float64
			for _, c := range col {
				s += c
			}
			if s == 0 {
				vec.Fill(col, 1/float64(n))
			} else {
				vec.Scale(1/s, col)
			}
			for i, c := range col {
				w.Data[i*n+j] = c
			}
		}
	})
	return w
}

// SparseFeatureTransitionCSR builds the feature channel keeping only the
// topK most similar nodes per column before normalising, as a compressed
// sparse row matrix. Dense cosine similarity over bag-of-words features is
// dominated by a background level that makes W nearly uniform;
// restricting each column to its nearest neighbours concentrates the walk
// on genuinely similar nodes. A column keeps every entry at least its
// topK-th largest cosine, ties included, so it may keep more than topK.
// The stored channel is O(n·K), which is what lets the solver iterate on
// large networks; topK >= n keeps every entry. topK <= 0 is rejected —
// use FeatureTransition for the dense channel. Features must satisfy
// FeatureTransition's preconditions.
func SparseFeatureTransitionCSR(features [][]float64, topK int) *sparse.Matrix {
	return SparseFeatureTransitionCSRPar(features, topK, nil)
}

// SparseFeatureTransitionCSRPar is SparseFeatureTransitionCSR with the
// columns spread over the pool; a nil pool runs serially. Columns are
// built independently and assembled by sparse.FromTriplets, whose
// counting sorts make the result independent of how the pool splits
// them. No n×n matrix is formed: the build holds the feature index, two
// n-vectors per worker and the kept entries. Like FeatureTransitionPar,
// the build duration is published to the default obs registry.
func SparseFeatureTransitionCSRPar(features [][]float64, topK int, p *par.Pool) *sparse.Matrix {
	if topK <= 0 {
		panic("markov: SparseFeatureTransitionCSR needs topK > 0")
	}
	start := time.Now()
	defer obs.Default().Timer("tmark_build_w").ObserveSince(start)
	n := len(features)
	x := newCosineIndex(features)
	var (
		mu    sync.Mutex
		parts [][]sparse.Triplet
	)
	p.For(n, func(lo, hi int) {
		col := make([]float64, n)
		var scratch []float64
		if topK < n {
			scratch = make([]float64, n)
		}
		out := make([]sparse.Triplet, 0, (hi-lo)*min(topK, n))
		for j := lo; j < hi; j++ {
			x.column(j, col)
			// Keep entries >= the topK-th largest (NaN cosines from
			// overflowing features rank last but are never below it).
			threshold := math.Inf(-1)
			if topK < n {
				copy(scratch, col)
				threshold = kthLargest(scratch, topK)
			}
			var s float64
			for i, c := range col {
				if c < threshold {
					col[i] = 0
				} else {
					s += c
				}
			}
			if s == 0 {
				u := 1 / float64(n)
				for i := range col {
					out = append(out, sparse.Triplet{Row: i, Col: j, Value: u})
				}
				continue
			}
			inv := 1 / s
			for i, c := range col {
				// A NaN sum makes the whole column NaN, which stores nothing.
				if v := c * inv; v > 0 || v < 0 {
					out = append(out, sparse.Triplet{Row: i, Col: j, Value: v})
				}
			}
		}
		mu.Lock()
		parts = append(parts, out)
		mu.Unlock()
	})
	var entries []sparse.Triplet
	if len(parts) == 1 {
		entries = parts[0] // the serial build: no copy
	} else {
		entries = slices.Concat(parts...)
	}
	return sparse.FromTriplets(n, n, entries)
}

// cosineIndex is an inverted index of the feature rows that yields the
// clamped cosine similarity matrix C one column at a time. Postings of
// feature k are the nodes with a nonzero value at k, in increasing node
// order, with that value; rows of zero norm are left out, because their
// cosines are all zero.
type cosineIndex struct {
	features [][]float64
	norms    []float64
	start    []int // postings of feature k: [start[k], start[k+1])
	node     []int32
	value    []float64
}

// newCosineIndex builds the index with a counting sort in O(nnz(F)).
// Feature rows of nonzero norm must share one length, as vec.Dot would
// demand of every pair.
func newCosineIndex(features [][]float64) *cosineIndex {
	x := &cosineIndex{features: features, norms: make([]float64, len(features))}
	d := 0
	for i, f := range features {
		x.norms[i] = vec.Norm2(f)
		if x.norms[i] == 0 {
			continue
		}
		if d == 0 {
			d = len(f)
		} else if len(f) != d {
			panic(fmt.Sprintf("markov: feature row %d has length %d, want %d", i, len(f), d))
		}
	}
	x.start = make([]int, d+1)
	for i, f := range features {
		if x.norms[i] == 0 {
			continue
		}
		for k, v := range f {
			if v != 0 {
				x.start[k+1]++
			}
		}
	}
	for k := 1; k <= d; k++ {
		x.start[k] += x.start[k-1]
	}
	x.node = make([]int32, x.start[d])
	x.value = make([]float64, x.start[d])
	next := append([]int(nil), x.start[:d]...)
	for i, f := range features {
		if x.norms[i] == 0 {
			continue
		}
		for k, v := range f {
			if v != 0 {
				x.node[next[k]] = int32(i)
				x.value[next[k]] = v
				next[k]++
			}
		}
	}
	return x
}

// column writes column j of C into col (length n): C[i][j] is
// f_i·f_j/(‖f_i‖·‖f_j‖) clamped at 0, zero when either norm is zero, and
// C[j][j] is 1 unless f_j is zero. Each dot product adds the nonzero
// products in increasing feature order, exactly as vec.Dot does; every
// term it skips has an exact-zero factor, and adding such a term to a sum
// that started at +0 never changes it while the features are finite. So
// every cell is bitwise the value of the pairwise definition.
func (x *cosineIndex) column(j int, col []float64) {
	vec.Fill(col, 0)
	nj := x.norms[j]
	if nj == 0 {
		return
	}
	for k, fk := range x.features[j] {
		if fk == 0 {
			continue
		}
		nodes := x.node[x.start[k]:x.start[k+1]]
		values := x.value[x.start[k]:x.start[k+1]]
		values = values[:len(nodes)] // equal lengths: one bounds check
		for p, i := range nodes {
			col[i] += values[p] * fk
		}
	}
	for i, ni := range x.norms {
		var c float64
		if ni != 0 {
			c = col[i] / (ni * nj)
			if c < 0 {
				c = 0 // transition weights must be nonnegative
			}
		}
		col[i] = c
	}
	col[j] = 1
}

// kthLargest returns the k-th largest value of xs (1-based, k clamped to
// [1, len(xs)]) in the order sort.Float64Slice sorts by, reversed: NaN
// ranks after every number. It reorders xs, in expected O(len(xs)).
func kthLargest(xs []float64, k int) float64 {
	k = max(1, min(k, len(xs)))
	m := 0
	for i, v := range xs {
		if !math.IsNaN(v) {
			xs[m], xs[i] = v, xs[m]
			m++
		}
	}
	if k > m {
		return math.NaN()
	}
	// The maxima of k disjoint blocks are k values, so the k-th largest is
	// at least the smallest of them; only values reaching that bound are
	// candidates. For small k that leaves a few dozen of a column's n.
	bound := math.Inf(1)
	for b := 0; b < k; b++ {
		lo, hi := par.Split(m, k, b)
		top := xs[lo]
		for _, v := range xs[lo+1 : hi] {
			if v > top {
				top = v
			}
		}
		bound = min(bound, top)
	}
	c := 0
	for i, v := range xs[:m] {
		if !(v < bound) {
			xs[c], xs[i] = v, xs[c]
			c++
		}
	}
	// Three-way quickselect over the candidates; the equal band absorbs
	// long runs of one value (zero cosines) in a single pass.
	target := k - 1 // index in descending order
	lo, hi := 0, c
	for hi-lo > 1 {
		a, b, z := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		pivot := max(min(a, b), min(max(a, b), z))
		// Partition into xs[lo:gt] > pivot, xs[gt:lt] == pivot and
		// xs[lt:hi] < pivot.
		gt, i, lt := lo, lo, hi
		for i < lt {
			switch v := xs[i]; {
			case v > pivot:
				xs[gt], xs[i] = v, xs[gt]
				gt++
				i++
			case v < pivot:
				lt--
				xs[lt], xs[i] = v, xs[lt]
			default:
				i++
			}
		}
		switch {
		case target < gt:
			hi = gt
		case target < lt:
			return pivot
		default:
			lo = lt
		}
	}
	return xs[lo]
}
