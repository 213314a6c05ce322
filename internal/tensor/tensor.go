// Package tensor implements the sparse 3-way tensor representation of a
// heterogeneous information network used by the T-Mark algorithm, together
// with the two transition-probability tensors of the paper:
//
//	O (eq. 1): o[i,j,k] = a[i,j,k] / Σ_i a[i,j,k]  — probability of visiting
//	  node i given the walker sits at node j and uses relation k;
//	R (eq. 2): r[i,j,k] = a[i,j,k] / Σ_k a[i,j,k]  — probability of using
//	  relation k given the walker moves from node j to node i.
//
// Dangling columns and tubes (all-zero denominators) are handled exactly as
// the paper prescribes: the probability mass is spread uniformly (1/n over
// nodes, 1/m over relations). Those uniform blocks are dense, so they are
// never materialised; the contraction routines account for them in closed
// form using the stochasticity of the input vectors.
package tensor

import (
	"fmt"
)

// Tensor is a sparse nonnegative 3-way tensor A of size n×n×m in coordinate
// form. The first two modes index nodes and the third indexes relations
// (link types): a[i,j,k] > 0 means node j links to node i via relation k.
//
// Build one with New followed by Add calls, then call Finalize before use.
type Tensor struct {
	n, m int

	i, j, k []int32
	v       []float64

	finalized bool
}

// New returns an empty n×n×m tensor.
func New(n, m int) *Tensor {
	if n < 0 || m < 0 {
		panic(fmt.Sprintf("tensor: negative shape n=%d m=%d", n, m))
	}
	return &Tensor{n: n, m: m}
}

// N returns the node-mode dimension.
func (t *Tensor) N() int { return t.n }

// M returns the relation-mode dimension.
func (t *Tensor) M() int { return t.m }

// NNZ returns the number of stored nonzero entries. Valid after Finalize.
func (t *Tensor) NNZ() int { return len(t.v) }

// Add accumulates value into entry (i, j, k). Negative values and
// out-of-range indices panic: the tensor models link multiplicities and a
// bad index is always a bug in the caller. Zero values are ignored.
func (t *Tensor) Add(i, j, k int, value float64) {
	if i < 0 || i >= t.n || j < 0 || j >= t.n || k < 0 || k >= t.m {
		panic(fmt.Sprintf("tensor: Add index (%d,%d,%d) out of range %dx%dx%d", i, j, k, t.n, t.n, t.m))
	}
	if value < 0 {
		panic(fmt.Sprintf("tensor: Add negative value %v at (%d,%d,%d)", value, i, j, k))
	}
	if value == 0 {
		return
	}
	t.i = append(t.i, int32(i))
	t.j = append(t.j, int32(j))
	t.k = append(t.k, int32(k))
	t.v = append(t.v, value)
	t.finalized = false
}

// Finalize sorts the entries into (k, j, i) order and coalesces duplicates.
// The sort is an LSD counting sort over the three index modes — O(nnz)
// with no comparator calls. It is idempotent and must be called before At,
// the normalisations, or the unfoldings.
func (t *Tensor) Finalize() {
	if t.finalized {
		return
	}
	if len(t.v) > 0 {
		s := sortKJI(cooBuf{t.i, t.j, t.k, t.v}, t.n, t.m)
		// Coalesce duplicate coordinates in place.
		out := 0
		for p := range s.v {
			if out > 0 && s.i[out-1] == s.i[p] && s.j[out-1] == s.j[p] && s.k[out-1] == s.k[p] {
				s.v[out-1] += s.v[p]
				continue
			}
			s.i[out], s.j[out], s.k[out], s.v[out] = s.i[p], s.j[p], s.k[p], s.v[p]
			out++
		}
		t.i, t.j, t.k, t.v = s.i[:out], s.j[:out], s.k[:out], s.v[:out]
	}
	t.finalized = true
}

// At returns the entry at (i, j, k). The tensor must be finalized.
func (t *Tensor) At(i, j, k int) float64 {
	t.mustBeFinalized("At")
	// Binary search over the (k, j, i)-sorted entries.
	lo, hi := 0, len(t.v)
	for lo < hi {
		mid := (lo + hi) / 2
		ck, cj, ci := t.k[mid], t.j[mid], t.i[mid]
		switch {
		case int(ck) < k || (int(ck) == k && (int(cj) < j || (int(cj) == j && int(ci) < i))):
			lo = mid + 1
		case int(ck) == k && int(cj) == j && int(ci) == i:
			return t.v[mid]
		default:
			hi = mid
		}
	}
	return 0
}

// Each calls fn for every stored nonzero entry in (k, j, i) order.
func (t *Tensor) Each(fn func(i, j, k int, v float64)) {
	t.mustBeFinalized("Each")
	for p, val := range t.v {
		fn(int(t.i[p]), int(t.j[p]), int(t.k[p]), val)
	}
}

// Slice returns the k-th frontal slice as a dense n×n row-major matrix
// (rows index i, columns index j). Intended for inspection and small
// examples; it allocates n² floats.
func (t *Tensor) Slice(k int) [][]float64 {
	t.mustBeFinalized("Slice")
	if k < 0 || k >= t.m {
		panic(fmt.Sprintf("tensor: Slice index %d out of range %d", k, t.m))
	}
	s := make([][]float64, t.n)
	for i := range s {
		s[i] = make([]float64, t.n)
	}
	t.Each(func(i, j, kk int, v float64) {
		if kk == k {
			s[i][j] = v
		}
	})
	return s
}

func (t *Tensor) mustBeFinalized(op string) {
	if !t.finalized {
		panic("tensor: " + op + " called before Finalize")
	}
}

// Irreducible reports whether the aggregated directed graph (union of all
// relation slices, edge j→i for each nonzero a[i,j,k]) is strongly
// connected. Irreducibility of A is the paper's standing assumption for the
// existence/uniqueness theorems; callers typically warn rather than fail
// when it does not hold, because the restart term α·l keeps the iteration
// well defined regardless.
func (t *Tensor) Irreducible() bool {
	t.mustBeFinalized("Irreducible")
	if t.n == 0 {
		return false
	}
	return reachesAll(t.n, t.j, t.i) && reachesAll(t.n, t.i, t.j)
}

// reachesAll reports whether every one of the n nodes is reachable from
// node 0 along the edges from[q] → to[q]. A counting pass lays the edges
// out as one offsets array and one targets array, and a stack search
// walks them.
func reachesAll(n int, from, to []int32) bool {
	off := make([]int32, n+1)
	for _, u := range from {
		off[u+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	next := append([]int32(nil), off[:n]...)
	adj := make([]int32, len(from))
	for q, u := range from {
		adj[next[u]] = to[q]
		next[u]++
	}
	seen := make([]bool, n)
	stack := append(make([]int32, 0, n), 0) // each node is pushed at most once
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[off[u]:off[u+1]] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}
