package tensor

import (
	"fmt"
	"math"
	"sort"
)

// NodeTransition is the transition-probability tensor O of eq. (1): for
// every column (j, k), o[·,j,k] is the distribution over the next node
// given the walker sits at node j and uses relation k. Columns of A that
// are entirely zero ("dangling") stand for the uniform distribution 1/n;
// they are kept implicit and folded into Apply in closed form.
type NodeTransition struct {
	n, m int

	// Nonzero probabilities sorted by (k, j, i); each (j,k) column sums to 1.
	i, j, k []int32
	p       []float64

	// Distinct non-dangling columns, sorted by (k, j), aligned slices.
	colJ, colK []int32
}

// NewNodeTransition normalises the finalized tensor a into O.
func NewNodeTransition(a *Tensor) *NodeTransition {
	a.mustBeFinalized("NewNodeTransition")
	o := &NodeTransition{
		n: a.n, m: a.m,
		i: make([]int32, len(a.i)),
		j: make([]int32, len(a.j)),
		k: make([]int32, len(a.k)),
		p: make([]float64, len(a.v)),
	}
	copy(o.i, a.i)
	copy(o.j, a.j)
	copy(o.k, a.k)
	// Entries are sorted by (k, j, i), so each (j,k) column is a contiguous
	// run; normalise run by run.
	for start := 0; start < len(a.v); {
		end := start + 1
		for end < len(a.v) && a.j[end] == a.j[start] && a.k[end] == a.k[start] {
			end++
		}
		var sum float64
		for p := start; p < end; p++ {
			sum += a.v[p]
		}
		for p := start; p < end; p++ {
			o.p[p] = a.v[p] / sum
		}
		o.colJ = append(o.colJ, a.j[start])
		o.colK = append(o.colK, a.k[start])
		start = end
	}
	return o
}

// N returns the node-mode dimension.
func (o *NodeTransition) N() int { return o.n }

// M returns the relation-mode dimension.
func (o *NodeTransition) M() int { return o.m }

// NNZ returns the number of explicitly stored probabilities.
func (o *NodeTransition) NNZ() int { return len(o.p) }

// DanglingColumns returns the number of implicit uniform columns.
func (o *NodeTransition) DanglingColumns() int { return o.n*o.m - len(o.colJ) }

// At returns o[i,j,k], including the implicit 1/n of dangling columns.
func (o *NodeTransition) At(i, j, k int) float64 {
	if i < 0 || i >= o.n || j < 0 || j >= o.n || k < 0 || k >= o.m {
		panic(fmt.Sprintf("tensor: NodeTransition.At (%d,%d,%d) out of range", i, j, k))
	}
	pos := sort.Search(len(o.p), func(q int) bool {
		if o.k[q] != int32(k) {
			return o.k[q] >= int32(k)
		}
		if o.j[q] != int32(j) {
			return o.j[q] >= int32(j)
		}
		return o.i[q] >= int32(i)
	})
	if pos < len(o.p) && o.i[pos] == int32(i) && o.j[pos] == int32(j) && o.k[pos] == int32(k) {
		return o.p[pos]
	}
	if o.columnDangling(j, k) {
		return 1 / float64(o.n)
	}
	return 0
}

func (o *NodeTransition) columnDangling(j, k int) bool {
	pos := sort.Search(len(o.colJ), func(q int) bool {
		if o.colK[q] != int32(k) {
			return o.colK[q] >= int32(k)
		}
		return o.colJ[q] >= int32(j)
	})
	return !(pos < len(o.colJ) && o.colJ[pos] == int32(j) && o.colK[pos] == int32(k))
}

// Apply computes dst = O ×̄₁ x ×̄₃ z, i.e.
//
//	dst[i] = Σ_j Σ_k o[i,j,k]·x[j]·z[k].
//
// dst must have length n and must not alias x. The implicit dangling
// columns contribute uniformly: their total mass is
// Σ_(dangling j,k) x[j]z[k] = (Σx)(Σz) − Σ_(stored columns) x[j]z[k],
// spread as 1/n per node. Every stored column sums to one, so the stored
// term is the sum of the scattered dst itself, taken before the uniform
// add; no second pass over the stored columns is needed. A tensor with
// no dangling column skips the add outright (danglingAddend). When x and
// z are probability vectors the result is again a probability vector
// (Theorem 1).
func (o *NodeTransition) Apply(x, z, dst []float64) {
	if len(x) != o.n || len(dst) != o.n {
		panic(fmt.Sprintf("tensor: NodeTransition.Apply x/dst length %d/%d, want %d", len(x), len(dst), o.n))
	}
	if len(z) != o.m {
		panic(fmt.Sprintf("tensor: NodeTransition.Apply z length %d, want %d", len(z), o.m))
	}
	for q := range dst {
		dst[q] = 0
	}
	var sumX, sumZ float64
	for _, v := range x {
		sumX += v
	}
	for _, v := range z {
		sumZ += v
	}
	for q, pi := range o.i {
		w := o.p[q] * x[o.j[q]] * z[o.k[q]]
		dst[pi] += w
	}
	var storedMass float64
	for _, v := range dst {
		storedMass += v
	}
	if u := danglingAddend(sumX, sumZ, storedMass, o.n, o.DanglingColumns()); u != 0 {
		for q := range dst {
			dst[q] += u
		}
	}
}

// danglingAddend returns the per-row uniform addend of a contraction's
// implicit dangling columns (tubes): their mass sumA·sumB − stored,
// spread over dim rows. stored is the sum of the scattered output. A
// tensor with no dangling column (tube) returns 0 whatever that
// difference reads: it is rounding residue, up to a few 1e-15, and
// adding it would only add noise. Otherwise a difference of at most
// 1e-15 is treated as no dangling mass too.
func danglingAddend(sumA, sumB, stored float64, dim, dangling int) float64 {
	if dangling == 0 || dim == 0 {
		return 0
	}
	if d := sumA*sumB - stored; d > 1e-15 {
		return d / float64(dim)
	}
	return 0
}

// ColumnsStochastic reports whether every stored column sums to one within
// tol; it is a self-check used by tests and validation tooling.
func (o *NodeTransition) ColumnsStochastic(tol float64) bool {
	for start := 0; start < len(o.p); {
		end := start + 1
		for end < len(o.p) && o.j[end] == o.j[start] && o.k[end] == o.k[start] {
			end++
		}
		var sum float64
		for q := start; q < end; q++ {
			if o.p[q] < -tol {
				return false
			}
			sum += o.p[q]
		}
		if math.Abs(sum-1) > tol {
			return false
		}
		start = end
	}
	return true
}

// RelationTransition is the transition-probability tensor R of eq. (2):
// for every tube (i, j), r[i,j,·] is the distribution over the relation
// used given the walker moves from node j to node i. All-zero tubes stand
// for the uniform distribution 1/m and are kept implicit.
type RelationTransition struct {
	n, m int

	// Nonzero probabilities sorted by (j, i, k); each (i,j) tube sums to 1.
	i, j, k []int32
	p       []float64

	// Distinct non-dangling tubes, sorted by (j, i), aligned slices.
	// tubeStart[t] is the offset of tube t's first entry in the sorted
	// entry arrays (len(tubeI)+1 offsets, last = nnz): each tube is a
	// contiguous entry run. No kernel reads it; it stays because the
	// TMARKAR1 artifact stores and validates it, so dropping it would
	// change the format and every content hash.
	tubeI, tubeJ []int32
	tubeStart    []int32
}

// NewRelationTransition normalises the finalized tensor a into R. The
// entries are re-sorted from the tensor's (k, j, i) layout into (j, i, k)
// by an LSD counting sort — O(nnz) with no permutation indirection.
func NewRelationTransition(a *Tensor) *RelationTransition {
	a.mustBeFinalized("NewRelationTransition")
	nnz := len(a.v)
	r := &RelationTransition{
		n: a.n, m: a.m,
		i: make([]int32, nnz),
		j: make([]int32, nnz),
		k: make([]int32, nnz),
		p: make([]float64, nnz),
	}
	copy(r.i, a.i)
	copy(r.j, a.j)
	copy(r.k, a.k)
	copy(r.p, a.v)
	if nnz > 0 {
		s := sortJIK(cooBuf{r.i, r.j, r.k, r.p}, a.n, a.m)
		r.i, r.j, r.k, r.p = s.i, s.j, s.k, s.v
	}
	for start := 0; start < len(r.p); {
		end := start + 1
		for end < len(r.p) && r.i[end] == r.i[start] && r.j[end] == r.j[start] {
			end++
		}
		var sum float64
		for q := start; q < end; q++ {
			sum += r.p[q]
		}
		for q := start; q < end; q++ {
			r.p[q] /= sum
		}
		r.tubeI = append(r.tubeI, r.i[start])
		r.tubeJ = append(r.tubeJ, r.j[start])
		r.tubeStart = append(r.tubeStart, int32(start))
		start = end
	}
	r.tubeStart = append(r.tubeStart, int32(len(r.p)))
	return r
}

// N returns the node-mode dimension.
func (r *RelationTransition) N() int { return r.n }

// M returns the relation-mode dimension.
func (r *RelationTransition) M() int { return r.m }

// NNZ returns the number of explicitly stored probabilities.
func (r *RelationTransition) NNZ() int { return len(r.p) }

// DanglingTubes returns the number of implicit uniform tubes.
func (r *RelationTransition) DanglingTubes() int { return r.n*r.n - len(r.tubeI) }

// At returns r[i,j,k], including the implicit 1/m of dangling tubes.
func (r *RelationTransition) At(i, j, k int) float64 {
	if i < 0 || i >= r.n || j < 0 || j >= r.n || k < 0 || k >= r.m {
		panic(fmt.Sprintf("tensor: RelationTransition.At (%d,%d,%d) out of range", i, j, k))
	}
	pos := sort.Search(len(r.p), func(q int) bool {
		if r.j[q] != int32(j) {
			return r.j[q] >= int32(j)
		}
		if r.i[q] != int32(i) {
			return r.i[q] >= int32(i)
		}
		return r.k[q] >= int32(k)
	})
	if pos < len(r.p) && r.i[pos] == int32(i) && r.j[pos] == int32(j) && r.k[pos] == int32(k) {
		return r.p[pos]
	}
	if r.tubeDangling(i, j) {
		return 1 / float64(r.m)
	}
	return 0
}

func (r *RelationTransition) tubeDangling(i, j int) bool {
	pos := sort.Search(len(r.tubeI), func(q int) bool {
		if r.tubeJ[q] != int32(j) {
			return r.tubeJ[q] >= int32(j)
		}
		return r.tubeI[q] >= int32(i)
	})
	return !(pos < len(r.tubeI) && r.tubeI[pos] == int32(i) && r.tubeJ[pos] == int32(j))
}

// Apply computes dst = R ×̄₁ x ×̄₂ x, i.e.
//
//	dst[k] = Σ_i Σ_j r[i,j,k]·x[i]·x[j].
//
// dst must have length m and must not alias x. Dangling tubes contribute
// (Σx)² − Σ_(stored tubes) x[i]x[j], spread as 1/m per relation, so a
// probability vector x yields a probability vector dst (Theorem 1). As in
// NodeTransition.Apply, the stored term is the sum of the scattered dst,
// and a tensor with no dangling tube skips the uniform add.
func (r *RelationTransition) Apply(x, dst []float64) {
	r.ApplyPair(x, x, dst)
}

// ApplyPair computes dst[k] = Σ_i Σ_j r[i,j,k]·xi[i]·xj[j] with distinct
// mode-1 and mode-2 vectors; the HAR relevance update contracts R against
// the authority and hub vectors this way. Apply is the xi == xj special
// case. The dangling mass is (Σxi)(Σxj) − Σ_(stored tubes) xi[i]xj[j],
// and every stored tube sums to one, so the stored term is again the sum
// of the scattered dst.
func (r *RelationTransition) ApplyPair(xi, xj, dst []float64) {
	if len(xi) != r.n || len(xj) != r.n {
		panic(fmt.Sprintf("tensor: RelationTransition.ApplyPair x lengths %d/%d, want %d", len(xi), len(xj), r.n))
	}
	if len(dst) != r.m {
		panic(fmt.Sprintf("tensor: RelationTransition.ApplyPair dst length %d, want %d", len(dst), r.m))
	}
	for q := range dst {
		dst[q] = 0
	}
	var sumI, sumJ float64
	for _, v := range xi {
		sumI += v
	}
	for _, v := range xj {
		sumJ += v
	}
	for q, pk := range r.k {
		dst[pk] += r.p[q] * xi[r.i[q]] * xj[r.j[q]]
	}
	var storedMass float64
	for _, v := range dst {
		storedMass += v
	}
	if u := danglingAddend(sumI, sumJ, storedMass, r.m, r.DanglingTubes()); u != 0 {
		for q := range dst {
			dst[q] += u
		}
	}
}

// TubesStochastic reports whether every stored tube sums to one within tol.
func (r *RelationTransition) TubesStochastic(tol float64) bool {
	for start := 0; start < len(r.p); {
		end := start + 1
		for end < len(r.p) && r.i[end] == r.i[start] && r.j[end] == r.j[start] {
			end++
		}
		var sum float64
		for q := start; q < end; q++ {
			if r.p[q] < -tol {
				return false
			}
			sum += r.p[q]
		}
		if math.Abs(sum-1) > tol {
			return false
		}
		start = end
	}
	return true
}
