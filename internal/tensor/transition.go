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

	// Nonzero probabilities grouped into row blocks: block b holds the
	// entries of rows [b·nodeBlockRows, (b+1)·nodeBlockRows) in (k, j, i)
	// order and starts at entry blockStart[b] (len blocks+1, last = nnz).
	// Each (j,k) column sums to 1. The TMARKAR1 format stores the plain
	// (k, j, i) order; Raw rebuilds it.
	i, j, k    []int32
	p          []float64
	blockStart []int32

	// Distinct non-dangling columns, sorted by (k, j), aligned slices.
	colJ, colK []int32
}

// nodeBlockRows is the row count of one O entry block. A contraction
// worker owns whole blocks and so their output rows, and row i's entries
// arrive in the same (k, j) order whichever worker runs them. One row
// per block would chain every entry of a run on one output row; 16–256
// rows all scatter as fast as the plain (k, j, i) order (DESIGN.md).
const nodeBlockRows = 64

// newNodeTransition allocates an n×n×m O for the entries whose row
// indices, in (k, j, i) order, are rows, and returns it with each row
// block's next free slot; place then fills it entry by entry in that
// order. Together they are one stable counting pass by row block.
func newNodeTransition(n, m int, rows []int32) (*NodeTransition, []int32) {
	nnz := len(rows)
	blocks := (n + nodeBlockRows - 1) / nodeBlockRows
	o := &NodeTransition{
		n: n, m: m,
		i:          make([]int32, nnz),
		j:          make([]int32, nnz),
		k:          make([]int32, nnz),
		p:          make([]float64, nnz),
		blockStart: make([]int32, blocks+1),
	}
	for _, i := range rows {
		o.blockStart[int(i)/nodeBlockRows+1]++
	}
	for b := 1; b <= blocks; b++ {
		o.blockStart[b] += o.blockStart[b-1]
	}
	return o, append([]int32(nil), o.blockStart[:blocks]...)
}

// place stores entry (i, j, k) with probability p in the next free slot
// of row i's block.
func (o *NodeTransition) place(next []int32, i, j, k int32, p float64) {
	b := int(i) / nodeBlockRows
	q := next[b]
	next[b]++
	o.i[q], o.j[q], o.k[q], o.p[q] = i, j, k, p
}

// NewNodeTransition normalises the finalized tensor a into O.
func NewNodeTransition(a *Tensor) *NodeTransition {
	a.mustBeFinalized("NewNodeTransition")
	o, next := newNodeTransition(a.n, a.m, a.i)
	// Entries are sorted by (k, j, i), so each (j,k) column is a contiguous
	// run; normalise run by run, straight into the row blocks.
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
			o.place(next, a.i[p], a.j[p], a.k[p], a.v[p]/sum)
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

// blocks returns the number of row blocks.
func (o *NodeTransition) blocks() int { return len(o.blockStart) - 1 }

// blockAtNNZ returns the first row block whose start entry is at least
// target. The targets s·nnz/shards grow with s, so consecutive shards
// get disjoint block runs that tile the blocks, balanced by entry count
// as sparse.Matrix.rowAtNNZ balances CSR rows.
func (o *NodeTransition) blockAtNNZ(target int) int {
	return sort.Search(o.blocks(), func(b int) bool { return int(o.blockStart[b]) >= target })
}

// At returns o[i,j,k], including the implicit 1/n of dangling columns.
func (o *NodeTransition) At(i, j, k int) float64 {
	if i < 0 || i >= o.n || j < 0 || j >= o.n || k < 0 || k >= o.m {
		panic(fmt.Sprintf("tensor: NodeTransition.At (%d,%d,%d) out of range", i, j, k))
	}
	// Row i's block lists its entries in (k, j, i) order.
	b := i / nodeBlockRows
	lo, hi := int(o.blockStart[b]), int(o.blockStart[b+1])
	pos := lo + sort.Search(hi-lo, func(q int) bool {
		q += lo
		if o.k[q] != int32(k) {
			return o.k[q] >= int32(k)
		}
		if o.j[q] != int32(j) {
			return o.j[q] >= int32(j)
		}
		return o.i[q] >= int32(i)
	})
	if pos < hi && o.i[pos] == int32(i) && o.j[pos] == int32(j) && o.k[pos] == int32(k) {
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
// no dangling column skips the add outright (danglingAddend). The scatter
// walks the row blocks, which hand row i its entries in the (k, j) order
// of the blocked contraction. When x and z are probability vectors the
// result is again a probability vector (Theorem 1).
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
// tol; it is a self-check used by tests and validation tooling. It walks
// the (k, j, i) order of Raw, where each column is one run.
func (o *NodeTransition) ColumnsStochastic(tol float64) bool {
	raw := o.Raw()
	return runsStochastic(raw.P, func(q int) bool { return raw.J[q] == raw.J[q-1] && raw.K[q] == raw.K[q-1] }, tol)
}

// runsStochastic reports whether every run of p sums to one within tol
// with no entry below −tol; sameRun(q) tells whether entry q continues
// the run of entry q−1.
func runsStochastic(p []float64, sameRun func(q int) bool, tol float64) bool {
	var sum float64
	for q, v := range p {
		if q > 0 && !sameRun(q) {
			if math.Abs(sum-1) > tol {
				return false
			}
			sum = 0
		}
		if v < -tol {
			return false
		}
		sum += v
	}
	return len(p) == 0 || math.Abs(sum-1) <= tol
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

// relationChunk is the entry count of one R chunk. Every R contraction
// scatters each chunk into a partial of its own and folds the partials
// in chunk order, whichever worker ran them. An R with at most this
// many entries is one chunk, the plain entry-order scatter.
const relationChunk = 16384

// chunks returns the number of entry chunks R's contractions fold; an
// empty R is one empty chunk.
func (r *RelationTransition) chunks() int {
	return max(1, (len(r.p)+relationChunk-1)/relationChunk)
}

// chunk returns the entry range of chunk ch.
func (r *RelationTransition) chunk(ch int) (lo, hi int) {
	lo = ch * relationChunk
	return lo, min(lo+relationChunk, len(r.p))
}

// ApplyPair computes dst[k] = Σ_i Σ_j r[i,j,k]·xi[i]·xj[j] with distinct
// mode-1 and mode-2 vectors; the HAR relevance update contracts R against
// the authority and hub vectors this way. Apply is the xi == xj special
// case. The scatter folds R's entry chunks in chunk order, as the blocked
// contraction does. The dangling mass is (Σxi)(Σxj) − Σ_(stored tubes)
// xi[i]xj[j], and every stored tube sums to one, so the stored term is
// again the sum of the scattered dst.
func (r *RelationTransition) ApplyPair(xi, xj, dst []float64) {
	if len(xi) != r.n || len(xj) != r.n {
		panic(fmt.Sprintf("tensor: RelationTransition.ApplyPair x lengths %d/%d, want %d", len(xi), len(xj), r.n))
	}
	if len(dst) != r.m {
		panic(fmt.Sprintf("tensor: RelationTransition.ApplyPair dst length %d, want %d", len(dst), r.m))
	}
	var sumI, sumJ float64
	for _, v := range xi {
		sumI += v
	}
	for _, v := range xj {
		sumJ += v
	}
	clear(dst)
	var part []float64
	for ch := 0; ch < r.chunks(); ch++ {
		out := dst
		if ch > 0 {
			if part == nil {
				part = make([]float64, r.m)
			}
			out = part
			clear(out)
		}
		lo, hi := r.chunk(ch)
		for q := lo; q < hi; q++ {
			out[r.k[q]] += r.p[q] * xi[r.i[q]] * xj[r.j[q]]
		}
		if ch > 0 {
			for q, v := range part {
				dst[q] += v
			}
		}
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
	return runsStochastic(r.p, func(q int) bool { return r.i[q] == r.i[q-1] && r.j[q] == r.j[q-1] }, tol)
}
