package tensor

// Blocked (multi-column) variants of the transition-tensor contractions:
// the SpMV → SpMM upgrade the solver's lockstep engine runs on. The
// column distributions are interleaved into one node-major block X
// (entry (i, c) at i*b+c at stride b) and each COO entry is streamed
// once per iteration, applying to every column, so the index and
// probability loads and the loop overhead of an entry are shared by the
// b columns.
//
// On AVX2 hosts a call at stride b = 4 or 8 runs a vector body, and
// every other stride the scalar one. The solver lays its blocks out at
// those strides (vec.Stride), with +0 in the lanes past its active
// columns, so a kernel runs on exactly the block it is handed and
// treats every lane as a column. A +0 lane stays +0 through the
// scatter, and its column sums are 0, so it adds no dangling mass.
//
// The dangling closed form needs the stored mass of each column, Σ x_j·z_k
// over the stored (j, k) columns of O (Σ x_i·x_j over the stored tubes
// of R). Every stored column and tube sums to one (eqs. 1 and 2), so
// that mass is the column sum of the scatter's own output: each call
// reads it off the block it has just written, with no second pass over
// the tensor (danglingAddend).
//
// One body per operator, ApplyBatchParallel (ApplyBatch is its no-pool
// call), and its float order depends only on the tensor: an O worker
// owns whole row blocks and scatters straight into their output rows;
// R's fixed entry chunks scatter into partials of their own that fold
// in chunk order; the column sums and the stored mass run serially in
// row order on the caller. So the answer is the same at every worker
// count.
//
// Bitwise contract: column c of a batched result equals the
// single-vector Apply run on column c alone: Apply walks the same row
// blocks and ApplyPair folds the same chunks in the same order. Columns
// without dangling mass skip the uniform add entirely, so no column ever
// sees an extra floating-point operation relative to its single-vector
// run.

import (
	"fmt"
	"sync"

	"tmark/internal/cpuid"
	"tmark/internal/fault"
	"tmark/internal/par"
	"tmark/internal/vec"
)

// useBatchASM selects the AVX2 bodies. A var, not a const, so tests can
// run the scalar bodies on any host.
var useBatchASM = cpuid.AVX2

// useVector reports whether a call at stride b runs the AVX2 bodies.
func useVector(b int, noASM bool) bool {
	return useBatchASM && !noASM && vec.VectorStride(b)
}

// NodeBatchScratch holds the buffers of the blocked NodeTransition
// contraction: the column sums and stored-column mass and the
// per-column dangling addend. Build one per solver run with
// NewNodeBatchScratch and reuse it; steady-state calls then allocate
// nothing. A scratch must not be shared by concurrent calls.
type NodeBatchScratch struct {
	shards  int
	maxCols int
	// sumX, sumZ, mass and u hold one value per column: the column sums
	// of x and z, the stored-column mass and the dangling addend.
	sumX, sumZ, mass, u []float64
	task                nodeBatchTask
	wg                  sync.WaitGroup

	// NoASM demotes this scratch's contractions to the scalar reference
	// bodies even when the host supports the AVX2 kernels. The solver's
	// numerical-fault retry sets it: after a fault in the vectorised
	// path, the retry re-runs on the scalar bodies so a miscompiled or
	// misbehaving assembly kernel cannot poison the answer twice.
	NoASM bool
}

// NewNodeBatchScratch sizes batch scratch for o with the given shard
// count and maximum column count. shards caps the workers one call
// spreads its row blocks over (shards < 1 is treated as 1); the answer
// does not depend on it.
func NewNodeBatchScratch(o *NodeTransition, shards, maxCols int) *NodeBatchScratch {
	if maxCols < 1 {
		maxCols = 1
	}
	s := &NodeBatchScratch{
		shards:  max(shards, 1),
		maxCols: maxCols,
		sumX:    make([]float64, maxCols),
		sumZ:    make([]float64, maxCols),
		mass:    make([]float64, maxCols),
		u:       make([]float64, maxCols),
	}
	s.task.o = o
	return s
}

// ApplyBatch is ApplyBatchParallel with no pool: the same row blocks,
// run inline on the caller.
func (o *NodeTransition) ApplyBatch(s *NodeBatchScratch, x, z, dst []float64, b int) {
	o.ApplyBatchParallel(nil, s, x, z, dst, b)
}

// ApplyBatchParallel computes the blocked contraction dst = O ×̄₁ X ×̄₃ Z
// for b interleaved class columns: x and dst are n×b blocks, z an m×b
// block (stride b), and dst must not alias x. The row blocks are split
// across the pool by entry count, each worker scattering into the rows
// it owns; then the caller takes the column sums of x and z and the
// stored mass (the column sums of the scattered block) in row order, and
// adds the uniform dangling term. A nil or serial pool runs the same
// blocks inline. Column c of dst is bitwise equal to Apply run on column
// c of x and z, at every worker count.
func (o *NodeTransition) ApplyBatchParallel(p *par.Pool, s *NodeBatchScratch, x, z, dst []float64, b int) {
	if s == nil || b < 1 || b > s.maxCols {
		panic(fmt.Sprintf("tensor: ApplyBatch of %d columns needs a scratch sized for them", b))
	}
	if len(x) < o.n*b || len(z) < o.m*b || len(dst) < o.n*b {
		panic(fmt.Sprintf("tensor: NodeTransition.ApplyBatch x/z/dst blocks %d/%d/%d, want %d/%d/%d",
			len(x), len(z), len(dst), o.n*b, o.m*b, o.n*b))
	}
	n := o.n
	x, z, dst = x[:n*b], z[:o.m*b], dst[:n*b]
	asm := useVector(b, s.NoASM)
	t := &s.task
	t.x, t.z, t.out, t.b, t.asm = x, z, dst, b, asm
	p.Run(min(p.Workers(), s.shards, o.blocks()), t, &s.wg)
	t.x, t.z, t.out = nil, nil, nil
	sumX, sumZ, mass, u := s.sumX[:b], s.sumZ[:b], s.mass[:b], s.u[:b]
	colSums(x, b, sumX)
	colSums(z, b, sumZ)
	colSums(dst, b, mass)
	for c := range u {
		u[c] = danglingAddend(sumX[c], sumZ[c], mass[c], n, o.DanglingColumns())
	}
	addUniformCols(dst, u, b)
	if fault.Enabled() {
		fault.Fire(fault.TensorNodeBatch, dst, b, asm)
	}
}

// nodeBatchTask is the par.Task of one node contraction: shard s takes
// a run of whole row blocks, balanced by entry count, clears their
// output rows and scatters their entries into them at stride b.
type nodeBatchTask struct {
	o         *NodeTransition
	x, z, out []float64 // the call's blocks, stride b
	b         int
	asm       bool
}

func (t *nodeBatchTask) RunShard(shard, shards int) {
	o, b := t.o, t.b
	nnz := len(o.p)
	lo, hi := o.blockAtNNZ(shard*nnz/shards), o.blockAtNNZ((shard+1)*nnz/shards)
	if shard == shards-1 {
		hi = o.blocks() // trailing empty blocks belong to the last shard
	}
	rowLo, rowHi := min(lo*nodeBlockRows, o.n), min(hi*nodeBlockRows, o.n)
	clear(t.out[rowLo*b : rowHi*b])
	cooScatterBatch(t.out, t.x, t.z, o.i, o.j, o.k, o.p, b, int(o.blockStart[lo]), int(o.blockStart[hi]), t.asm)
}

// cooScatterBatch is the shared blocked COO entry loop of both
// contractions: dst[d·b+c] += p[q]·a[ai·b+c]·bb[bi·b+c] for every stored
// entry q in [lo, hi) and every column c < b. The node contraction passes
// (i, j, k) as (d, ai, bi) with a = X, bb = Z; the relation contraction
// passes (k, i, j) with a = bb = X. This loop runs nnz·b multiply-adds
// per call — the solver's hot spot. With asm set, cols 4 and 8 run the
// AVX2 bodies (useVector); everything else runs the scalar body below,
// which is the reference the vector bodies are bitwise equal to. Each
// column accumulates in entry order q in every body.
// The entry arrays arrive sorted so that the bi index is constant over
// long contiguous runs (node: each row block is sorted by (k, j, i), so
// z[k] stays fixed for a block's whole slab of relation k; relation:
// sorted by (j, i, k) keep x[j] fixed across a node's out-edges), so
// every body caches that one operand row and reloads it only when the
// index changes: the reload branch is almost never taken and predicts
// perfectly. Pure load elimination: no float's value or accumulation
// order changes.
func cooScatterBatch(dst, a, bb []float64, di, ai, bi []int32, p []float64, cols, lo, hi int, asm bool) {
	if lo >= hi {
		return
	}
	switch {
	case asm && cols == 4:
		cooScatterAVX4(&dst[0], &a[0], &bb[0], &di[lo], &ai[lo], &bi[lo], &p[lo], hi-lo)
		return
	case asm && cols == 8:
		cooScatterAVX8(&dst[0], &a[0], &bb[0], &di[lo], &ai[lo], &bi[lo], &p[lo], hi-lo)
		return
	}
	lastB := int32(-1)
	var bv []float64
	for q := lo; q < hi; q++ {
		if v := bi[q]; v != lastB {
			lastB = v
			bv = bb[int(v)*cols : int(v)*cols+cols]
		}
		pv := p[q]
		ab := int(ai[q]) * cols
		av := a[ab : ab+cols]
		db := int(di[q]) * cols
		d := dst[db : db+cols]
		for c := range d {
			d[c] += pv * av[c] * bv[c]
		}
	}
}

// colSums sets sum to the per-column sums of an rows×b block, visiting
// rows in ascending order like the single-vector sum loops.
func colSums(block []float64, b int, sum []float64) {
	clear(sum)
	for base := 0; base < len(block); base += b {
		row := block[base : base+b]
		for c, v := range row {
			sum[c] += v
		}
	}
}

// addUniformCols adds u[c] to every row of column c, skipping columns
// with no dangling mass so their floats are untouched — exactly the
// single-vector behaviour, where the uniform add runs only under the
// dangling guard.
func addUniformCols(dst []float64, u []float64, b int) {
	for c, uc := range u {
		if uc == 0 {
			continue
		}
		for p := c; p < len(dst); p += b {
			dst[p] += uc
		}
	}
}

// RelationBatchScratch holds the buffers of the blocked
// RelationTransition contraction; see NodeBatchScratch for the contract.
type RelationBatchScratch struct {
	shards  int
	maxCols int
	// partials holds the m×maxCols partial blocks of chunks 1, 2, …
	// (chunk 0 scatters straight into the output), chunk-major: chunk
	// c's block starts at (c−1)·m·maxCols and is addressed at the call's
	// stride.
	partials []float64
	// sumI, mass and u hold one value per column: the column sums of x,
	// the stored-tube mass and the dangling addend.
	sumI, mass, u []float64
	task          relationBatchTask
	wg            sync.WaitGroup

	// NoASM demotes this scratch's contractions to the scalar reference
	// bodies; see NodeBatchScratch.NoASM.
	NoASM bool
}

// NewRelationBatchScratch sizes batch scratch for r with the given shard
// count and maximum column count. shards caps the workers one call
// spreads its chunks over (shards < 1 is treated as 1); the answer does
// not depend on it.
func NewRelationBatchScratch(r *RelationTransition, shards, maxCols int) *RelationBatchScratch {
	if maxCols < 1 {
		maxCols = 1
	}
	s := &RelationBatchScratch{
		shards:   max(shards, 1),
		maxCols:  maxCols,
		partials: make([]float64, (r.chunks()-1)*r.m*maxCols),
		sumI:     make([]float64, maxCols),
		mass:     make([]float64, maxCols),
		u:        make([]float64, maxCols),
	}
	s.task.r = r
	s.task.s = s
	return s
}

// partial returns chunk ch's output block at stride b: the call's
// output for chunk 0, a partial block of the scratch for the rest.
func (s *RelationBatchScratch) partial(out []float64, ch, b int) []float64 {
	if ch == 0 {
		return out
	}
	base := (ch - 1) * s.task.r.m * s.maxCols
	return s.partials[base : base+s.task.r.m*b]
}

// ApplyBatch is ApplyBatchParallel with no pool: the same chunks, run
// inline on the caller.
func (r *RelationTransition) ApplyBatch(s *RelationBatchScratch, x, dst []float64, b int) {
	r.ApplyBatchParallel(nil, s, x, dst, b)
}

// ApplyBatchParallel computes the blocked contraction dst = R ×̄₁ X ×̄₂ X
// for b interleaved class columns: x is an n×b block, dst an m×b block
// (stride b), and dst must not alias x. The entry chunks are split
// across the pool, each scattering into its own partial; then the
// caller folds the partials in chunk order, takes the column sums of x
// and the stored mass in row order, and adds the uniform dangling term.
// The mode-1 and mode-2 sums coincide when the vectors do, so the sum is
// taken once and squared. A nil or serial pool runs the same chunks
// inline. Column c of dst is bitwise equal to Apply run on column c of
// x, at every worker count.
func (r *RelationTransition) ApplyBatchParallel(p *par.Pool, s *RelationBatchScratch, x, dst []float64, b int) {
	if s == nil || b < 1 || b > s.maxCols {
		panic(fmt.Sprintf("tensor: ApplyBatch of %d columns needs a scratch sized for them", b))
	}
	if len(x) < r.n*b || len(dst) < r.m*b {
		panic(fmt.Sprintf("tensor: RelationTransition.ApplyBatch x/dst blocks %d/%d, want %d/%d", len(x), len(dst), r.n*b, r.m*b))
	}
	m := r.m
	x, dst = x[:r.n*b], dst[:m*b]
	asm := useVector(b, s.NoASM)
	t := &s.task
	t.x, t.out, t.b, t.asm = x, dst, b, asm
	chunks := r.chunks()
	p.Run(min(p.Workers(), s.shards, chunks), t, &s.wg)
	t.x, t.out = nil, nil
	for ch := 1; ch < chunks; ch++ {
		for q, v := range s.partial(dst, ch, b) {
			dst[q] += v
		}
	}
	sumI, mass, u := s.sumI[:b], s.mass[:b], s.u[:b]
	colSums(x, b, sumI)
	colSums(dst, b, mass)
	for c := range u {
		u[c] = danglingAddend(sumI[c], sumI[c], mass[c], m, r.DanglingTubes())
	}
	addUniformCols(dst, u, b)
	if fault.Enabled() {
		fault.Fire(fault.TensorRelationBatch, dst, b, asm)
	}
}

// relationBatchTask is the par.Task of one relation contraction: shard
// s scatters a contiguous run of chunks, each into its own partial.
type relationBatchTask struct {
	r      *RelationTransition
	s      *RelationBatchScratch
	x, out []float64 // the call's blocks, stride b
	b      int
	asm    bool
}

func (t *relationBatchTask) RunShard(shard, shards int) {
	r := t.r
	lo, hi := par.Split(r.chunks(), shards, shard)
	for ch := lo; ch < hi; ch++ {
		part := t.s.partial(t.out, ch, t.b)
		clear(part)
		elo, ehi := r.chunk(ch)
		cooScatterBatch(part, t.x, t.x, r.k, r.i, r.j, r.p, t.b, elo, ehi, t.asm)
	}
}
