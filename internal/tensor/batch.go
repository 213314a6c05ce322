package tensor

// Blocked (multi-column) variants of the transition-tensor contractions:
// the SpMV → SpMM upgrade the solver's lockstep engine runs on. The
// column distributions are interleaved into one node-major block X
// (entry (i, c) at i*b+c for b active columns) and each COO entry is
// streamed once per iteration, applying to every column, so the index
// and probability loads and the loop overhead of an entry are shared by
// the b columns.
//
// On AVX2 hosts every call with 1 ≤ b ≤ 8 runs a vector body: the
// bodies exist for b = 4 and b = 8, and any other width is padded up to
// the next of them with zero lanes (kernelWidth). A zero lane stays
// exactly +0 through the scatter, its output and column sums are 0, so
// it adds no dangling mass, and its results are dropped. No body
// combines values from different columns, so padding changes no real
// column's bits.
//
// The dangling closed form needs the stored mass of each column, Σ x_j·z_k
// over the stored (j, k) columns of O (Σ x_i·x_j over the stored tubes
// of R). Every stored column and tube sums to one (eqs. 1 and 2), so
// that mass is the column sum of the scatter's own output: each call
// reads it off the block it has just written, with no second pass over
// the tensor (danglingAddend).
//
// Bitwise contract: column c of a batched result equals the
// single-vector kernel run on column c alone, path by path. The serial
// ApplyBatch visits entries and rows in exactly the order of the serial
// Apply; the parallel ApplyBatchParallel uses shard boundaries that
// depend only on the tensor and the shard count (par.Split over entry
// and row counts — all independent of b), sums each worker's partial
// block and reduces the partials in worker order, like the single-vector
// sharded reference in the package tests. Columns without dangling mass
// skip the uniform add entirely, so no column ever sees an extra
// floating-point operation relative to its single-vector run.

import (
	"fmt"
	"sync"

	"tmark/internal/cpuid"
	"tmark/internal/fault"
	"tmark/internal/obs"
	"tmark/internal/par"
)

// useBatchASM selects the AVX2 bodies. A var, not a const, so tests can
// run the scalar bodies on any host.
var useBatchASM = cpuid.AVX2

// kernelWidth returns whether a b-column call runs the AVX2 bodies and
// the block width its kernels run at: b padded up to 4 or 8 for
// 1 ≤ b ≤ 8 on the vector bodies, b itself on the scalar body (noASM,
// no AVX2, or b > 8).
func kernelWidth(b int, noASM bool) (asm bool, w int) {
	switch {
	case !useBatchASM || noASM || b > 8:
		return false, b
	case b <= 4:
		return true, 4
	default:
		return true, 8
	}
}

// laneCap is the widest block a scratch for maxCols columns runs its
// kernels at: maxCols, or the vector width maxCols pads up to. It does
// not depend on the kernel selection, so NoASM and useBatchASM may
// change between calls on one scratch.
func laneCap(maxCols int) int {
	switch {
	case maxCols <= 4:
		return 4
	case maxCols <= 8:
		return 8
	default:
		return maxCols
	}
}

// padBlock returns the rows×b block src at stride w, copied into *buf
// with zeros in lanes b..w-1; with w == b it returns src itself. *buf
// grows on first use and is reused after.
func padBlock(buf *[]float64, src []float64, rows, b, w int) []float64 {
	if w == b {
		return src
	}
	dst := growBuf(buf, rows*w)
	for i := 0; i < rows; i++ {
		row, in := dst[i*w:i*w+w], src[i*b:i*b+b]
		for c := range row {
			if c < b {
				row[c] = in[c]
			} else {
				row[c] = 0
			}
		}
	}
	return dst
}

// unpadBlock copies lanes 0..b-1 of the rows×w block src into the
// rows×b block dst.
func unpadBlock(dst, src []float64, rows, b, w int) {
	for i := 0; i < rows; i++ {
		row, out := src[i*w:i*w+b], dst[i*b:i*b+b]
		for c := range out {
			out[c] = row[c]
		}
	}
}

func growBuf(buf *[]float64, size int) []float64 {
	if cap(*buf) < size {
		*buf = make([]float64, size)
	}
	return (*buf)[:size]
}

// NodeBatchScratch holds the buffers of the blocked NodeTransition
// contraction: per-shard column sums and stored-column mass, the
// per-column dangling addend, the zero-padded blocks of a call whose
// width has no vector body, and (for the parallel path) per-worker
// partial blocks. Build one per solver run with NewNodeBatchScratch and
// reuse it; steady-state ApplyBatch / ApplyBatchParallel calls then
// allocate nothing. A scratch must not be shared by concurrent calls.
type NodeBatchScratch struct {
	shards  int
	maxCols int
	lanes   int // laneCap(maxCols): the widest kernel block
	// partials is shards × n × lanes, worker-major: worker w owns
	// [w·n·lanes, (w+1)·n·lanes) and addresses cell (i, c) of a
	// width-k kernel block at offset i·k+c within its block. Nil when
	// the scratch was built for one shard (serial-only use).
	partials []float64
	sumX     []float64 // shards × lanes per-shard column sums of x
	sumZ     []float64 // shards × lanes per-shard column sums of z
	mass     []float64 // shards × lanes per-shard stored-column mass
	u        []float64 // lanes per-column dangling addend
	// padX, padZ and padDst hold the padded x, z and (serial path) dst
	// blocks; they grow on the first padded call.
	padX, padZ, padDst []float64
	task               nodeBatchTask
	wg                 sync.WaitGroup

	// Probe, when non-nil, counts ApplyBatchParallel calls, the stored
	// entries they stream, and the class columns they apply them to.
	Probe *obs.Probe

	// NoASM demotes this scratch's contractions to the scalar reference
	// bodies even when the host supports the AVX2 kernels. The solver's
	// numerical-fault retry sets it: after a fault in the vectorised
	// path, the retry re-runs on the scalar bodies so a miscompiled or
	// misbehaving assembly kernel cannot poison the answer twice.
	NoASM bool
}

// NewNodeBatchScratch sizes batch scratch for o with the given shard
// count and maximum column count. shards < 1 is treated as 1; the
// per-worker partial blocks are only allocated when shards > 1.
func NewNodeBatchScratch(o *NodeTransition, shards, maxCols int) *NodeBatchScratch {
	if shards < 1 {
		shards = 1
	}
	if maxCols < 1 {
		maxCols = 1
	}
	lanes := laneCap(maxCols)
	s := &NodeBatchScratch{
		shards:  shards,
		maxCols: maxCols,
		lanes:   lanes,
		sumX:    make([]float64, shards*lanes),
		sumZ:    make([]float64, shards*lanes),
		mass:    make([]float64, shards*lanes),
		u:       make([]float64, lanes),
	}
	if shards > 1 {
		s.partials = make([]float64, shards*o.n*lanes)
	}
	s.task.o = o
	s.task.s = s
	return s
}

func (s *NodeBatchScratch) checkCols(b int) {
	if s == nil {
		panic("tensor: ApplyBatch needs a NodeBatchScratch")
	}
	if b < 1 || b > s.maxCols {
		panic(fmt.Sprintf("tensor: ApplyBatch %d columns, scratch sized for %d", b, s.maxCols))
	}
}

// ApplyBatch computes the blocked contraction dst = O ×̄₁ X ×̄₃ Z for b
// interleaved class columns: x and dst are n×b blocks, z an m×b block
// (stride b), and dst must not alias x. Column c of dst is bitwise equal
// to Apply run on column c of x and z: the stored mass is the column sum
// of the scattered block, taken before the uniform add.
func (o *NodeTransition) ApplyBatch(s *NodeBatchScratch, x, z, dst []float64, b int) {
	s.checkCols(b)
	checkNodeBlocks(o, "ApplyBatch", len(x), len(z), len(dst), b)
	n := o.n
	dst = dst[:n*b]
	asm, w := kernelWidth(b, s.NoASM)
	x = padBlock(&s.padX, x[:n*b], n, b, w)
	z = padBlock(&s.padZ, z[:o.m*b], o.m, b, w)
	out := dst
	if w != b {
		out = growBuf(&s.padDst, n*w)
	}
	clear(out)
	sumX, sumZ, mass, u := s.sumX[:w], s.sumZ[:w], s.mass[:w], s.u[:w]
	colSums(x, w, sumX)
	colSums(z, w, sumZ)
	cooScatterBatch(out, x, z, o.i, o.j, o.k, o.p, w, 0, len(o.p), asm)
	colSums(out, w, mass)
	for c := range u {
		u[c] = danglingAddend(sumX[c], sumZ[c], mass[c], n, o.DanglingColumns())
	}
	addUniformCols(out, u, w)
	if w != b {
		unpadBlock(dst, out, n, b, w)
	}
	if fault.Enabled() {
		fault.Fire(fault.TensorNodeBatch, dst, b, asm)
	}
}

// cooScatterBatch is the shared blocked COO entry loop of both
// contractions: dst[d·b+c] += p[q]·a[ai·b+c]·bb[bi·b+c] for every stored
// entry q in [lo, hi) and every column c < b. The node contraction passes
// (i, j, k) as (d, ai, bi) with a = X, bb = Z; the relation contraction
// passes (k, i, j) with a = bb = X. This loop runs nnz·b multiply-adds
// per call — the solver's hot spot. With asm set, cols 4 and 8 run the
// AVX2 bodies (callers pad every other width up to one of them; see
// kernelWidth); everything else runs the scalar body below, which is
// the reference the vector bodies are bitwise equal to. Each column
// accumulates in entry order q in every body.
// The entry arrays arrive sorted so that the bi index is constant over
// long contiguous runs (node: entries sorted by (k, j, i) keep z[k]
// fixed for a whole slab; relation: sorted by (j, i, k) keep x[j] fixed
// across a node's out-edges), so every body caches that one operand row
// and reloads it only when the index changes: the reload branch is
// almost never taken and predicts perfectly. Pure load elimination: no
// float's value or accumulation order changes.
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

// nodeBatchTask is the two-phase par.Task of ApplyBatchParallel,
// mirroring nodeApplyTask: a scatter phase contracting entry shards into
// per-worker partial blocks at the kernel width w and summing each
// partial's columns, then a strided reduction folding their first b
// lanes into dst in worker order.
type nodeBatchTask struct {
	o      *NodeTransition
	s      *NodeBatchScratch
	x, z   []float64 // the kernel blocks, stride w
	dst    []float64 // the caller's block, stride b
	b, w   int
	asm    bool
	reduce bool
}

func (t *nodeBatchTask) RunShard(shard, shards int) {
	o, s, b, w := t.o, t.s, t.b, t.w
	n := o.n
	wBase := shard * n * s.lanes
	if t.reduce {
		lo, hi := par.Split(n, shards, shard)
		u := s.u[:b]
		for i := lo; i < hi; i++ {
			for c := 0; c < b; c++ {
				acc := u[c]
				for k := 0; k < shards; k++ {
					acc += s.partials[k*n*s.lanes+i*w+c]
				}
				t.dst[i*b+c] = acc
			}
		}
		return
	}
	part := s.partials[wBase : wBase+n*w]
	clear(part)
	x, z := t.x, t.z
	lo, hi := par.Split(n, shards, shard)
	colSums(x[lo*w:hi*w], w, s.sumX[shard*s.lanes:shard*s.lanes+w])
	lo, hi = par.Split(o.m, shards, shard)
	colSums(z[lo*w:hi*w], w, s.sumZ[shard*s.lanes:shard*s.lanes+w])
	lo, hi = par.Split(len(o.p), shards, shard)
	cooScatterBatch(part, x, z, o.i, o.j, o.k, o.p, w, lo, hi, t.asm)
	colSums(part, w, s.mass[shard*s.lanes:shard*s.lanes+w])
}

// ApplyBatchParallel computes the blocked contraction like ApplyBatch
// with the entry shards spread across the pool. Shard boundaries are the
// single-vector ones (they depend only on the tensor and the shard
// count, never on b); each worker sums the columns of its own partial
// block into its stored-mass slot, and the slots and the partials reduce
// in worker order, so for a fixed worker count column c of the result is
// bitwise independent of b and equal to the single-vector sharded
// reference run on column c alone. A nil/serial pool or single-shard
// scratch falls back to the serial path.
func (o *NodeTransition) ApplyBatchParallel(p *par.Pool, s *NodeBatchScratch, x, z, dst []float64, b int) {
	if p.Serial() || s == nil || s.shards <= 1 {
		o.ApplyBatch(s, x, z, dst, b)
		return
	}
	s.checkCols(b)
	checkNodeBlocks(o, "ApplyBatchParallel", len(x), len(z), len(dst), b)
	s.Probe.ObserveCols(len(o.p), b)
	asm, w := kernelWidth(b, s.NoASM)
	t := &s.task
	t.x = padBlock(&s.padX, x[:o.n*b], o.n, b, w)
	t.z = padBlock(&s.padZ, z[:o.m*b], o.m, b, w)
	t.dst, t.b, t.w, t.asm = dst[:o.n*b], b, w, asm
	t.reduce = false
	p.Run(s.shards, t, &s.wg)
	u := s.u[:b]
	for c := 0; c < b; c++ {
		var sumX, sumZ, stored float64
		for k := 0; k < s.shards; k++ {
			sumX += s.sumX[k*s.lanes+c]
			sumZ += s.sumZ[k*s.lanes+c]
			stored += s.mass[k*s.lanes+c]
		}
		u[c] = danglingAddend(sumX, sumZ, stored, o.n, o.DanglingColumns())
	}
	t.reduce = true
	p.Run(s.shards, t, &s.wg)
	t.x, t.z, t.dst = nil, nil, nil
	if fault.Enabled() {
		fault.Fire(fault.TensorNodeBatch, dst[:o.n*b], b, asm)
	}
}

func checkNodeBlocks(o *NodeTransition, op string, lx, lz, ldst, b int) {
	if lx < o.n*b || ldst < o.n*b {
		panic(fmt.Sprintf("tensor: NodeTransition.%s x/dst blocks %d/%d, want %d", op, lx, ldst, o.n*b))
	}
	if lz < o.m*b {
		panic(fmt.Sprintf("tensor: NodeTransition.%s z block %d, want %d", op, lz, o.m*b))
	}
}

// RelationBatchScratch holds the buffers of the blocked
// RelationTransition contraction; see NodeBatchScratch for the contract.
// As in the single-vector path, the small m-dimensional reduction runs
// serially in the caller.
type RelationBatchScratch struct {
	shards  int
	maxCols int
	lanes   int // laneCap(maxCols): the widest kernel block
	// partials is shards × m × lanes, worker-major; nil when built for
	// one shard.
	partials []float64
	sumI     []float64 // shards × lanes per-shard column sums of x
	mass     []float64 // shards × lanes per-shard stored-tube mass
	u        []float64 // lanes per-column dangling addend
	// padX and padDst hold the padded x and (serial path) dst blocks;
	// they grow on the first padded call.
	padX, padDst []float64
	task         relationBatchTask
	wg           sync.WaitGroup

	// Probe, when non-nil, counts ApplyBatchParallel calls, the stored
	// entries they stream, and the class columns they apply them to.
	Probe *obs.Probe

	// NoASM demotes this scratch's contractions to the scalar reference
	// bodies; see NodeBatchScratch.NoASM.
	NoASM bool
}

// NewRelationBatchScratch sizes batch scratch for r with the given shard
// count and maximum column count; shards < 1 is treated as 1.
func NewRelationBatchScratch(r *RelationTransition, shards, maxCols int) *RelationBatchScratch {
	if shards < 1 {
		shards = 1
	}
	if maxCols < 1 {
		maxCols = 1
	}
	lanes := laneCap(maxCols)
	s := &RelationBatchScratch{
		shards:  shards,
		maxCols: maxCols,
		lanes:   lanes,
		sumI:    make([]float64, shards*lanes),
		mass:    make([]float64, shards*lanes),
		u:       make([]float64, lanes),
	}
	if shards > 1 {
		s.partials = make([]float64, shards*r.m*lanes)
	}
	s.task.r = r
	s.task.s = s
	return s
}

func (s *RelationBatchScratch) checkCols(b int) {
	if s == nil {
		panic("tensor: ApplyBatch needs a RelationBatchScratch")
	}
	if b < 1 || b > s.maxCols {
		panic(fmt.Sprintf("tensor: ApplyBatch %d columns, scratch sized for %d", b, s.maxCols))
	}
}

// ApplyBatch computes the blocked contraction dst = R ×̄₁ X ×̄₂ X for b
// interleaved class columns: x is an n×b block, dst an m×b block (stride
// b), and dst must not alias x. Column c of dst is bitwise equal to
// Apply run on column c of x; the mode-1 and mode-2 sums coincide
// bitwise when xi == xj, so the sum is computed once and squared, and
// the stored-tube mass is the column sum of the scattered block.
func (r *RelationTransition) ApplyBatch(s *RelationBatchScratch, x, dst []float64, b int) {
	s.checkCols(b)
	checkRelationBlocks(r, "ApplyBatch", len(x), len(dst), b)
	m := r.m
	dst = dst[:m*b]
	asm, w := kernelWidth(b, s.NoASM)
	x = padBlock(&s.padX, x[:r.n*b], r.n, b, w)
	out := dst
	if w != b {
		out = growBuf(&s.padDst, m*w)
	}
	clear(out)
	sumI, mass, u := s.sumI[:w], s.mass[:w], s.u[:w]
	colSums(x, w, sumI)
	cooScatterBatch(out, x, x, r.k, r.i, r.j, r.p, w, 0, len(r.p), asm)
	colSums(out, w, mass)
	for c := range u {
		u[c] = danglingAddend(sumI[c], sumI[c], mass[c], m, r.DanglingTubes())
	}
	addUniformCols(out, u, w)
	if w != b {
		unpadBlock(dst, out, m, b, w)
	}
	if fault.Enabled() {
		fault.Fire(fault.TensorRelationBatch, dst, b, asm)
	}
}

type relationBatchTask struct {
	r   *RelationTransition
	s   *RelationBatchScratch
	x   []float64 // the kernel block, stride w
	w   int
	asm bool
}

func (t *relationBatchTask) RunShard(shard, shards int) {
	r, s, w := t.r, t.s, t.w
	m := r.m
	part := s.partials[shard*m*s.lanes : shard*m*s.lanes+m*w]
	clear(part)
	x := t.x
	lo, hi := par.Split(r.n, shards, shard)
	colSums(x[lo*w:hi*w], w, s.sumI[shard*s.lanes:shard*s.lanes+w])
	lo, hi = par.Split(len(r.p), shards, shard)
	cooScatterBatch(part, x, x, r.k, r.i, r.j, r.p, w, lo, hi, t.asm)
	colSums(part, w, s.mass[shard*s.lanes:shard*s.lanes+w])
}

// ApplyBatchParallel computes the blocked contraction like ApplyBatch
// with the entry shards spread across the pool, each worker summing the
// columns of its own m×w partial block, and reduces the m×b output
// serially in the caller. For a fixed worker count column c of the
// result is bitwise independent of b and equal to the single-vector
// sharded reference run on column c alone. A nil/serial pool or
// single-shard scratch falls back to the serial path.
func (r *RelationTransition) ApplyBatchParallel(p *par.Pool, s *RelationBatchScratch, x, dst []float64, b int) {
	if p.Serial() || s == nil || s.shards <= 1 {
		r.ApplyBatch(s, x, dst, b)
		return
	}
	s.checkCols(b)
	checkRelationBlocks(r, "ApplyBatchParallel", len(x), len(dst), b)
	s.Probe.ObserveCols(len(r.p), b)
	asm, w := kernelWidth(b, s.NoASM)
	t := &s.task
	t.x, t.w, t.asm = padBlock(&s.padX, x[:r.n*b], r.n, b, w), w, asm
	p.Run(s.shards, t, &s.wg)
	u := s.u[:b]
	for c := 0; c < b; c++ {
		var sumI, stored float64
		for k := 0; k < s.shards; k++ {
			sumI += s.sumI[k*s.lanes+c]
			stored += s.mass[k*s.lanes+c]
		}
		u[c] = danglingAddend(sumI, sumI, stored, r.m, r.DanglingTubes())
	}
	m := r.m
	for k := 0; k < m; k++ {
		for c := 0; c < b; c++ {
			acc := u[c]
			for sh := 0; sh < s.shards; sh++ {
				acc += s.partials[sh*m*s.lanes+k*w+c]
			}
			dst[k*b+c] = acc
		}
	}
	t.x = nil
	if fault.Enabled() {
		fault.Fire(fault.TensorRelationBatch, dst[:m*b], b, asm)
	}
}

func checkRelationBlocks(r *RelationTransition, op string, lx, ldst, b int) {
	if lx < r.n*b {
		panic(fmt.Sprintf("tensor: RelationTransition.%s x block %d, want %d", op, lx, r.n*b))
	}
	if ldst < r.m*b {
		panic(fmt.Sprintf("tensor: RelationTransition.%s dst block %d, want %d", op, ldst, r.m*b))
	}
}
