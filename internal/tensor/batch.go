package tensor

// Blocked (multi-column) variants of the transition-tensor contractions:
// the SpMV → SpMM upgrade the solver's lockstep engine runs on. The
// column distributions are interleaved into one node-major block X
// (entry (i, c) at i*b+c for b active columns) and each COO entry is
// streamed once per iteration, applying to every column — the kernels
// are memory-bandwidth-bound, so the b-fold reuse of each loaded entry
// is where the engine's speedup comes from.
//
// Bitwise contract: column c of a batched result equals the
// single-vector kernel run on column c alone, path by path. The serial
// ApplyBatch visits entries, stored columns/tubes and nodes in exactly
// the order of the serial Apply; the parallel ApplyBatchParallel uses
// shard boundaries that depend only on the tensor and the shard count
// (par.Split over entry, node and stored-column counts — all independent
// of b) and reduces per-worker partials in worker order, like the
// single-vector sharded reference in the package tests. The dangling-mass
// closed form keeps its per-column `> 1e-15` guard, and columns without
// dangling mass skip the uniform add entirely, so no column ever sees an
// extra floating-point operation relative to its single-vector run.

import (
	"fmt"
	"sync"

	"tmark/internal/fault"
	"tmark/internal/obs"
	"tmark/internal/par"
)

// NodeBatchScratch holds the buffers of the blocked NodeTransition
// contraction: per-shard column sums and stored-column mass, the
// per-column dangling addend, and (for the parallel path) per-worker
// partial blocks. Build one per solver run with NewNodeBatchScratch and
// reuse it; steady-state ApplyBatch / ApplyBatchParallel calls then
// allocate nothing. A scratch must not be shared by concurrent calls.
type NodeBatchScratch struct {
	shards  int
	maxCols int
	// partials is shards × n × maxCols, worker-major: worker w owns
	// [w·n·maxCols, (w+1)·n·maxCols) and addresses cell (i, c) of a
	// b-column call at offset i·b+c within its block. Nil when the
	// scratch was built for one shard (serial-only use).
	partials []float64
	sumX     []float64 // shards × maxCols per-shard column sums of x
	sumZ     []float64 // shards × maxCols per-shard column sums of z
	mass     []float64 // shards × maxCols per-shard stored-column mass
	u        []float64 // maxCols per-column dangling addend
	task     nodeBatchTask
	wg       sync.WaitGroup

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
	s := &NodeBatchScratch{
		shards:  shards,
		maxCols: maxCols,
		sumX:    make([]float64, shards*maxCols),
		sumZ:    make([]float64, shards*maxCols),
		mass:    make([]float64, shards*maxCols),
		u:       make([]float64, maxCols),
	}
	if shards > 1 {
		s.partials = make([]float64, shards*o.n*maxCols)
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
// to Apply run on column c of x and z.
func (o *NodeTransition) ApplyBatch(s *NodeBatchScratch, x, z, dst []float64, b int) {
	s.checkCols(b)
	checkNodeBlocks(o, "ApplyBatch", len(x), len(z), len(dst), b)
	n := o.n
	dst = dst[:n*b]
	for q := range dst {
		dst[q] = 0
	}
	sumX, sumZ, mass, u := s.sumX[:b], s.sumZ[:b], s.mass[:b], s.u[:b]
	colSums(x[:n*b], b, sumX)
	colSums(z[:o.m*b], b, sumZ)
	for c := range mass {
		mass[c] = 0
	}
	asm := useBatchASM && !s.NoASM
	pairMassBatch(x, z, o.colJ, o.colK, b, 0, len(o.colJ), mass, asm)
	cooScatterBatch(dst, x, z, o.i, o.j, o.k, o.p, b, 0, len(o.p), asm)
	danglingAddends(sumX, sumZ, mass, u, n)
	addUniformCols(dst, u, b)
	if fault.Enabled() {
		fault.Fire(fault.TensorNodeBatch, dst, b)
	}
}

// fusedMassScatterBatch is the scalar serial relation-contraction core:
// one streaming pass over the entry runs. A run is one stored tube —
// contiguous in the sorted entry arrays, delimited by runStart, with its
// two operand rows fixed:
// run t loads a[runA[t]·b:] and bb[runB[t]·b:] once, folds them into the
// stored mass, and scatters the run's entries dst[di·b+c] += p·a_c·b_c.
// Bitwise contract: the runs appear in exactly the order of the pair
// lists, so mass[c] accumulates in the order of the single-vector
// stored-mass loop, and the entries appear in exactly their global sorted
// order, so every dst cell accumulates in the order of the single-vector
// scatter loop; mass and dst are disjoint accumulators, so interleaving
// the two passes changes no float. The parallel shard path cannot fuse —
// its par.Split boundaries over pairs and entries are independent and do
// not align with runs — so it keeps the split pairMassBatch +
// cooScatterBatch kernels.
func fusedMassScatterBatch(dst, a, bb []float64, runA, runB, runStart, di []int32, p []float64, cols int, mass []float64) {
	switch cols {
	case 1:
		m0 := mass[0]
		for t := range runA {
			a0 := a[runA[t]]
			b0 := bb[runB[t]]
			m0 += a0 * b0
			for q, end := int(runStart[t]), int(runStart[t+1]); q < end; q++ {
				dst[di[q]] += p[q] * a0 * b0
			}
		}
		mass[0] = m0
	case 2:
		m0, m1 := mass[0], mass[1]
		for t := range runA {
			av := (*[2]float64)(a[int(runA[t])*2:])
			bv := (*[2]float64)(bb[int(runB[t])*2:])
			a0, a1 := av[0], av[1]
			b0, b1 := bv[0], bv[1]
			m0 += a0 * b0
			m1 += a1 * b1
			for q, end := int(runStart[t]), int(runStart[t+1]); q < end; q++ {
				pv := p[q]
				d := (*[2]float64)(dst[int(di[q])*2:])
				d[0] += pv * a0 * b0
				d[1] += pv * a1 * b1
			}
		}
		mass[0], mass[1] = m0, m1
	case 3:
		m0, m1, m2 := mass[0], mass[1], mass[2]
		for t := range runA {
			av := (*[3]float64)(a[int(runA[t])*3:])
			bv := (*[3]float64)(bb[int(runB[t])*3:])
			a0, a1, a2 := av[0], av[1], av[2]
			b0, b1, b2 := bv[0], bv[1], bv[2]
			m0 += a0 * b0
			m1 += a1 * b1
			m2 += a2 * b2
			for q, end := int(runStart[t]), int(runStart[t+1]); q < end; q++ {
				pv := p[q]
				d := (*[3]float64)(dst[int(di[q])*3:])
				d[0] += pv * a0 * b0
				d[1] += pv * a1 * b1
				d[2] += pv * a2 * b2
			}
		}
		mass[0], mass[1], mass[2] = m0, m1, m2
	case 4:
		m0, m1, m2, m3 := mass[0], mass[1], mass[2], mass[3]
		for t := range runA {
			av := (*[4]float64)(a[int(runA[t])*4:])
			bv := (*[4]float64)(bb[int(runB[t])*4:])
			a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
			b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
			m0 += a0 * b0
			m1 += a1 * b1
			m2 += a2 * b2
			m3 += a3 * b3
			for q, end := int(runStart[t]), int(runStart[t+1]); q < end; q++ {
				pv := p[q]
				d := (*[4]float64)(dst[int(di[q])*4:])
				d[0] += pv * a0 * b0
				d[1] += pv * a1 * b1
				d[2] += pv * a2 * b2
				d[3] += pv * a3 * b3
			}
		}
		mass[0], mass[1], mass[2], mass[3] = m0, m1, m2, m3
	case 8:
		for t := range runA {
			av := (*[8]float64)(a[int(runA[t])*8:])
			bv := (*[8]float64)(bb[int(runB[t])*8:])
			a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
			a4, a5, a6, a7 := av[4], av[5], av[6], av[7]
			b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
			b4, b5, b6, b7 := bv[4], bv[5], bv[6], bv[7]
			mass[0] += a0 * b0
			mass[1] += a1 * b1
			mass[2] += a2 * b2
			mass[3] += a3 * b3
			mass[4] += a4 * b4
			mass[5] += a5 * b5
			mass[6] += a6 * b6
			mass[7] += a7 * b7
			for q, end := int(runStart[t]), int(runStart[t+1]); q < end; q++ {
				pv := p[q]
				d := (*[8]float64)(dst[int(di[q])*8:])
				d[0] += pv * a0 * b0
				d[1] += pv * a1 * b1
				d[2] += pv * a2 * b2
				d[3] += pv * a3 * b3
				d[4] += pv * a4 * b4
				d[5] += pv * a5 * b5
				d[6] += pv * a6 * b6
				d[7] += pv * a7 * b7
			}
		}
	default:
		for t := range runA {
			ab := int(runA[t]) * cols
			bbase := int(runB[t]) * cols
			av := a[ab : ab+cols]
			bv := bb[bbase : bbase+cols]
			for c := range av {
				mass[c] += av[c] * bv[c]
			}
			for q, end := int(runStart[t]), int(runStart[t+1]); q < end; q++ {
				pv := p[q]
				db := int(di[q]) * cols
				d := dst[db : db+cols]
				for c := range d {
					d[c] += pv * av[c] * bv[c]
				}
			}
		}
	}
}

// cooScatterBatch is the shared blocked COO entry loop of both
// contractions: dst[d·b+c] += p[q]·a[ai·b+c]·bb[bi·b+c] for every stored
// entry q in [lo, hi) and every column c < b. The node contraction passes
// (i, j, k) as (d, ai, bi) with a = X, bb = Z; the relation contraction
// passes (k, i, j) with a = bb = X. This loop runs nnz·b multiply-adds
// per call — the solver's hot spot — so the common small column counts
// are specialised to fixed-width bodies (via slice-to-array-pointer
// views) that the compiler fully unrolls; each column's accumulation
// order is the entry order q in every variant, keeping the per-column
// bitwise contract.
// The entry arrays arrive sorted so that the bi index is constant over
// long contiguous runs (node: entries sorted by (k, j, i) keep z[k]
// fixed for a whole slab; relation: sorted by (j, i, k) keep x[j] fixed
// across a node's out-edges), so each specialised body caches that one
// operand row in locals and reloads it only when the index changes: the
// reload branch is almost never taken and predicts perfectly. The ai
// index changes nearly every entry, so its row is loaded directly — a
// run cache there would mispredict constantly and cost more than the
// loads it saves. Pure load elimination: no float's value or
// accumulation order changes.
// asm selects the AVX2 bodies for cols 4 and 8; callers pass
// useBatchASM gated on the scratch's NoASM demotion flag.
func cooScatterBatch(dst, a, bb []float64, di, ai, bi []int32, p []float64, cols, lo, hi int, asm bool) {
	if lo >= hi {
		return
	}
	switch cols {
	case 1:
		lastB := bi[lo]
		b0 := bb[lastB]
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB, b0 = v, bb[v]
			}
			dst[di[q]] += p[q] * a[ai[q]] * b0
		}
	case 2:
		lastB := bi[lo]
		bv := (*[2]float64)(bb[int(lastB)*2:])
		b0, b1 := bv[0], bv[1]
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB = v
				bv = (*[2]float64)(bb[int(v)*2:])
				b0, b1 = bv[0], bv[1]
			}
			pv := p[q]
			av := (*[2]float64)(a[int(ai[q])*2:])
			d := (*[2]float64)(dst[int(di[q])*2:])
			d[0] += pv * av[0] * b0
			d[1] += pv * av[1] * b1
		}
	case 3:
		lastB := bi[lo]
		bv := (*[3]float64)(bb[int(lastB)*3:])
		b0, b1, b2 := bv[0], bv[1], bv[2]
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB = v
				bv = (*[3]float64)(bb[int(v)*3:])
				b0, b1, b2 = bv[0], bv[1], bv[2]
			}
			pv := p[q]
			av := (*[3]float64)(a[int(ai[q])*3:])
			d := (*[3]float64)(dst[int(di[q])*3:])
			d[0] += pv * av[0] * b0
			d[1] += pv * av[1] * b1
			d[2] += pv * av[2] * b2
		}
	case 4:
		if asm {
			cooScatterAVX4(&dst[0], &a[0], &bb[0], &di[lo], &ai[lo], &bi[lo], &p[lo], hi-lo)
			return
		}
		lastB := bi[lo]
		bv := (*[4]float64)(bb[int(lastB)*4:])
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB = v
				bv = (*[4]float64)(bb[int(v)*4:])
				b0, b1, b2, b3 = bv[0], bv[1], bv[2], bv[3]
			}
			pv := p[q]
			av := (*[4]float64)(a[int(ai[q])*4:])
			d := (*[4]float64)(dst[int(di[q])*4:])
			d[0] += pv * av[0] * b0
			d[1] += pv * av[1] * b1
			d[2] += pv * av[2] * b2
			d[3] += pv * av[3] * b3
		}
	case 8:
		if asm {
			cooScatterAVX8(&dst[0], &a[0], &bb[0], &di[lo], &ai[lo], &bi[lo], &p[lo], hi-lo)
			return
		}
		lastB := bi[lo]
		bv := (*[8]float64)(bb[int(lastB)*8:])
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB = v
				bv = (*[8]float64)(bb[int(v)*8:])
			}
			pv := p[q]
			av := (*[8]float64)(a[int(ai[q])*8:])
			d := (*[8]float64)(dst[int(di[q])*8:])
			d[0] += pv * av[0] * bv[0]
			d[1] += pv * av[1] * bv[1]
			d[2] += pv * av[2] * bv[2]
			d[3] += pv * av[3] * bv[3]
			d[4] += pv * av[4] * bv[4]
			d[5] += pv * av[5] * bv[5]
			d[6] += pv * av[6] * bv[6]
			d[7] += pv * av[7] * bv[7]
		}
	default:
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
}

// pairMassBatch accumulates mass[c] += a[ai·b+c]·bb[bi·b+c] over the
// index pairs in [lo, hi) — the stored-column (or stored-tube) mass of
// the dangling closed form — with the same fixed-width specialisation
// and per-column entry order as cooScatterBatch.
// The b-side index is nearly constant over the sorted pair lists (the
// node mass pairs sort by (k, j), the relation ones by (j, i)), so its
// row is cached in locals like cooScatterBatch's operands; the column
// accumulators live in locals too, added in the same q order per column.
func pairMassBatch(a, bb []float64, ai, bi []int32, cols, lo, hi int, mass []float64, asm bool) {
	if lo >= hi {
		return
	}
	switch cols {
	case 1:
		lastB := bi[lo]
		b0 := bb[lastB]
		m0 := mass[0]
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB, b0 = v, bb[v]
			}
			m0 += a[ai[q]] * b0
		}
		mass[0] = m0
	case 2:
		lastB := bi[lo]
		bv := (*[2]float64)(bb[int(lastB)*2:])
		b0, b1 := bv[0], bv[1]
		m0, m1 := mass[0], mass[1]
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB = v
				bv = (*[2]float64)(bb[int(v)*2:])
				b0, b1 = bv[0], bv[1]
			}
			av := (*[2]float64)(a[int(ai[q])*2:])
			m0 += av[0] * b0
			m1 += av[1] * b1
		}
		mass[0], mass[1] = m0, m1
	case 3:
		lastB := bi[lo]
		bv := (*[3]float64)(bb[int(lastB)*3:])
		b0, b1, b2 := bv[0], bv[1], bv[2]
		m0, m1, m2 := mass[0], mass[1], mass[2]
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB = v
				bv = (*[3]float64)(bb[int(v)*3:])
				b0, b1, b2 = bv[0], bv[1], bv[2]
			}
			av := (*[3]float64)(a[int(ai[q])*3:])
			m0 += av[0] * b0
			m1 += av[1] * b1
			m2 += av[2] * b2
		}
		mass[0], mass[1], mass[2] = m0, m1, m2
	case 4:
		if asm {
			pairMassAVX4(&a[0], &bb[0], &ai[lo], &bi[lo], hi-lo, &mass[0])
			return
		}
		lastB := bi[lo]
		bv := (*[4]float64)(bb[int(lastB)*4:])
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		m0, m1, m2, m3 := mass[0], mass[1], mass[2], mass[3]
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB = v
				bv = (*[4]float64)(bb[int(v)*4:])
				b0, b1, b2, b3 = bv[0], bv[1], bv[2], bv[3]
			}
			av := (*[4]float64)(a[int(ai[q])*4:])
			m0 += av[0] * b0
			m1 += av[1] * b1
			m2 += av[2] * b2
			m3 += av[3] * b3
		}
		mass[0], mass[1], mass[2], mass[3] = m0, m1, m2, m3
	case 8:
		if asm {
			pairMassAVX8(&a[0], &bb[0], &ai[lo], &bi[lo], hi-lo, &mass[0])
			return
		}
		lastB := bi[lo]
		bv := (*[8]float64)(bb[int(lastB)*8:])
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB = v
				bv = (*[8]float64)(bb[int(v)*8:])
			}
			av := (*[8]float64)(a[int(ai[q])*8:])
			mass[0] += av[0] * bv[0]
			mass[1] += av[1] * bv[1]
			mass[2] += av[2] * bv[2]
			mass[3] += av[3] * bv[3]
			mass[4] += av[4] * bv[4]
			mass[5] += av[5] * bv[5]
			mass[6] += av[6] * bv[6]
			mass[7] += av[7] * bv[7]
		}
	default:
		lastB := int32(-1)
		var bv []float64
		for q := lo; q < hi; q++ {
			if v := bi[q]; v != lastB {
				lastB = v
				bv = bb[int(v)*cols : int(v)*cols+cols]
			}
			ab := int(ai[q]) * cols
			av := a[ab : ab+cols]
			for c := range av {
				mass[c] += av[c] * bv[c]
			}
		}
	}
}

// colSums accumulates the per-column sums of an rows×b block into sum,
// visiting rows in ascending order like the single-vector sum loops.
func colSums(block []float64, b int, sum []float64) {
	for c := range sum {
		sum[c] = 0
	}
	for base := 0; base < len(block); base += b {
		row := block[base : base+b]
		for c, v := range row {
			sum[c] += v
		}
	}
}

// danglingAddends fills u with the per-column uniform addend of the
// dangling mass sumA[c]·sumB[c] − mass[c], keeping the single-vector
// `> 1e-15` guard per column.
func danglingAddends(sumA, sumB, mass, u []float64, dim int) {
	for c := range u {
		if dangling := sumA[c]*sumB[c] - mass[c]; dangling > 1e-15 && dim > 0 {
			u[c] = dangling / float64(dim)
		} else {
			u[c] = 0
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
// per-worker partial blocks, then a strided reduction folding them into
// dst in worker order.
type nodeBatchTask struct {
	o      *NodeTransition
	s      *NodeBatchScratch
	x, z   []float64
	dst    []float64
	b      int
	reduce bool
}

func (t *nodeBatchTask) RunShard(shard, shards int) {
	o, s, b := t.o, t.s, t.b
	n := o.n
	wBase := shard * n * s.maxCols
	if t.reduce {
		lo, hi := par.Split(n, shards, shard)
		u := s.u[:b]
		for i := lo; i < hi; i++ {
			row := i * b
			for c := 0; c < b; c++ {
				acc := u[c]
				for w := 0; w < shards; w++ {
					acc += s.partials[w*n*s.maxCols+row+c]
				}
				t.dst[row+c] = acc
			}
		}
		return
	}
	part := s.partials[wBase : wBase+n*b]
	for i := range part {
		part[i] = 0
	}
	x, z := t.x, t.z
	sumX := s.sumX[shard*s.maxCols : shard*s.maxCols+b]
	sumZ := s.sumZ[shard*s.maxCols : shard*s.maxCols+b]
	mass := s.mass[shard*s.maxCols : shard*s.maxCols+b]
	for c := 0; c < b; c++ {
		sumX[c], sumZ[c], mass[c] = 0, 0, 0
	}
	lo, hi := par.Split(n, shards, shard)
	for i := lo; i < hi; i++ {
		row := x[i*b : i*b+b]
		for c, v := range row {
			sumX[c] += v
		}
	}
	lo, hi = par.Split(o.m, shards, shard)
	for k := lo; k < hi; k++ {
		row := z[k*b : k*b+b]
		for c, v := range row {
			sumZ[c] += v
		}
	}
	asm := useBatchASM && !s.NoASM
	lo, hi = par.Split(len(o.colJ), shards, shard)
	pairMassBatch(x, z, o.colJ, o.colK, b, lo, hi, mass, asm)
	lo, hi = par.Split(len(o.p), shards, shard)
	cooScatterBatch(part, x, z, o.i, o.j, o.k, o.p, b, lo, hi, asm)
}

// ApplyBatchParallel computes the blocked contraction like ApplyBatch
// with the entry shards spread across the pool. Shard boundaries are the
// single-vector ones (they depend only on the tensor and the shard
// count, never on b) and the per-worker partials reduce in worker order,
// so for a fixed worker count column c of the result is bitwise
// independent of b and equal to the single-vector sharded reference run
// on column c alone. A nil/serial pool or single-shard
// scratch falls back to the serial path.
func (o *NodeTransition) ApplyBatchParallel(p *par.Pool, s *NodeBatchScratch, x, z, dst []float64, b int) {
	if p.Serial() || s == nil || s.shards <= 1 {
		o.ApplyBatch(s, x, z, dst, b)
		return
	}
	s.checkCols(b)
	checkNodeBlocks(o, "ApplyBatchParallel", len(x), len(z), len(dst), b)
	s.Probe.ObserveCols(len(o.p), b)
	t := &s.task
	t.x, t.z, t.dst, t.b = x, z, dst[:o.n*b], b
	t.reduce = false
	p.Run(s.shards, t, &s.wg)
	u := s.u[:b]
	for c := 0; c < b; c++ {
		var sumX, sumZ, stored float64
		for w := 0; w < s.shards; w++ {
			sumX += s.sumX[w*s.maxCols+c]
			sumZ += s.sumZ[w*s.maxCols+c]
			stored += s.mass[w*s.maxCols+c]
		}
		if dangling := sumX*sumZ - stored; dangling > 1e-15 && o.n > 0 {
			u[c] = dangling / float64(o.n)
		} else {
			u[c] = 0
		}
	}
	t.reduce = true
	p.Run(s.shards, t, &s.wg)
	t.x, t.z, t.dst = nil, nil, nil
	if fault.Enabled() {
		fault.Fire(fault.TensorNodeBatch, dst[:o.n*b], b)
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
	// partials is shards × m × maxCols, worker-major; nil when built for
	// one shard.
	partials []float64
	sumI     []float64 // shards × maxCols per-shard column sums of x
	mass     []float64 // shards × maxCols per-shard stored-tube mass
	u        []float64 // maxCols per-column dangling addend
	task     relationBatchTask
	wg       sync.WaitGroup

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
	s := &RelationBatchScratch{
		shards:  shards,
		maxCols: maxCols,
		sumI:    make([]float64, shards*maxCols),
		mass:    make([]float64, shards*maxCols),
		u:       make([]float64, maxCols),
	}
	if shards > 1 {
		s.partials = make([]float64, shards*r.m*maxCols)
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
// bitwise when xi == xj, so the sum is computed once and squared.
func (r *RelationTransition) ApplyBatch(s *RelationBatchScratch, x, dst []float64, b int) {
	s.checkCols(b)
	checkRelationBlocks(r, "ApplyBatch", len(x), len(dst), b)
	m := r.m
	dst = dst[:m*b]
	for q := range dst {
		dst[q] = 0
	}
	sumI, mass, u := s.sumI[:b], s.mass[:b], s.u[:b]
	colSums(x[:r.n*b], b, sumI)
	for c := range mass {
		mass[c] = 0
	}
	if asm := useBatchASM && !s.NoASM; asm && (b == 4 || b == 8) {
		// The AVX2 split kernels beat the fused pass; both orders are
		// bitwise identical (see fusedMassScatterBatch).
		pairMassBatch(x, x, r.tubeI, r.tubeJ, b, 0, len(r.tubeI), mass, asm)
		cooScatterBatch(dst, x, x, r.k, r.i, r.j, r.p, b, 0, len(r.p), asm)
	} else {
		fusedMassScatterBatch(dst, x, x, r.tubeI, r.tubeJ, r.tubeStart, r.k, r.p, b, mass)
	}
	danglingAddends(sumI, sumI, mass, u, m)
	addUniformCols(dst, u, b)
	if fault.Enabled() {
		fault.Fire(fault.TensorRelationBatch, dst, b)
	}
}

type relationBatchTask struct {
	r *RelationTransition
	s *RelationBatchScratch
	x []float64
	b int
}

func (t *relationBatchTask) RunShard(shard, shards int) {
	r, s, b := t.r, t.s, t.b
	m := r.m
	part := s.partials[shard*m*s.maxCols : shard*m*s.maxCols+m*b]
	for i := range part {
		part[i] = 0
	}
	x := t.x
	sumI := s.sumI[shard*s.maxCols : shard*s.maxCols+b]
	mass := s.mass[shard*s.maxCols : shard*s.maxCols+b]
	for c := 0; c < b; c++ {
		sumI[c], mass[c] = 0, 0
	}
	lo, hi := par.Split(r.n, shards, shard)
	for i := lo; i < hi; i++ {
		row := x[i*b : i*b+b]
		for c, v := range row {
			sumI[c] += v
		}
	}
	asm := useBatchASM && !s.NoASM
	lo, hi = par.Split(len(r.tubeI), shards, shard)
	pairMassBatch(x, x, r.tubeI, r.tubeJ, b, lo, hi, mass, asm)
	lo, hi = par.Split(len(r.p), shards, shard)
	cooScatterBatch(part, x, x, r.k, r.i, r.j, r.p, b, lo, hi, asm)
}

// ApplyBatchParallel computes the blocked contraction like ApplyBatch
// with the entry shards spread across the pool, reducing the m×b output
// serially in the caller. For a fixed worker count column c of the
// result is bitwise independent of b and equal to the single-vector
// sharded reference run on column c alone. A nil/serial pool or
// single-shard
// scratch falls back to the serial path.
func (r *RelationTransition) ApplyBatchParallel(p *par.Pool, s *RelationBatchScratch, x, dst []float64, b int) {
	if p.Serial() || s == nil || s.shards <= 1 {
		r.ApplyBatch(s, x, dst, b)
		return
	}
	s.checkCols(b)
	checkRelationBlocks(r, "ApplyBatchParallel", len(x), len(dst), b)
	s.Probe.ObserveCols(len(r.p), b)
	t := &s.task
	t.x, t.b = x, b
	p.Run(s.shards, t, &s.wg)
	u := s.u[:b]
	for c := 0; c < b; c++ {
		var sumI, stored float64
		for w := 0; w < s.shards; w++ {
			sumI += s.sumI[w*s.maxCols+c]
			stored += s.mass[w*s.maxCols+c]
		}
		if dangling := sumI*sumI - stored; dangling > 1e-15 && r.m > 0 {
			u[c] = dangling / float64(r.m)
		} else {
			u[c] = 0
		}
	}
	m := r.m
	for k := 0; k < m; k++ {
		row := k * b
		for c := 0; c < b; c++ {
			acc := u[c]
			for w := 0; w < s.shards; w++ {
				acc += s.partials[w*m*s.maxCols+row+c]
			}
			dst[row+c] = acc
		}
	}
	t.x = nil
	if fault.Enabled() {
		fault.Fire(fault.TensorRelationBatch, dst[:m*b], b)
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
