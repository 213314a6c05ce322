package sparse

// Multi-right-hand-side (blocked) CSR product: the batched solver's
// SpMV → SpMM upgrade. Each stored entry is read once per iteration and
// applied to every active class column, so the kernel's memory traffic
// is independent of the class count. Per column the entries of a row are
// accumulated in the same ascending order as MulVec, so column c of the
// blocked result is bitwise equal to MulVec run on column c alone.
//
// On AVX2 hosts the strides 4 and 8, the strides the solver lays out
// 1–8 columns at (vec.Stride), run a vector body that keeps each row's
// accumulator in registers (see batch_amd64.go); every other stride,
// non-amd64 builds and a scratch with NoASM set run the scalar body, the
// reference the vector one is bitwise equal to. Either body computes
// every lane of the block it is handed.

import (
	"fmt"
	"sync"

	"tmark/internal/cpuid"
	"tmark/internal/fault"
	"tmark/internal/par"
	"tmark/internal/vec"
)

// useBatchASM selects the AVX2 body. A var, not a const, so tests can
// run the scalar body on any host.
var useBatchASM = cpuid.AVX2

// MulVecBatch computes the blocked product dst = M·x for b interleaved
// right-hand sides: x is a cols×b block, dst a rows×b block (node-major,
// stride b), and dst must not alias x.
func (m *Matrix) MulVecBatch(x, dst []float64, b int) {
	m.mulVecBatch(x, dst, b, false)
}

func (m *Matrix) mulVecBatch(x, dst []float64, b int, noASM bool) {
	if b <= 0 {
		panic(fmt.Sprintf("sparse: MulVecBatch column count %d", b))
	}
	if len(x) < m.cols*b {
		panic(fmt.Sprintf("sparse: MulVecBatch x block %d, want %d", len(x), m.cols*b))
	}
	if len(dst) < m.rows*b {
		panic(fmt.Sprintf("sparse: MulVecBatch dst block %d, want %d", len(dst), m.rows*b))
	}
	vector := useVector(b, noASM)
	m.mulBatchRows(x, dst, b, 0, m.rows, vector)
	if fault.Enabled() {
		fault.Fire(fault.SparseMulBatch, dst[:m.rows*b], b, vector)
	}
}

// useVector reports whether a product at stride b runs the AVX2 body.
func useVector(b int, noASM bool) bool {
	return useBatchASM && !noASM && vec.VectorStride(b)
}

// mulBatchRows computes rows [lo, hi) of the blocked product; every
// output cell is owned by exactly one caller, so disjoint row ranges can
// run concurrently. vector selects the AVX2 body (b = 4 or 8 only).
func (m *Matrix) mulBatchRows(x, dst []float64, b, lo, hi int, vector bool) {
	if lo >= hi {
		return
	}
	if vector && len(m.values) > 0 {
		if b == 4 {
			mulRowsAVX4(&m.rowPtr[lo], &m.colIdx[0], &m.values[0], &x[0], &dst[lo*b], hi-lo)
		} else {
			mulRowsAVX8(&m.rowPtr[lo], &m.colIdx[0], &m.values[0], &x[0], &dst[lo*b], hi-lo)
		}
		return
	}
	for r := lo; r < hi; r++ {
		out := dst[r*b : (r+1)*b]
		for c := range out {
			out[c] = 0
		}
		for p := m.rowPtr[r]; p < m.rowPtr[r+1]; p++ {
			v := m.values[p]
			xr := x[int(m.colIdx[p])*b:]
			for c := range out {
				out[c] += v * xr[c]
			}
		}
	}
}

// MulBatchScratch holds the reusable dispatch state of
// MulVecBatchParallel. Build one per solver run with NewMulBatchScratch;
// steady-state calls then allocate nothing. A scratch must not be shared
// by concurrent calls.
type MulBatchScratch struct {
	shards int
	task   mulBatchTask
	wg     sync.WaitGroup

	// NoASM demotes the products run with this scratch, serial fallback
	// included, to the scalar body even when the host supports the AVX2
	// one. The solver's numerical-fault retry sets it, as it does on the
	// tensor contractions' scratch.
	NoASM bool
}

// NewMulBatchScratch returns batch scratch for the given shard count.
// shards < 1 is treated as 1.
func NewMulBatchScratch(shards int) *MulBatchScratch {
	if shards < 1 {
		shards = 1
	}
	return &MulBatchScratch{shards: shards}
}

type mulBatchTask struct {
	m      *Matrix
	x, dst []float64
	b      int
	vector bool
}

func (t *mulBatchTask) RunShard(shard, shards int) {
	m := t.m
	nnz := len(m.values)
	lo := m.rowAtNNZ(shard * nnz / shards)
	hi := m.rowAtNNZ((shard + 1) * nnz / shards)
	if shard == shards-1 {
		hi = m.rows // trailing empty rows belong to the last shard
	}
	m.mulBatchRows(t.x, t.dst, t.b, lo, hi, t.vector)
}

// rowAtNNZ returns the smallest row whose rowPtr is >= target. Because the
// targets s·nnz/shards are nondecreasing in s, consecutive shards receive
// disjoint row ranges that tile [0, rows).
func (m *Matrix) rowAtNNZ(target int) int {
	lo, hi := 0, m.rows
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(m.rowPtr[mid]) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MulVecBatchParallel is MulVecBatch with the rows sharded across the
// pool by stored-entry count, so skewed matrices still load-balance; the
// boundaries depend only on the matrix and shard count, never on b. Each
// row is computed by exactly one worker with the serial arithmetic, so
// the result is bitwise identical to MulVecBatch. A nil/serial pool or
// single-shard scratch falls back to the serial path, which still
// honours the scratch's NoASM.
func (m *Matrix) MulVecBatchParallel(p *par.Pool, s *MulBatchScratch, x, dst []float64, b int) {
	if p.Serial() || s == nil || s.shards <= 1 || m.rows == 0 {
		m.mulVecBatch(x, dst, b, s != nil && s.NoASM)
		return
	}
	if b <= 0 || len(x) < m.cols*b || len(dst) < m.rows*b {
		panic("sparse: MulVecBatchParallel block length mismatch")
	}
	vector := useVector(b, s.NoASM)
	s.task.m, s.task.x, s.task.dst, s.task.b, s.task.vector = m, x, dst, b, vector
	p.Run(s.shards, &s.task, &s.wg)
	s.task.x, s.task.dst = nil, nil
	if fault.Enabled() {
		fault.Fire(fault.SparseMulBatch, dst[:m.rows*b], b, vector)
	}
}
