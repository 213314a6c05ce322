package vec

// Multi-right-hand-side (blocked) companions to MulVec. The batched
// solver advances all classes at once, so the feature product becomes a
// dense SpMM-style pass: each matrix row is streamed once and applied to
// every active class column. Per column the accumulation order over the
// row entries is identical to MulVec, so column c of the blocked result
// is bitwise equal to MulVec run on column c alone.

import (
	"fmt"
	"sync"

	"tmark/internal/par"
)

// MulVecBatch computes the blocked product dst = m·x for b interleaved
// right-hand sides: x is a Cols×b block, dst a Rows×b block (both
// node-major, stride b), and dst must not alias x.
func (m *Matrix) MulVecBatch(x, dst []float64, b int) {
	if b <= 0 {
		panic(fmt.Sprintf("vec: MulVecBatch column count %d", b))
	}
	if len(x) < m.Cols*b {
		panic(fmt.Sprintf("vec: MulVecBatch x block %d, want %d", len(x), m.Cols*b))
	}
	if len(dst) < m.Rows*b {
		panic(fmt.Sprintf("vec: MulVecBatch dst block %d, want %d", len(dst), m.Rows*b))
	}
	m.mulBatchRows(x, dst, b, 0, m.Rows)
}

// mulBatchRows computes rows [lo, hi) of the blocked product; each output
// cell is owned by exactly one caller, so disjoint row ranges can run
// concurrently.
func (m *Matrix) mulBatchRows(x, dst []float64, b, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		out := dst[i*b : (i+1)*b]
		for c := range out {
			out[c] = 0
		}
		for j, v := range row {
			xr := x[j*b : (j+1)*b]
			for c, xv := range xr {
				out[c] += v * xv
			}
		}
	}
}

// MulBatchScratch holds the reusable dispatch state of the dense
// MulVecBatchParallel. Build one per solver run with NewMulBatchScratch;
// steady-state calls then allocate nothing. A scratch must not be shared
// by concurrent calls.
type MulBatchScratch struct {
	shards int
	task   denseMulBatchTask
	wg     sync.WaitGroup
}

// NewMulBatchScratch returns batch scratch for the given shard count.
// shards < 1 is treated as 1.
func NewMulBatchScratch(shards int) *MulBatchScratch {
	if shards < 1 {
		shards = 1
	}
	return &MulBatchScratch{shards: shards}
}

type denseMulBatchTask struct {
	m      *Matrix
	x, dst []float64
	b      int
}

func (t *denseMulBatchTask) RunShard(shard, shards int) {
	lo, hi := par.Split(t.m.Rows, shards, shard)
	t.m.mulBatchRows(t.x, t.dst, t.b, lo, hi)
}

// MulVecBatchParallel is MulVecBatch with the rows sharded across the
// pool in equal ranges (dense rows cost the same; boundaries depend only
// on Rows and the shard count, never on b). Each row is computed by
// exactly one worker with the serial arithmetic, so the result is
// bitwise identical to MulVecBatch. A nil/serial pool or single-shard
// scratch falls back to the serial path.
func (m *Matrix) MulVecBatchParallel(p *par.Pool, s *MulBatchScratch, x, dst []float64, b int) {
	if p.Serial() || s == nil || s.shards <= 1 || m.Rows == 0 {
		m.MulVecBatch(x, dst, b)
		return
	}
	if b <= 0 || len(x) < m.Cols*b || len(dst) < m.Rows*b {
		panic(fmt.Sprintf("vec: MulVecBatchParallel blocks %d/%d for %dx%d with %d columns",
			len(x), len(dst), m.Rows, m.Cols, b))
	}
	s.task.m, s.task.x, s.task.dst, s.task.b = m, x, dst, b
	p.Run(s.shards, &s.task, &s.wg)
	s.task.x, s.task.dst = nil, nil
}
