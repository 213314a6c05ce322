package vec

// Parallel companions to the dense-matrix construction operations. Both
// produce results bitwise identical to their serial counterparts: work is
// partitioned so that every output cell is written by exactly one worker
// with unchanged arithmetic.

import (
	"sync"
	"sync/atomic"

	"tmark/internal/par"
)

// cosineTask computes cosine rows strided by shard: row i does n−i dot
// products, so striding balances the triangular workload across workers.
type cosineTask struct {
	features [][]float64
	norms    []float64
	m        *Matrix
}

func (t *cosineTask) RunShard(shard, shards int) {
	for i := shard; i < len(t.features); i += shards {
		cosineRow(t.m, t.features, t.norms, i)
	}
}

// CosineMatrixPar is CosineMatrix with the O(n²·d) pairwise dot products
// spread over the pool. Every cell is written by exactly one worker, so
// the result is bitwise identical to the serial build.
func CosineMatrixPar(features [][]float64, p *par.Pool) *Matrix {
	if p.Serial() || len(features) <= 1 {
		return CosineMatrix(features)
	}
	n := len(features)
	m := NewMatrix(n, n)
	norms := make([]float64, n)
	for i, f := range features {
		norms[i] = Norm2(f)
	}
	shards := p.Workers()
	if shards > n {
		shards = n
	}
	t := &cosineTask{features: features, norms: norms, m: m}
	var wg sync.WaitGroup
	p.Run(shards, t, &wg)
	return m
}

// NormalizeColumnsPar is NormalizeColumns with the column sweeps spread
// over the pool; columns are independent, so the per-column arithmetic —
// and hence the result — matches the serial method exactly.
func (m *Matrix) NormalizeColumnsPar(fillUniform bool, p *par.Pool) int {
	if p.Serial() {
		return m.NormalizeColumns(fillUniform)
	}
	var zero int64
	p.For(m.Cols, func(lo, hi int) {
		z := m.normalizeColumnRange(lo, hi, fillUniform)
		atomic.AddInt64(&zero, int64(z))
	})
	return int(zero)
}
