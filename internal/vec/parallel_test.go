package vec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tmark/internal/par"
)

// The single-vector sharded dense matvec: the independent reference the
// blocked MulVecBatchParallel is checked against column by column.

// MulScratch holds the reusable dispatch state of the dense MulVecParallel.
// Build one per solver run with NewMulScratch; steady-state calls then
// allocate nothing. A scratch must not be shared by concurrent calls.
type MulScratch struct {
	shards int
	task   denseMulTask
	wg     sync.WaitGroup
}

// NewMulScratch returns scratch for the given shard count. shards < 1 is
// treated as 1.
func NewMulScratch(shards int) *MulScratch {
	if shards < 1 {
		shards = 1
	}
	return &MulScratch{shards: shards}
}

type denseMulTask struct {
	m      *Matrix
	x, dst []float64
}

func (t *denseMulTask) RunShard(shard, shards int) {
	m := t.m
	lo, hi := par.Split(m.Rows, shards, shard)
	x := t.x
	for i := lo; i < hi; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		t.dst[i] = s
	}
}

// MulVecParallel computes dst = m·x like MulVec with the rows sharded
// across the pool. Dense rows cost the same, so plain equal ranges
// balance. Bitwise identical to MulVec; a nil/serial pool or single-shard
// scratch falls back to the serial path.
func (m *Matrix) MulVecParallel(p *par.Pool, s *MulScratch, x, dst Vector) {
	if p.Serial() || s == nil || s.shards <= 1 || m.Rows == 0 {
		m.MulVec(x, dst)
		return
	}
	if len(x) != m.Cols {
		panic(fmt.Sprintf("vec: MulVecParallel x length %d, want %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("vec: MulVecParallel dst length %d, want %d", len(dst), m.Rows))
	}
	s.task.m, s.task.x, s.task.dst = m, x, dst
	p.Run(s.shards, &s.task, &s.wg)
	s.task.x, s.task.dst = nil, nil
}

func TestDenseMulVecParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		rows, cols := 1+rng.Intn(80), 1+rng.Intn(40)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		m.MulVec(x, want)
		p := par.New(4)
		s := NewMulScratch(4)
		got := make([]float64, rows)
		m.MulVecParallel(p, s, x, got)
		p.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: row %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestDenseMulVecParallelZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMatrix(300, 300)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	x := make([]float64, 300)
	dst := make([]float64, 300)
	p := par.New(4)
	defer p.Close()
	s := NewMulScratch(4)
	if allocs := testing.AllocsPerRun(50, func() {
		m.MulVecParallel(p, s, x, dst)
	}); allocs != 0 {
		t.Errorf("dense MulVecParallel allocates %v per call, want 0", allocs)
	}
}
