package vec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tmark/internal/obs"
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

	// Probe, when non-nil, counts MulVecParallel calls and the dense cells
	// they touch; nil disables observation.
	Probe *obs.Probe
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
	s.Probe.Observe(m.Rows * m.Cols)
	s.task.m, s.task.x, s.task.dst = m, x, dst
	p.Run(s.shards, &s.task, &s.wg)
	s.task.x, s.task.dst = nil, nil
}

func randomFeatures(rng *rand.Rand, n, d int) [][]float64 {
	f := make([][]float64, n)
	for i := range f {
		f[i] = make([]float64, d)
		if i%7 == 0 {
			continue // featureless node: zero vector
		}
		for j := range f[i] {
			f[i][j] = rng.Float64()
		}
	}
	return f
}

// Every cosine cell is written by exactly one worker with unchanged
// arithmetic, so the parallel build must be bitwise identical.
func TestCosineMatrixParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 13, 64} {
		f := randomFeatures(rng, n, 8)
		want := CosineMatrix(f)
		for _, workers := range []int{2, 5} {
			p := par.New(workers)
			got := CosineMatrixPar(f, p)
			p.Close()
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("n=%d workers=%d: cell %d = %v, want %v", n, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestNormalizeColumnsParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			if rng.Float64() < 0.6 {
				a.Data[i] = rng.Float64()
			}
		}
		b := a.Clone()
		wantZero := a.NormalizeColumns(true)
		p := par.New(3)
		gotZero := b.NormalizeColumnsPar(true, p)
		p.Close()
		if wantZero != gotZero {
			t.Fatalf("trial %d: zero-column count %d, want %d", trial, gotZero, wantZero)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("trial %d: cell %d = %v, want %v", trial, i, b.Data[i], a.Data[i])
			}
		}
	}
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
