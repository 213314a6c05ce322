package sparse

import (
	"math"
	"math/rand"
	"testing"

	"tmark/internal/vec"
)

func TestFromTripletsBasics(t *testing.T) {
	m := FromTriplets(3, 4, []Triplet{
		{0, 1, 2},
		{2, 3, 5},
		{0, 1, 1}, // duplicate: summed
		{1, 0, 0}, // zero: dropped
	})
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if got := m.At(0, 1); got != 3 {
		t.Errorf("At(0,1) = %v, want 3 (summed duplicates)", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %v, want 0", got)
	}
	if got := m.At(2, 3); got != 5 {
		t.Errorf("At(2,3) = %v, want 5", got)
	}
}

func TestFromTripletsPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative shape": func() { FromTriplets(-1, 2, nil) },
		"entry range":    func() { FromTriplets(2, 2, []Triplet{{5, 0, 1}}) },
		"at range":       func() { FromTriplets(1, 1, nil).At(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		d := vec.NewMatrix(rows, cols)
		for i := range d.Data {
			if rng.Float64() < 0.3 {
				d.Data[i] = rng.NormFloat64()
			}
		}
		s := FromDense(d, 0)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		got := make([]float64, rows)
		d.MulVec(x, want)
		s.MulVec(x, got)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12 {
				t.Fatalf("trial %d: sparse MulVec[%d] = %v, dense %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestFromDenseDropsBelowTolerance(t *testing.T) {
	d := vec.FromRows([][]float64{{1e-12, 1}, {-1e-12, -2}})
	s := FromDense(d, 1e-9)
	if s.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 after tolerance drop", s.NNZ())
	}
}

func TestColumnSums(t *testing.T) {
	m := FromTriplets(2, 2, []Triplet{{0, 0, 0.5}, {1, 0, 0.5}, {0, 1, 1}})
	sums := m.ColumnSums()
	if sums[0] != 1 || sums[1] != 1 {
		t.Errorf("ColumnSums = %v, want [1 1]", sums)
	}
}

func TestEachOrder(t *testing.T) {
	m := FromTriplets(2, 3, []Triplet{{1, 2, 3}, {0, 1, 1}, {1, 0, 2}})
	var visits [][3]float64
	m.Each(func(r, c int, v float64) { visits = append(visits, [3]float64{float64(r), float64(c), v}) })
	want := [][3]float64{{0, 1, 1}, {1, 0, 2}, {1, 2, 3}}
	if len(visits) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(visits), len(want))
	}
	for i := range want {
		if visits[i] != want[i] {
			t.Errorf("visit %d = %v, want %v", i, visits[i], want[i])
		}
	}
}

func TestMulVecPanics(t *testing.T) {
	m := FromTriplets(2, 2, nil)
	for name, f := range map[string]func(){
		"x length":   func() { m.MulVec([]float64{1}, []float64{0, 0}) },
		"dst length": func() { m.MulVec([]float64{1, 2}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

// Reference CSR semantics: duplicates summed, zeros dropped, rows in
// order, columns ascending within a row. The counting-sort build must
// reproduce a brute-force map build exactly.
func TestFromTripletsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		nnz := rng.Intn(4 * rows)
		entries := make([]Triplet, 0, nnz)
		ref := make(map[[2]int]float64)
		for e := 0; e < nnz; e++ {
			tr := Triplet{Row: rng.Intn(rows), Col: rng.Intn(cols), Value: float64(rng.Intn(5))}
			entries = append(entries, tr)
			if tr.Value != 0 {
				ref[[2]int{tr.Row, tr.Col}] += tr.Value
			}
		}
		m := FromTriplets(rows, cols, entries)
		want := 0
		for key, v := range ref {
			want++
			if got := m.At(key[0], key[1]); got != v {
				t.Fatalf("trial %d: At(%d,%d) = %v, want %v", trial, key[0], key[1], got, v)
			}
		}
		if m.NNZ() != want {
			t.Fatalf("trial %d: NNZ = %d, want %d", trial, m.NNZ(), want)
		}
		// Each must visit rows in order with ascending columns.
		lastRow, lastCol := -1, -1
		m.Each(func(r, c int, v float64) {
			if r < lastRow || (r == lastRow && c <= lastCol) {
				t.Fatalf("trial %d: Each out of order at (%d,%d) after (%d,%d)", trial, r, c, lastRow, lastCol)
			}
			lastRow, lastCol = r, c
		})
	}
}

func TestFromTripletsEmptyAndZeroShapes(t *testing.T) {
	if m := FromTriplets(0, 0, nil); m.NNZ() != 0 {
		t.Fatalf("empty matrix NNZ = %d", m.NNZ())
	}
	m := FromTriplets(4, 3, []Triplet{{Row: 2, Col: 1, Value: 0}})
	if m.NNZ() != 0 {
		t.Fatalf("all-zero entries should drop, NNZ = %d", m.NNZ())
	}
	x := []float64{1, 2, 3}
	dst := make([]float64, 4)
	m.MulVec(x, dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("empty MulVec dst[%d] = %v", i, v)
		}
	}
}
