package vec

import (
	"math"
	"math/rand"
	"testing"

	"tmark/internal/par"
)

// Column c of the dense blocked product must be bitwise equal to MulVec
// on column c alone, serial and parallel.
func TestDenseMulVecBatchMatchesSingleColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(40)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		for _, b := range []int{1, 3, 5} {
			x := make([]float64, cols*b)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			dst := make([]float64, rows*b)
			m.MulVecBatch(x, dst, b)
			check := func(label string, got []float64) {
				t.Helper()
				for c := 0; c < b; c++ {
					xc := make([]float64, cols)
					for j := range xc {
						xc[j] = x[j*b+c]
					}
					want := make([]float64, rows)
					m.MulVec(xc, want)
					for i := range want {
						if got[i*b+c] != want[i] {
							t.Fatalf("trial %d b=%d col %d %s: row %d = %v, want %v",
								trial, b, c, label, i, got[i*b+c], want[i])
						}
					}
				}
			}
			check("serial", dst)
			for _, workers := range []int{2, 4} {
				p := par.New(workers)
				s := NewMulBatchScratch(workers)
				gotP := make([]float64, rows*b)
				m.MulVecBatchParallel(p, s, x, gotP, b)
				check("parallel", gotP)
				p.Close()
			}
		}
	}
}

// Steady-state blocked dense products must not allocate.
func TestDenseMulVecBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	m := NewMatrix(200, 200)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	const b = 4
	x := make([]float64, 200*b)
	dst := make([]float64, 200*b)
	for i := range x {
		x[i] = rng.Float64()
	}
	if allocs := testing.AllocsPerRun(50, func() {
		m.MulVecBatch(x, dst, b)
	}); allocs != 0 {
		t.Errorf("MulVecBatch allocates %v per call, want 0", allocs)
	}
	p := par.New(4)
	defer p.Close()
	s := NewMulBatchScratch(4)
	if allocs := testing.AllocsPerRun(50, func() {
		m.MulVecBatchParallel(p, s, x, dst, b)
	}); allocs != 0 {
		t.Errorf("MulVecBatchParallel allocates %v per call, want 0", allocs)
	}
}

// The blocked column helpers must agree with their single-vector
// counterparts bitwise, and CompactCols must left-pack without clobbering
// surviving columns.
func TestBlockColumnHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const rows, b = 37, 5
	block := make([]float64, rows*b)
	for i := range block {
		block[i] = rng.NormFloat64()
	}
	cols := make([]Vector, b)
	for c := 0; c < b; c++ {
		cols[c] = New(rows)
		GatherCol(block, c, b, cols[c])
		for i := 0; i < rows; i++ {
			if cols[c][i] != block[i*b+c] {
				t.Fatalf("GatherCol col %d row %d mismatch", c, i)
			}
		}
	}

	// Sum / Diff1 / Normalize1 against the flat versions.
	for c := 0; c < b; c++ {
		if got, want := SumCol(block, c, b), Sum(cols[c]); got != want {
			t.Errorf("SumCol(%d) = %v, want %v", c, got, want)
		}
	}
	other := make([]float64, rows*b)
	for i := range other {
		other[i] = rng.NormFloat64()
	}
	for c := 0; c < b; c++ {
		oc := New(rows)
		GatherCol(other, c, b, oc)
		if got, want := Diff1Col(block, other, c, b), Diff1(cols[c], oc); got != want {
			t.Errorf("Diff1Col(%d) = %v, want %v", c, got, want)
		}
	}
	normBlock := append([]float64(nil), block...)
	for c := 0; c < b; c++ {
		ref := Clone(cols[c])
		okRef := Normalize1(ref)
		if ok := Normalize1Col(normBlock, c, b); ok != okRef {
			t.Fatalf("Normalize1Col(%d) ok = %v, want %v", c, ok, okRef)
		}
		for i := 0; i < rows; i++ {
			if normBlock[i*b+c] != ref[i] {
				t.Fatalf("Normalize1Col(%d) row %d = %v, want %v", c, i, normBlock[i*b+c], ref[i])
			}
		}
	}

	// Axpy against the flat version.
	axBlock := append([]float64(nil), block...)
	x := New(rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for c := 0; c < b; c++ {
		ref := Clone(cols[c])
		Axpy(0.37, x, ref)
		AxpyCol(0.37, x, axBlock, c, b)
		for i := 0; i < rows; i++ {
			if axBlock[i*b+c] != ref[i] {
				t.Fatalf("AxpyCol(%d) row %d mismatch", c, i)
			}
		}
	}

	// Compact columns {0, 2, 4} to stride 4 and to stride 3: survivors
	// keep their exact values and the freed lanes read +0.
	keep := []int{0, 2, 4}
	for _, stride := range []int{4, 3} {
		compact := append([]float64(nil), block...)
		CompactCols(compact, rows, b, keep, stride)
		for i := 0; i < rows; i++ {
			for nc := 0; nc < stride; nc++ {
				got, want := compact[i*stride+nc], 0.0
				if nc < len(keep) {
					want = block[i*b+keep[nc]]
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("CompactCols to stride %d: row %d lane %d = %v, want %v", stride, i, nc, got, want)
				}
			}
		}
	}

	// Scatter back and compare round-trip.
	rt := make([]float64, rows*b)
	for c := 0; c < b; c++ {
		ScatterCol(cols[c], rt, c, b)
	}
	for i := range block {
		if rt[i] != block[i] {
			t.Fatalf("Scatter/Gather round trip differs at %d", i)
		}
	}
}

// Stride is the solver's one lane rule: 4 for 1–4 columns, 8 for 5–8,
// the count itself above 8, and VectorStride holds at exactly 4 and 8.
func TestStride(t *testing.T) {
	want := []int{0, 4, 4, 4, 4, 8, 8, 8, 8, 9, 10, 11}
	for b, w := range want {
		if got := Stride(b); got != w {
			t.Errorf("Stride(%d) = %d, want %d", b, got, w)
		}
		if got := VectorStride(b); got != (b == 4 || b == 8) {
			t.Errorf("VectorStride(%d) = %v", b, got)
		}
	}
}
