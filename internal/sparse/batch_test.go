package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tmark/internal/par"
)

// skewedMatrix builds a CSR matrix with empty rows and one heavy row, the
// shapes that stress the nnz-balanced shard split.
func skewedMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	var entries []Triplet
	for r := 0; r < rows; r++ {
		if r%5 == 0 {
			continue
		}
		k := rng.Intn(8)
		if r == rows/2 {
			k = cols
		}
		for e := 0; e < k; e++ {
			entries = append(entries, Triplet{Row: r, Col: rng.Intn(cols), Value: rng.NormFloat64()})
		}
	}
	return FromTriplets(rows, cols, entries)
}

// runBothKernelPaths runs f once with the default body selection (the
// AVX2 body, on hosts that support it) and once with the scalar body
// forced, so both stay covered on every machine.
func runBothKernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("default", f)
	old := useBatchASM
	useBatchASM = false
	defer func() { useBatchASM = old }()
	t.Run("scalar", f)
}

// Column c of the blocked product must be bitwise equal to MulVec on
// column c alone — signed zeros included — serial and parallel, for
// every worker count and every width from 1 to 9: the vector body's one-
// and two-register strides (4, 8) and the scalar widths around them.
// The matrices have empty rows and one heavy row, and one more trial
// has no entries at all.
func TestMulVecBatchMatchesSingleColumns(t *testing.T) {
	runBothKernelPaths(t, testMulVecBatchMatchesSingleColumns)
}

func testMulVecBatchMatchesSingleColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial <= 20; trial++ {
		rows, cols := 1+rng.Intn(200), 1+rng.Intn(50)
		m := skewedMatrix(rng, rows, cols)
		if trial == 20 {
			m = FromTriplets(rows, cols, nil)
		}
		for b := 1; b <= 9; b++ {
			x := make([]float64, cols*b)
			for i := range x {
				switch i % 9 {
				case 4:
					x[i] = math.Copysign(0, -1)
				case 7:
					x[i] = 0
				default:
					x[i] = rng.NormFloat64()
				}
			}
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
						if math.Float64bits(got[i*b+c]) != math.Float64bits(want[i]) {
							t.Fatalf("trial %d b=%d col %d %s: row %d = %v, want %v",
								trial, b, c, label, i, got[i*b+c], want[i])
						}
					}
				}
			}
			dst := make([]float64, rows*b)
			m.MulVecBatch(x, dst, b)
			check("serial", dst)
			for _, workers := range []int{1, 2, 3, 8} {
				p := par.New(workers)
				s := NewMulBatchScratch(workers)
				gotP := make([]float64, rows*b)
				m.MulVecBatchParallel(p, s, x, gotP, b)
				check(fmt.Sprintf("%d workers", workers), gotP)
				p.Close()
			}
		}
	}
}

// The vector body must write exactly the b lanes of each row: a dst
// with a guard cell past the last row and foreign values between calls
// keeps every cell outside the product untouched.
func TestMulVecBatchWritesOnlyItsBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := skewedMatrix(rng, 37, 23)
	const guard = 12345.5
	for b := 1; b <= 9; b++ {
		x := make([]float64, 23*b)
		for i := range x {
			x[i] = rng.Float64()
		}
		dst := make([]float64, 37*b+4)
		for i := range dst {
			dst[i] = guard
		}
		m.MulVecBatch(x, dst[:37*b], b)
		for i := 37 * b; i < len(dst); i++ {
			if dst[i] != guard {
				t.Fatalf("b=%d: cell %d past the block = %v, want untouched", b, i, dst[i])
			}
		}
	}
}

// Steady-state blocked products must not allocate, at a vector stride
// and a scalar one.
func TestMulVecBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var entries []Triplet
	for e := 0; e < 5000; e++ {
		entries = append(entries, Triplet{Row: rng.Intn(500), Col: rng.Intn(500), Value: rng.Float64()})
	}
	m := FromTriplets(500, 500, entries)
	x := make([]float64, 500*4)
	dst := make([]float64, 500*4)
	for i := range x {
		x[i] = rng.Float64()
	}
	p := par.New(4)
	defer p.Close()
	s := NewMulBatchScratch(4)
	for _, b := range []int{4, 3} {
		if allocs := testing.AllocsPerRun(50, func() {
			m.MulVecBatch(x, dst, b)
		}); allocs != 0 {
			t.Errorf("b=%d: MulVecBatch allocates %v per call, want 0", b, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			m.MulVecBatchParallel(p, s, x, dst, b)
		}); allocs != 0 {
			t.Errorf("b=%d: MulVecBatchParallel allocates %v per call, want 0", b, allocs)
		}
	}
}

// BenchmarkMulVecBatchWidths times one serial blocked product per width
// b = 1…8 on a 4000×4000 matrix with 16 entries per row (the top-16
// feature channel of the served DBLP network).
func BenchmarkMulVecBatchWidths(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const n, perRow = 4000, 16
	entries := make([]Triplet, 0, n*perRow)
	for r := 0; r < n; r++ {
		for e := 0; e < perRow; e++ {
			entries = append(entries, Triplet{Row: r, Col: rng.Intn(n), Value: rng.Float64()})
		}
	}
	m := FromTriplets(n, n, entries)
	for w := 1; w <= 8; w++ {
		x := make([]float64, n*w)
		for i := range x {
			x[i] = rng.Float64()
		}
		dst := make([]float64, n*w)
		b.Run(fmt.Sprintf("W/b=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulVecBatch(x, dst, w)
			}
		})
	}
}
