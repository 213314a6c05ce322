package accel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tmark/internal/par"
	"tmark/internal/sparse"
)

// tinySystem builds a 4-node collapsed operator by hand: columns 0–2
// carry explicit stochastic columns, column 3 is fully dangling.
func tinySystem(t *testing.T, alpha, beta float64) *System {
	t.Helper()
	rows := []int32{1, 2, 0, 2, 0, 1}
	cols := []int32{0, 0, 1, 1, 2, 2}
	vals := []float64{0.5, 0.5, 0.3, 0.7, 0.9, 0.1}
	dangle := []float64{0, 0, 0, 1}
	s, err := NewSystem(4, rows, cols, vals, dangle, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// solve runs serial Jacobi sweeps of one column (b = 1) from the uniform
// start until the L1 step drops below eps or maxSweeps is reached, and
// reports the last sweep, the residual trace and the last residual.
func solve(s *System, l []float64, eps float64, maxSweeps int) (x, trace []float64, rho float64) {
	x = make([]float64, s.n)
	for i := range x {
		x[i] = 1 / float64(s.n)
	}
	xn := make([]float64, s.n)
	rho = math.Inf(1)
	for sweep := 0; sweep < maxSweeps && rho >= eps; sweep++ {
		s.ApplyBatch(nil, nil, x, l, xn, 1)
		rho = 0
		for i := range xn {
			rho += math.Abs(xn[i] - x[i])
		}
		x, xn = xn, x
		trace = append(trace, rho)
	}
	return x, trace, rho
}

// The Jacobi solve must return a distribution that is a fixed point of
// the sweep to within the requested tolerance, with a geometrically
// shrinking residual trace.
func TestSolveReachesFixedPoint(t *testing.T) {
	s := tinySystem(t, 0.2, 0)
	l := []float64{1, 0, 0, 0}
	x, trace, rho := solve(s, l, 1e-12, 500)
	if rho >= 1e-12 {
		t.Fatalf("residual %v did not reach tolerance in %d sweeps", rho, len(trace))
	}
	var mass float64
	for _, v := range x {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		mass += v
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Fatalf("solution mass %v, want 1", mass)
	}
	// Fixed point: one more sweep moves x by at most the tolerance scale.
	dst := make([]float64, 4)
	s.ApplyBatch(nil, nil, x, l, dst, 1)
	for i := range x {
		if math.Abs(dst[i]-x[i]) > 1e-10 {
			t.Fatalf("x[%d] moves by %v under ApplyBatch", i, dst[i]-x[i])
		}
	}
	// The contraction rate is at most 1−α: every residual must shrink at
	// least that fast once the iteration settles.
	for k := 2; k < len(trace); k++ {
		if trace[k] > trace[k-1]*(1-0.2)+1e-15 {
			t.Fatalf("sweep %d residual %v > %v·(1−α)", k, trace[k], trace[k-1])
		}
	}
}

// The documented sweep bound log(ε)/log(1−α) must hold regardless of the
// operator: check it on randomised systems across alpha values.
func TestSolveSweepCountWithinContractionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, alpha := range []float64{0.05, 0.2, 0.8} {
		n := 30
		var rows, cols []int32
		var vals []float64
		dangle := make([]float64, n)
		for j := 0; j < n; j++ {
			if j%5 == 4 {
				dangle[j] = 1 // dangling source
				continue
			}
			// Three random targets with a normalised column.
			var sum float64
			w := make([]float64, 3)
			for q := range w {
				w[q] = rng.Float64() + 0.1
				sum += w[q]
			}
			for q := range w {
				rows = append(rows, int32(rng.Intn(n)))
				cols = append(cols, int32(j))
				vals = append(vals, w[q]/sum)
			}
		}
		s, err := NewSystem(n, rows, cols, vals, dangle, alpha, 0)
		if err != nil {
			t.Fatal(err)
		}
		l := make([]float64, n)
		l[0] = 1
		eps := 1e-10
		_, trace, rho := solve(s, l, eps, 10000)
		if rho >= eps {
			t.Fatalf("alpha=%v: did not converge", alpha)
		}
		bound := int(math.Ceil(math.Log(eps/2)/math.Log(1-alpha))) + 2
		if len(trace) > bound {
			t.Fatalf("alpha=%v: %d sweeps, contraction bound allows %d", alpha, len(trace), bound)
		}
	}
}

// Out-of-range mixture weights and inconsistent slices must be rejected
// at construction, not discovered as NaNs mid-solve.
func TestNewSystemValidation(t *testing.T) {
	dangle := make([]float64, 4)
	if _, err := NewSystem(4, []int32{0}, []int32{0, 1}, []float64{1}, dangle, 0.2, 0); err == nil {
		t.Fatal("mismatched triplet slices accepted")
	}
	if _, err := NewSystem(4, nil, nil, nil, []float64{1}, 0.2, 0); err == nil {
		t.Fatal("short dangle slice accepted")
	}
	for _, bad := range [][2]float64{{0, 0}, {1, 0}, {0.2, -0.1}, {0.5, 0.6}} {
		if _, err := NewSystem(4, nil, nil, nil, dangle, bad[0], bad[1]); err == nil {
			t.Fatalf("alpha=%v beta=%v accepted", bad[0], bad[1])
		}
	}
}

// Column c of a blocked sweep must be bitwise the sweep of column c
// alone, at every width 1–9, serial and on 2 and 3 workers, on the AVX2
// and the scalar CSR bodies: the fast tier's answers must not depend on
// the block a query rides in.
func TestApplyBatchColumnsMatchSingleColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 40
	var rows, cols []int32
	var vals []float64
	dangle := make([]float64, n)
	for j := 0; j < n; j++ {
		if j%7 == 3 {
			dangle[j] = 1
			continue
		}
		for q := 0; q < 4; q++ {
			rows = append(rows, int32(rng.Intn(n)))
			cols = append(cols, int32(j))
			vals = append(vals, 0.25)
		}
	}
	s, err := NewSystem(n, rows, cols, vals, dangle, 0.15, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 9; b++ {
		x, l := make([]float64, n*b), make([]float64, n*b)
		for i := range x {
			x[i], l[i] = rng.Float64(), rng.Float64()
		}
		want := make([][]float64, b)
		for c := range want {
			xc, lc := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				xc[i], lc[i] = x[i*b+c], l[i*b+c]
			}
			want[c] = make([]float64, n)
			s.ApplyBatch(nil, nil, xc, lc, want[c], 1)
		}
		for _, workers := range []int{1, 2, 3} {
			for _, noASM := range []bool{false, true} {
				var pool *par.Pool
				if workers > 1 {
					pool = par.New(workers)
				}
				ms := sparse.NewMulBatchScratch(workers)
				ms.NoASM = noASM
				dst := make([]float64, n*b)
				s.ApplyBatch(pool, ms, x, l, dst, b)
				pool.Close()
				label := fmt.Sprintf("b=%d workers=%d noASM=%v", b, workers, noASM)
				for c := range want {
					for i, v := range want[c] {
						if got := dst[i*b+c]; math.Float64bits(got) != math.Float64bits(v) {
							t.Fatalf("%s: column %d row %d = %v, want %v", label, c, i, got, v)
						}
					}
				}
			}
		}
	}
}
