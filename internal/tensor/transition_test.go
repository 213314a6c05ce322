package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tmark/internal/par"
	"tmark/internal/vec"
)

const tol = 1e-9

func TestNodeTransitionNormalisesColumns(t *testing.T) {
	a := paperExample()
	o := NewNodeTransition(a)
	if !o.ColumnsStochastic(tol) {
		t.Fatalf("stored O columns must sum to one")
	}
	// Citation column j=2 (p3) has two out-citations, so each gets 0.5.
	if got := o.At(1, 2, 1); math.Abs(got-0.5) > tol {
		t.Errorf("o[1,2,1] = %v, want 0.5", got)
	}
	if got := o.At(3, 2, 1); math.Abs(got-0.5) > tol {
		t.Errorf("o[3,2,1] = %v, want 0.5", got)
	}
	// Co-author column j=0 has a single entry, probability 1.
	if got := o.At(1, 0, 0); math.Abs(got-1) > tol {
		t.Errorf("o[1,0,0] = %v, want 1", got)
	}
}

func TestNodeTransitionDanglingColumnUniform(t *testing.T) {
	a := paperExample()
	o := NewNodeTransition(a)
	// Column (j=0, k=1): p1 cites nobody, dangling → 1/n = 0.25 everywhere.
	for i := 0; i < 4; i++ {
		if got := o.At(i, 0, 1); math.Abs(got-0.25) > tol {
			t.Errorf("dangling o[%d,0,1] = %v, want 0.25", i, got)
		}
	}
	wantDangling := 4*3 - 6 // 12 columns, 6 with links
	if got := o.DanglingColumns(); got != wantDangling {
		t.Errorf("DanglingColumns = %d, want %d", got, wantDangling)
	}
}

func TestRelationTransitionNormalisesTubes(t *testing.T) {
	a := paperExample()
	r := NewRelationTransition(a)
	if !r.TubesStochastic(tol) {
		t.Fatalf("stored R tubes must sum to one")
	}
	// Tube (i=1, j=2): p3→p2 exists as citation AND same-conference, so
	// each relation gets probability 0.5.
	if got := r.At(1, 2, 1); math.Abs(got-0.5) > tol {
		t.Errorf("r[1,2,1] = %v, want 0.5", got)
	}
	if got := r.At(1, 2, 2); math.Abs(got-0.5) > tol {
		t.Errorf("r[1,2,2] = %v, want 0.5", got)
	}
	// Tube (i=0, j=1): only co-author.
	if got := r.At(0, 1, 0); math.Abs(got-1) > tol {
		t.Errorf("r[0,1,0] = %v, want 1", got)
	}
}

func TestRelationTransitionDanglingTubeUniform(t *testing.T) {
	a := paperExample()
	r := NewRelationTransition(a)
	// Tube (i=0, j=2): p3 never links to p1 → uniform 1/3.
	for k := 0; k < 3; k++ {
		if got := r.At(0, 2, k); math.Abs(got-1.0/3) > tol {
			t.Errorf("dangling r[0,2,%d] = %v, want 1/3", k, got)
		}
	}
	if got := r.DanglingTubes(); got != 16-6 {
		t.Errorf("DanglingTubes = %d, want 10", got)
	}
}

// Theorem 1: the contractions map the probability simplex into itself.
func TestApplyPreservesSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n, m := 2+rng.Intn(12), 1+rng.Intn(5)
		nnz := rng.Intn(3 * n * m)
		a := randomTensor(rng, n, m, nnz)
		o := NewNodeTransition(a)
		r := NewRelationTransition(a)
		x := randomStochastic(rng, n)
		z := randomStochastic(rng, m)
		dx := make([]float64, n)
		o.Apply(x, z, dx)
		if !vec.IsStochastic(dx, 1e-8) {
			t.Fatalf("trial %d: O-apply left simplex, sum=%v", trial, vec.Sum(dx))
		}
		dz := make([]float64, m)
		r.Apply(x, dz)
		if !vec.IsStochastic(dz, 1e-8) {
			t.Fatalf("trial %d: R-apply left simplex, sum=%v", trial, vec.Sum(dz))
		}
	}
}

// The sparse contractions must agree with the quadratic dense reference,
// including the implicit dangling mass: the single-vector Apply, and
// every column of the blocked ApplyBatch and ApplyBatchParallel at
// widths around the vector bodies' and on 1–3 workers. Each blocked
// column also keeps the mass of its inputs, Σ dst = Σx·Σz (or (Σx)² for
// R), to within rounding.
func TestApplyMatchesDenseReference(t *testing.T) {
	runBothKernelPaths(t, testApplyMatchesDenseReference)
}

func testApplyMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pools := []*par.Pool{par.New(1), par.New(2), par.New(3)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	near := func(label string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("%s: sparse %v vs dense %v at %d", label, got[i], want[i], i)
			}
		}
	}
	keepsMass := func(label string, got []float64, mass float64) {
		t.Helper()
		if d := math.Abs(vec.Sum(got) - mass); d > 1e-12 {
			t.Fatalf("%s: output sums to %v, inputs carry %v", label, vec.Sum(got), mass)
		}
	}
	for trial := 0; trial < 25; trial++ {
		n, m := 2+rng.Intn(7), 1+rng.Intn(4)
		a := randomTensor(rng, n, m, rng.Intn(2*n*m))
		o := NewNodeTransition(a)
		r := NewRelationTransition(a)
		x := randomStochastic(rng, n)
		z := randomStochastic(rng, m)

		sparse := make([]float64, n)
		o.Apply(x, z, sparse)
		near(fmt.Sprintf("trial %d: O", trial), sparse, DenseApplyO(o, x, z))
		sparseZ := make([]float64, m)
		r.Apply(x, sparseZ)
		near(fmt.Sprintf("trial %d: R", trial), sparseZ, DenseApplyR(r, x))

		for workers, p := range pools {
			so := NewNodeBatchScratch(o, workers+1, maxWidth)
			sr := NewRelationBatchScratch(r, workers+1, maxWidth)
			for _, b := range []int{1, 3, 4, 8, 9} {
				xb, zb := randomBlock(rng, n, b), randomBlock(rng, m, b)
				dst, dstP := make([]float64, n*b), make([]float64, n*b)
				dstZ, dstZP := make([]float64, m*b), make([]float64, m*b)
				o.ApplyBatch(so, xb, zb, dst, b)
				o.ApplyBatchParallel(p, so, xb, zb, dstP, b)
				r.ApplyBatch(sr, xb, dstZ, b)
				r.ApplyBatchParallel(p, sr, xb, dstZP, b)
				for c := 0; c < b; c++ {
					label := fmt.Sprintf("trial %d workers %d b=%d col %d", trial, workers+1, b, c)
					xc, zc := column(xb, n, b, c), column(zb, m, b, c)
					wantO, wantR := DenseApplyO(o, xc, zc), DenseApplyR(r, xc)
					massO, massR := vec.Sum(xc)*vec.Sum(zc), vec.Sum(xc)*vec.Sum(xc)
					for _, got := range [][]float64{column(dst, n, b, c), column(dstP, n, b, c)} {
						near(label+" O", got, wantO)
						keepsMass(label+" O", got, massO)
					}
					for _, got := range [][]float64{column(dstZ, m, b, c), column(dstZP, m, b, c)} {
						near(label+" R", got, wantR)
						keepsMass(label+" R", got, massR)
					}
				}
			}
		}
	}
}

func TestApplyAllDanglingIsUniform(t *testing.T) {
	a := New(3, 2)
	a.Finalize() // completely empty: every column/tube dangles
	o := NewNodeTransition(a)
	r := NewRelationTransition(a)
	x := []float64{0.2, 0.3, 0.5}
	z := []float64{0.4, 0.6}
	dx := make([]float64, 3)
	o.Apply(x, z, dx)
	for i, v := range dx {
		if math.Abs(v-1.0/3) > tol {
			t.Errorf("empty-tensor O apply [%d] = %v, want 1/3", i, v)
		}
	}
	dz := make([]float64, 2)
	r.Apply(x, dz)
	for k, v := range dz {
		if math.Abs(v-0.5) > tol {
			t.Errorf("empty-tensor R apply [%d] = %v, want 0.5", k, v)
		}
	}
}

func TestTransitionAtOutOfRangePanics(t *testing.T) {
	a := paperExample()
	o := NewNodeTransition(a)
	r := NewRelationTransition(a)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("O.At", func() { o.At(4, 0, 0) })
	mustPanic("R.At", func() { r.At(0, 0, 3) })
	mustPanic("O.Apply bad z", func() { o.Apply(make([]float64, 4), make([]float64, 2), make([]float64, 4)) })
	mustPanic("R.Apply bad dst", func() { r.Apply(make([]float64, 4), make([]float64, 2)) })
}

func TestNNZAndDims(t *testing.T) {
	a := paperExample()
	o := NewNodeTransition(a)
	r := NewRelationTransition(a)
	if o.N() != 4 || o.M() != 3 || r.N() != 4 || r.M() != 3 {
		t.Errorf("transition dims wrong: O %dx%d R %dx%d", o.N(), o.M(), r.N(), r.M())
	}
	if o.NNZ() != a.NNZ() || r.NNZ() != a.NNZ() {
		t.Errorf("transitions must keep the sparsity of A: %d/%d vs %d", o.NNZ(), r.NNZ(), a.NNZ())
	}
}

// Paper Fig. 3 spot checks: the O tensor of the worked example.
func TestPaperFigure3Values(t *testing.T) {
	o := NewNodeTransition(paperExample())
	cases := []struct {
		i, j, k int
		want    float64
	}{
		{1, 0, 0, 1},       // co-author p1→p2 column
		{0, 1, 0, 1},       // co-author p2→p1 column
		{1, 2, 1, 0.5},     // p3's citations split
		{3, 2, 1, 0.5},     //
		{0, 3, 1, 1},       // p4 cites p1 only
		{2, 1, 2, 1},       // same conference p2→p3
		{0, 2, 0, 1.0 / 4}, // dangling co-author column of p3
	}
	for _, c := range cases {
		if got := o.At(c.i, c.j, c.k); math.Abs(got-c.want) > tol {
			t.Errorf("o[%d,%d,%d] = %v, want %v", c.i, c.j, c.k, got, c.want)
		}
	}
}
