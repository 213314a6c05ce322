package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tmark/internal/par"
)

// randomVec returns a random distribution (uses the shared
// randomStochastic helper, tolerating n == 0).
func randomVec(rng *rand.Rand, n int) []float64 {
	if n == 0 {
		return nil
	}
	return randomStochastic(rng, n)
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// randomBlock returns a rows×b block whose columns are independent random
// distributions.
func randomBlock(rng *rand.Rand, rows, b int) []float64 {
	block := make([]float64, rows*b)
	for c := 0; c < b; c++ {
		col := randomVec(rng, rows)
		for i, v := range col {
			block[i*b+c] = v
		}
	}
	return block
}

// column extracts column c of a blocked vector.
func column(block []float64, rows, b, c int) []float64 {
	out := make([]float64, rows)
	for i := range out {
		out[i] = block[i*b+c]
	}
	return out
}

// negZeros overwrites every seventh cell of block with −0 and every
// eleventh with +0, so the kernels see signed zeros in every lane.
func negZeros(block []float64) []float64 {
	for q := 0; q < len(block); q += 7 {
		block[q] = math.Copysign(0, -1)
	}
	for q := 3; q < len(block); q += 11 {
		block[q] = 0
	}
	return block
}

// sameBits fails unless got and want carry identical bits: signed zeros
// included, which != would let through.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// maxWidth is the widest block the width sweeps run: the vector
// strides 4 and 8, the scalar widths between them, and the first width
// past the vector bodies.
const maxWidth = 9

// runBothKernelPaths runs f once with the default kernel selection (the
// AVX2 bodies, on hosts that support them) and once with the scalar
// body forced, so both implementations stay covered on every machine.
func runBothKernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("default", f)
	old := useBatchASM
	useBatchASM = false
	defer func() { useBatchASM = old }()
	t.Run("scalar", f)
}

// batchCases are the tensors every width sweep runs: two random ones,
// one whose every column and tube is dangling, and an empty one.
func batchCases(rng *rand.Rand) []*Tensor {
	return []*Tensor{
		randomTensor(rng, 60, 4, 700),
		randomTensor(rng, 17, 1, 90),
		func() *Tensor { a := New(12, 3); a.Finalize(); return a }(), // all dangling
		func() *Tensor { a := New(0, 0); a.Finalize(); return a }(),  // empty
	}
}

// fullTensor returns an n×n×m tensor with every (j, k) column and every
// (i, j) tube stored, so neither transition has a dangling column or
// tube.
func fullTensor(rng *rand.Rand, n, m int) *Tensor {
	a := New(n, m)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a.Add(i, j, rng.Intn(m), 1+rng.Float64())
		}
		for k := 0; k < m; k++ {
			a.Add(rng.Intn(n), j, k, 1+rng.Float64())
		}
	}
	a.Finalize()
	return a
}

// scatterO is O ×̄₁ x ×̄₃ z with no dangling term: the stored entries
// scattered in entry order, as Apply scatters them.
func scatterO(o *NodeTransition, x, z []float64) []float64 {
	dst := make([]float64, o.n)
	for q, pi := range o.i {
		w := o.p[q] * x[o.j[q]] * z[o.k[q]]
		dst[pi] += w
	}
	return dst
}

// scatterR is R ×̄₁ xi ×̄₂ xj with no dangling term: each run of
// relationChunk entries scattered in entry order into a partial of its
// own, and the partials added up in chunk order.
func scatterR(r *RelationTransition, xi, xj []float64) []float64 {
	dst, part := make([]float64, r.m), make([]float64, r.m)
	for lo := 0; lo < len(r.p); lo += relationChunk {
		clear(part)
		for q := lo; q < min(lo+relationChunk, len(r.p)); q++ {
			part[r.k[q]] += r.p[q] * xi[r.i[q]] * xj[r.j[q]]
		}
		for k, v := range part {
			dst[k] += v
		}
	}
	return dst
}

// fullN is the size of the full tensor of the width sweeps: large enough
// that Σx·Σz minus the stored mass exceeds 1e-15 by rounding alone in
// some of the sweep's columns, so a uniform add of that residue shows,
// that O spans several row blocks, the last one partial, and that R's
// ≈40k entries span three chunks.
const fullN = 200

// Column c of the blocked node contraction must be bitwise equal to the
// single-vector Apply run on column c alone — the whole point of the
// batched solver is that batching changes layout, never arithmetic —
// at every width, on a vector stride or not, with signed zeros in the
// input.
func TestNodeApplyBatchMatchesSingleColumns(t *testing.T) {
	runBothKernelPaths(t, testNodeApplyBatchMatchesSingleColumns)
}

func testNodeApplyBatchMatchesSingleColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for ci, a := range batchCases(rng) {
		o := NewNodeTransition(a)
		for b := 1; b <= maxWidth; b++ {
			x := negZeros(randomBlock(rng, o.N(), b))
			z := negZeros(randomBlock(rng, o.M(), b))
			s := NewNodeBatchScratch(o, 1, b)
			dst := make([]float64, o.N()*b)
			o.ApplyBatch(s, x, z, dst, b)
			for c := 0; c < b; c++ {
				want := make([]float64, o.N())
				o.Apply(column(x, o.N(), b, c), column(z, o.M(), b, c), want)
				sameBits(t, fmt.Sprintf("case %d b=%d col %d", ci, b, c), column(dst, o.N(), b, c), want)
			}
		}
	}

	// With every column stored there is no dangling mass, so Apply and
	// ApplyBatch return exactly the entry-order scatter: no uniform add
	// of rounding residue.
	o := NewNodeTransition(fullTensor(rng, fullN, 4))
	if o.DanglingColumns() != 0 {
		t.Fatalf("full tensor has %d dangling columns", o.DanglingColumns())
	}
	for b := 1; b <= maxWidth; b++ {
		x := randomBlock(rng, o.N(), b)
		z := randomBlock(rng, o.M(), b)
		dst := make([]float64, o.N()*b)
		o.ApplyBatch(NewNodeBatchScratch(o, 1, b), x, z, dst, b)
		for c := 0; c < b; c++ {
			label := fmt.Sprintf("full b=%d col %d", b, c)
			xc, zc := column(x, o.N(), b, c), column(z, o.M(), b, c)
			want := scatterO(o, xc, zc)
			got := make([]float64, o.N())
			o.Apply(xc, zc, got)
			sameBits(t, label+" Apply", got, want)
			sameBits(t, label+" ApplyBatch", column(dst, o.N(), b, c), want)
		}
	}
}

// Same per-column bitwise contract for the relation contraction.
func TestRelationApplyBatchMatchesSingleColumns(t *testing.T) {
	runBothKernelPaths(t, testRelationApplyBatchMatchesSingleColumns)
}

func testRelationApplyBatchMatchesSingleColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	cases := append([]*Tensor{randomTensor(rng, 50, 5, 600)}, batchCases(rng)...)
	for ci, a := range cases {
		r := NewRelationTransition(a)
		for b := 1; b <= maxWidth; b++ {
			x := negZeros(randomBlock(rng, r.N(), b))
			s := NewRelationBatchScratch(r, 1, b)
			dst := make([]float64, r.M()*b)
			r.ApplyBatch(s, x, dst, b)
			for c := 0; c < b; c++ {
				want := make([]float64, r.M())
				r.Apply(column(x, r.N(), b, c), want)
				sameBits(t, fmt.Sprintf("case %d b=%d col %d", ci, b, c), column(dst, r.M(), b, c), want)
			}
		}
	}

	// With every tube stored, Apply and ApplyBatch return exactly the
	// chunk-folded entry-order scatter, and so does ApplyPair on two
	// distinct vectors.
	r := NewRelationTransition(fullTensor(rng, fullN, 4))
	if r.DanglingTubes() != 0 {
		t.Fatalf("full tensor has %d dangling tubes", r.DanglingTubes())
	}
	if r.chunks() < 3 {
		t.Fatalf("full tensor's R spans %d chunks, want at least 3", r.chunks())
	}
	for b := 1; b <= maxWidth; b++ {
		x := randomBlock(rng, r.N(), b)
		dst := make([]float64, r.M()*b)
		r.ApplyBatch(NewRelationBatchScratch(r, 1, b), x, dst, b)
		for c := 0; c < b; c++ {
			label := fmt.Sprintf("full b=%d col %d", b, c)
			xc := column(x, r.N(), b, c)
			want := scatterR(r, xc, xc)
			got := make([]float64, r.M())
			r.Apply(xc, got)
			sameBits(t, label+" Apply", got, want)
			sameBits(t, label+" ApplyBatch", column(dst, r.M(), b, c), want)
			xj := randomVec(rng, r.N())
			r.ApplyPair(xc, xj, got)
			sameBits(t, label+" ApplyPair", got, scatterR(r, xc, xj))
		}
	}
}

// Every column of the pooled contractions must be bitwise the
// single-vector Apply at 1, 2, 3 and 8 workers: the worker count moves
// which worker runs a row block or chunk, never the order of a float
// operation. One scratch sized for the widest block serves every width,
// so b also shrinks below the scratch's capacity (retired classes) and
// the body changes from call to call. The cases span one and
// several row blocks, one and three R chunks, an all-dangling and an
// empty tensor.
func TestApplyBatchParallelMatchesSingleColumns(t *testing.T) {
	runBothKernelPaths(t, testApplyBatchParallelMatchesSingleColumns)
}

func testApplyBatchParallelMatchesSingleColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	cases := append([]*Tensor{randomTensor(rng, 80, 5, 1200), fullTensor(rng, fullN, 4)}, batchCases(rng)...)
	for ci, a := range cases {
		o := NewNodeTransition(a)
		r := NewRelationTransition(a)
		for _, workers := range []int{1, 2, 3, 8} {
			p := par.New(workers)
			so := NewNodeBatchScratch(o, workers, maxWidth)
			sr := NewRelationBatchScratch(r, workers, maxWidth)
			for _, b := range []int{maxWidth, 8, 1, 5, 2, 7, 4, 3, 6} {
				x := negZeros(randomBlock(rng, o.N(), b))
				z := negZeros(randomBlock(rng, o.M(), b))
				dst := make([]float64, o.N()*b)
				dstZ := make([]float64, r.M()*b)
				o.ApplyBatchParallel(p, so, x, z, dst, b)
				r.ApplyBatchParallel(p, sr, x, dstZ, b)
				for c := 0; c < b; c++ {
					label := fmt.Sprintf("case %d workers %d b=%d col %d", ci, workers, b, c)
					xc, zc := column(x, o.N(), b, c), column(z, o.M(), b, c)
					want := make([]float64, o.N())
					o.Apply(xc, zc, want)
					sameBits(t, label+" node", column(dst, o.N(), b, c), want)
					wantZ := make([]float64, r.M())
					r.Apply(xc, wantZ)
					sameBits(t, label+" relation", column(dstZ, r.M(), b, c), wantZ)
				}
			}
			p.Close()
		}
	}
}

// Steady-state batched contractions must not allocate, serial or pooled:
// R's chunk partials, the column sums and the dispatch task all live in
// the reusable scratch. The full tensor's R spans three chunks and its O four row
// blocks, so the pooled calls dispatch.
func TestApplyBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	a := fullTensor(rng, fullN, 4)
	o := NewNodeTransition(a)
	r := NewRelationTransition(a)
	const maxCols = 4
	x := randomBlock(rng, o.N(), maxCols)
	z := randomBlock(rng, o.M(), maxCols)
	dst := make([]float64, o.N()*maxCols)
	dstZ := make([]float64, r.M()*maxCols)
	p := par.New(4)
	defer p.Close()
	for _, b := range []int{maxCols, 3} { // a vector stride, then a scalar one
		so1 := NewNodeBatchScratch(o, 1, maxCols)
		sr1 := NewRelationBatchScratch(r, 1, maxCols)
		if allocs := testing.AllocsPerRun(50, func() {
			o.ApplyBatch(so1, x, z, dst, b)
		}); allocs != 0 {
			t.Errorf("b=%d: ApplyBatch allocates %v per call, want 0", b, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			r.ApplyBatch(sr1, x, dstZ, b)
		}); allocs != 0 {
			t.Errorf("b=%d: relation ApplyBatch allocates %v per call, want 0", b, allocs)
		}
		so := NewNodeBatchScratch(o, 4, maxCols)
		sr := NewRelationBatchScratch(r, 4, maxCols)
		if allocs := testing.AllocsPerRun(50, func() {
			o.ApplyBatchParallel(p, so, x, z, dst, b)
		}); allocs != 0 {
			t.Errorf("b=%d: ApplyBatchParallel allocates %v per call, want 0", b, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			r.ApplyBatchParallel(p, sr, x, dstZ, b)
		}); allocs != 0 {
			t.Errorf("b=%d: relation ApplyBatchParallel allocates %v per call, want 0", b, allocs)
		}
	}
}
