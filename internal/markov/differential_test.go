package markov

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tmark/internal/dataset"
	"tmark/internal/par"
	"tmark/internal/sparse"
	"tmark/internal/vec"
)

// The differential suite: both production feature channels, at every
// topK and worker count, against the pairwise oracles of oracle_test.go,
// compared bit for bit.

type featureCase struct {
	name     string
	features [][]float64
	topK     int  // an extra topK to check, when positive
	big      bool // a benchmark-sized network: one topK, fewer pools
}

// adversarialFeatures draws an n×d feature matrix mixing nil rows,
// all-zero rows, negative values, exact ties from a small value set, −0,
// and rare huge and tiny magnitudes whose norms and dot products
// overflow or underflow.
func adversarialFeatures(rng *rand.Rand, n, d int) [][]float64 {
	ties := []float64{1, 2, 0.5, -1, 3}
	f := make([][]float64, n)
	for i := range f {
		switch r := rng.Float64(); {
		case r < 0.08:
			continue // nil row
		case r < 0.16:
			f[i] = make([]float64, d) // all-zero row
			continue
		}
		row := make([]float64, d)
		density := rng.Float64()
		for k := range row {
			if rng.Float64() > density {
				continue
			}
			switch r := rng.Float64(); {
			case r < 0.35:
				row[k] = ties[rng.Intn(len(ties))]
			case r < 0.5:
				row[k] = -rng.Float64()
			case r < 0.6:
				row[k] = math.Copysign(0, -1)
			case r < 0.62:
				row[k] = 1e200 * (1 + rng.Float64())
			case r < 0.64:
				row[k] = 1e-160 * rng.Float64()
			default:
				row[k] = rng.Float64()
			}
		}
		f[i] = row
	}
	return f
}

// denseFeatures is the generator of the old parallel-build tests: each
// cell set to a uniform value with probability density, optionally every
// seventh row featureless.
func denseFeatures(rng *rand.Rand, n, d int, density float64, featureless bool) [][]float64 {
	f := make([][]float64, n)
	for i := range f {
		f[i] = make([]float64, d)
		if featureless && i%7 == 0 {
			continue
		}
		for k := range f[i] {
			if density == 1 || rng.Float64() < density {
				f[i][k] = rng.Float64()
			}
		}
	}
	return f
}

func oracleCases(t testing.TB) []featureCase {
	cases := []featureCase{
		{name: "n1d1", features: [][]float64{{2}}},
		{name: "n1zero", features: [][]float64{{0}}},
		{name: "n1nil", features: [][]float64{nil}},
		{name: "d1", features: [][]float64{{1}, {-2}, {0}, {3}, nil, {1}}},
		{name: "allzero", features: [][]float64{{0, 0}, nil, {0, math.Copysign(0, -1)}}},
		{name: "identical", features: [][]float64{{1, 0}, {1, 0}, {0, 1}, {0, 0}}},
		{name: "negative", features: [][]float64{{1, 0}, {-1, 0}}},
		{name: "stochastic", features: [][]float64{{1, 0, 0}, {1, 1, 0}, {0, 0, 1}, {0, 0, 0}}},
		{name: "topk", features: [][]float64{{1, 0, 0}, {0.9, 0.1, 0}, {0.8, 0.2, 0}, {0, 0, 1}, {0, 0.1, 1}}},
		{name: "fallback", features: [][]float64{{1, 0}, {0, 1}, {1, 1}}},
		{name: "overflow", features: [][]float64{{1e200, 1e200}, {1e200, 0}, {1, 1}, {0, 2e200}}},
		{name: "underflow", features: [][]float64{{1e-160, 1e-160}, {1e-160, 0}, {1, 1}, {1e-200, 0}}},
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n, d := 1+rng.Intn(40), 1+rng.Intn(12)
		cases = append(cases, featureCase{
			name: fmt.Sprintf("random%d_%dx%d", trial, n, d), features: adversarialFeatures(rng, n, d),
		})
	}
	// The inputs of the tests of the old builders: the cosine parallel
	// build, the column normalisation, the parallel channel builds and
	// the top-K properties.
	old := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 13, 64} {
		cases = append(cases, featureCase{name: fmt.Sprintf("cosinepar%d", n), features: denseFeatures(old, n, 8, 1, true)})
	}
	old = rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n, d := 1+old.Intn(40), 1+old.Intn(40)
		cases = append(cases, featureCase{name: fmt.Sprintf("normalize%d", trial), features: denseFeatures(old, n, d, 0.6, false)})
	}
	cases = append(cases,
		featureCase{name: "featurepar", features: denseFeatures(rand.New(rand.NewSource(17)), 40, 6, 0.5, false)},
		featureCase{name: "csrpar", features: denseFeatures(rand.New(rand.NewSource(19)), 35, 5, 0.5, false)},
		featureCase{name: "csrdense", features: denseFeatures(rand.New(rand.NewSource(21)), 25, 6, 1, false)},
	)
	old = rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n, d := 2+old.Intn(12), 1+old.Intn(6)
		f := denseFeatures(old, n, d, 0.7, false)
		cases = append(cases, featureCase{name: fmt.Sprintf("property%d", trial), features: f, topK: 1 + old.Intn(n)})
	}
	// The built-in networks, and DBLP at the benchmark's ingest size.
	for _, spec := range []string{"example", "dblp", "movies", "nus", "acm", "ring"} {
		g, err := dataset.LoadSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, featureCase{name: spec, features: g.FeatureMatrix()})
	}
	if !testing.Short() {
		dc := dataset.DefaultDBLPConfig(1)
		dc.AuthorsPerArea = 500
		cases = append(cases, featureCase{name: "dblp500", features: dataset.DBLP(dc).FeatureMatrix(), big: true})
	}
	return cases
}

// topKs lists the topK values the suite checks on the case.
func (c featureCase) topKs() []int {
	n := len(c.features)
	if c.big {
		return []int{16} // the deployed value; keep-all at this n is slow
	}
	var ks []int
	for _, k := range []int{1, 2, 16, n - 1, n, n + 3, c.topK} {
		if k > 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// firstBitDiff returns the first index where the equal-length a and b
// differ in their bits, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func requireSameDense(t *testing.T, what string, got, want *vec.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if i := firstBitDiff(got.Data, want.Data); i >= 0 {
		t.Fatalf("%s: cell (%d,%d) = %v, want %v", what, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
	}
}

func requireSameCSR(t *testing.T, what string, got, want *sparse.Matrix) {
	t.Helper()
	g, w := got.Raw(), want.Raw()
	if g.Rows != w.Rows || g.Cols != w.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, g.Rows, g.Cols, w.Rows, w.Cols)
	}
	if len(g.Values) != len(w.Values) {
		t.Fatalf("%s: %d stored entries, want %d", what, len(g.Values), len(w.Values))
	}
	for r := range w.RowPtr {
		if g.RowPtr[r] != w.RowPtr[r] {
			t.Fatalf("%s: rowPtr[%d] = %d, want %d", what, r, g.RowPtr[r], w.RowPtr[r])
		}
	}
	for p := range w.ColIdx {
		if g.ColIdx[p] != w.ColIdx[p] {
			t.Fatalf("%s: colIdx[%d] = %d, want %d", what, p, g.ColIdx[p], w.ColIdx[p])
		}
	}
	if p := firstBitDiff(g.Values, w.Values); p >= 0 {
		t.Fatalf("%s: values[%d] = %v, want %v", what, p, g.Values[p], w.Values[p])
	}
}

// Both channels, serially and on pools of 2 and 3 workers, are bitwise
// the pairwise oracle on every input.
func TestFeatureTransitionMatchesOracle(t *testing.T) {
	pools := []*par.Pool{nil, par.New(2), par.New(3)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for _, c := range oracleCases(t) {
		ps := pools
		if c.big {
			ps = pools[:2]
		}
		cos := oracleCosineMatrix(c.features)
		want := oracleNormalize(cos, 0)
		for _, p := range ps {
			got := FeatureTransitionPar(c.features, p)
			requireSameDense(t, fmt.Sprintf("%s dense workers=%d", c.name, p.Workers()), got, want)
		}
		for _, k := range c.topKs() {
			want := sparse.FromDense(oracleNormalize(cos, k), 0)
			for _, p := range ps {
				got := SparseFeatureTransitionCSRPar(c.features, k, p)
				requireSameCSR(t, fmt.Sprintf("%s topK=%d workers=%d", c.name, k, p.Workers()), got, want)
			}
		}
	}
}

// The top-K build holds no n×n matrix: a serial build at n = 3000
// allocates less than an eighth of one dense n×n float64 matrix.
func TestSparseFeatureTransitionCSRNoDenseMatrix(t *testing.T) {
	const n, d = 3000, 40
	f := denseFeatures(rand.New(rand.NewSource(29)), n, d, 0.3, false)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := SparseFeatureTransitionCSRPar(f, 16, nil)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*n*8/8); got >= limit {
		t.Fatalf("top-K build allocated %d bytes, want < %d (n²·8/8)", got, limit)
	}
	if w.NNZ() < n*16 {
		t.Fatalf("top-K build kept %d entries, want at least n·K = %d", w.NNZ(), n*16)
	}
}
