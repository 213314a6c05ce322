package tmark

// The dense oracle: explicit n×n×m arrays O and R built straight from
// the graph's adjacency tensor by eqs. (1) and (2). Every (j, k) column
// of O and every (i, j) tube of R is normalised on its own, and an
// all-zero one holds 1/n or 1/m in every cell. It plugs into the
// sequential oracle in place of the sparse kernels, so restart, W, the
// simplex projection and convergence stay the sequential oracle's. It
// shares no normalisation, no dangling closed form, no batching and no
// assembly with production, so it checks what the sequential oracle
// cannot: the sparse transitions and their implicit dangling columns.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tmark/internal/hin"
	"tmark/internal/vec"
)

// denseTransitions holds O and R cell by cell: cell (i, j, k) of either
// sits at (i·n + j)·m + k.
type denseTransitions struct {
	n, m int
	o, r []float64
}

func newDenseTransitions(g *hin.Graph) *denseTransitions {
	n, m := g.N(), g.M()
	cell := func(i, j, k int) int { return (i*n+j)*m + k }
	a := make([]float64, n*n*m)
	g.AdjacencyTensor().Each(func(i, j, k int, v float64) { a[cell(i, j, k)] += v })
	d := &denseTransitions{n: n, m: m, o: make([]float64, len(a)), r: make([]float64, len(a))}
	for j := 0; j < n; j++ {
		for k := 0; k < m; k++ { // eq. (1): column (j, k) of O
			var sum float64
			for i := 0; i < n; i++ {
				sum += a[cell(i, j, k)]
			}
			for i := 0; i < n; i++ {
				if sum == 0 {
					d.o[cell(i, j, k)] = 1 / float64(n)
				} else {
					d.o[cell(i, j, k)] = a[cell(i, j, k)] / sum
				}
			}
		}
		for i := 0; i < n; i++ { // eq. (2): tube (i, j) of R
			var sum float64
			for k := 0; k < m; k++ {
				sum += a[cell(i, j, k)]
			}
			for k := 0; k < m; k++ {
				if sum == 0 {
					d.r[cell(i, j, k)] = 1 / float64(m)
				} else {
					d.r[cell(i, j, k)] = a[cell(i, j, k)] / sum
				}
			}
		}
	}
	return d
}

// applyNode is dst[i] = Σ_j Σ_k o[i,j,k]·x[j]·z[k] over every cell.
func (d *denseTransitions) applyNode(x, z, dst vec.Vector) {
	for i := range dst {
		var s float64
		for j := 0; j < d.n; j++ {
			for k := 0; k < d.m; k++ {
				s += d.o[(i*d.n+j)*d.m+k] * x[j] * z[k]
			}
		}
		dst[i] = s
	}
}

// applyRelation is dst[k] = Σ_i Σ_j r[i,j,k]·x[i]·x[j] over every cell.
func (d *denseTransitions) applyRelation(x, dst vec.Vector) {
	for k := range dst {
		var s float64
		for i := 0; i < d.n; i++ {
			for j := 0; j < d.n; j++ {
				s += d.r[(i*d.n+j)*d.m+k] * x[i] * x[j]
			}
		}
		dst[k] = s
	}
}

// newDenseOracle is the sequential oracle at the model's worker count
// with O and R taken from the dense arrays.
func newDenseOracle(t testing.TB, m *Model) *oracle {
	o := newOracle(m)
	o.dense = newDenseTransitions(m.graph)
	return o
}

// denseTol bounds the L1 distance between a solve and the dense oracle's
// per class or query: the two differ only by summation order.
const denseTol = 1e-9

// TestDenseOracleRandomHINs: on every random network shape with the ICA
// update off, Run and exact-tier SolveColumns at widths 1, 3 and 8 land
// within denseTol of the dense oracle in the same number of iterations,
// with the same predictions, at 1 and 2 workers.
func TestDenseOracleRandomHINs(t *testing.T) {
	ctx := context.Background()
	for si, shape := range hinShapes {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(t *testing.T) {
				g := randomHIN(rand.New(rand.NewSource(int64(100+si))), shape)
				cfg := DefaultConfig()
				cfg.Gamma = shape.gamma
				cfg.FeatureTopK = shape.topK
				cfg.Epsilon = 1e-12
				cfg.MaxIterations = 150
				cfg.Workers = workers
				cfg.ICAUpdate = false
				m := mustModel(t, g, cfg)
				o := newDenseOracle(t, m)

				got, want := m.RunContext(ctx), o.run(nil)
				for c := range want.Classes {
					cg, cw := &got.Classes[c], &want.Classes[c]
					assertNearDense(t, fmt.Sprintf("Run class %d", c), cg.X, cg.Z, cg.Iterations, cw.X, cw.Z, cw.Iterations)
				}
				assertSamePredictions(t, "Run", got, want)

				queries := denseQueries(g, 8)
				refs := make([]ColumnResult, len(queries))
				for i, q := range queries {
					refs[i] = o.solveColumn(t, q)
				}
				for _, w := range []int{1, 3, 8} {
					out, err := m.SolveColumns(ctx, queries[:w])
					if err != nil {
						t.Fatalf("SolveColumns width %d: %v", w, err)
					}
					for i := range out {
						col, ref := &out[i], &refs[i]
						label := fmt.Sprintf("width %d column %d", w, i)
						assertNearDense(t, label, col.X, col.Z, col.Iterations, ref.X, ref.Z, ref.Iterations)
						if top, ok := clearTop(ref.X); ok && vec.Argmax(col.X) != top {
							t.Errorf("%s: top node %d, dense oracle %d", label, vec.Argmax(col.X), top)
						}
					}
				}
			})
		}
	}
}

// denseQueries returns count exact-tier queries without ICA: one per
// class (its labelled nodes, or node c for a class with none), then
// single-node seeds spread over the network.
func denseQueries(g *hin.Graph, count int) []ColumnQuery {
	queries := make([]ColumnQuery, 0, count)
	for c := 0; c < g.Q() && len(queries) < count; c++ {
		seeds := classSeeds(g, c)
		if len(seeds) == 0 {
			seeds = []int{c}
		}
		queries = append(queries, ColumnQuery{Seeds: seeds, Quality: QualityExact})
	}
	for i := 0; len(queries) < count; i++ {
		queries = append(queries, ColumnQuery{Seeds: []int{(7 + 13*i) % g.N()}, Quality: QualityExact})
	}
	return queries
}

// assertNearDense fails unless a solve took the dense oracle's iteration
// count and lies within denseTol of its x and z in L1.
func assertNearDense(t *testing.T, label string, x, z vec.Vector, iters int, wantX, wantZ vec.Vector, wantIters int) {
	t.Helper()
	if iters != wantIters {
		t.Errorf("%s: %d iterations, dense oracle %d", label, iters, wantIters)
	}
	if d := vec.Diff1(x, wantX); !(d <= denseTol) {
		t.Errorf("%s: x is %v from the dense oracle in L1", label, d)
	}
	if d := vec.Diff1(z, wantZ); !(d <= denseTol) {
		t.Errorf("%s: z is %v from the dense oracle in L1", label, d)
	}
}

// clearTop returns the top-scored node of x and whether it leads the
// runner-up by more than 1e-7, so rounding cannot decide it.
func clearTop(x vec.Vector) (int, bool) {
	top := vec.Argmax(x)
	second := math.Inf(-1)
	for i, v := range x {
		if i != top && v > second {
			second = v
		}
	}
	return top, x[top]-second > 1e-7
}
