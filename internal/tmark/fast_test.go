package tmark

// Tests of the linearized fast tier: every fast answer equals the
// sequential oracle's single-vector sweeps bitwise, whatever the block,
// the worker count or the kernel bodies; a column cancelled before the
// block keeps its start state; every answer stays inside the a-priori
// bound documented on accel.System; and a fast run's stats cover its
// kernels.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tmark/internal/hin"
	"tmark/internal/obs"
	"tmark/internal/sparse"
	"tmark/internal/vec"
)

// fastQueries builds nine queries on g: one per class (seeded by its
// labels, or one node for an empty class), then random seed sets and one
// explicit restart vector. Query 2 runs exact and query 5 accelerated;
// the rest run fast, so every batch from width 3 mixes the tiers.
func fastQueries(rng *rand.Rand, g *hin.Graph) []ColumnQuery {
	n := g.N()
	queries := make([]ColumnQuery, 9)
	for k := range queries {
		var seeds []int
		switch {
		case k < g.Q():
			seeds = classSeeds(g, k)
			if len(seeds) == 0 {
				seeds = []int{k}
			}
		default:
			for s := 0; s < 1+rng.Intn(4); s++ {
				seeds = append(seeds, rng.Intn(n))
			}
		}
		queries[k] = ColumnQuery{Seeds: seeds, ICA: k%2 == 0, Quality: QualityFast}
	}
	restart := vec.New(n)
	for i := range restart {
		restart[i] = float64(i%4) * rng.Float64()
	}
	queries[7] = ColumnQuery{Restart: restart, Quality: QualityFast}
	queries[2].Quality = QualityExact
	queries[5].Quality = QualityAccelerated
	return queries
}

// Every fast answer — the fast columns of SolveColumns at widths 1–9
// mixed with exact and accelerated columns, and every class of
// Run(WithApproximate) — must equal the oracle's single-vector sweeps
// bitwise in X, Z, trace, iterations and the convergence flag, on every
// random network shape (dense, top-K and no W), at 1, 2 and 3 workers,
// on the AVX2 and on the scalar kernel bodies. The two configurations
// make columns converge at different sweeps (and so retire mid-block),
// and make some reach MaxIterations.
func TestFastTierMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for si, shape := range hinShapes {
		g := randomHIN(rand.New(rand.NewSource(int64(100+si))), shape)
		for ci, tune := range []struct {
			alpha, eps float64
			maxIter    int
		}{{0.2, 1e-12, 200}, {0.5, 1e-6, 12}} {
			cfg := DefaultConfig()
			cfg.Alpha = tune.alpha
			cfg.Gamma = shape.gamma
			cfg.FeatureTopK = shape.topK
			cfg.Epsilon = tune.eps
			cfg.MaxIterations = tune.maxIter
			cfg.Workers = 1
			m := mustModel(t, g, cfg)
			o := newOracle(m)
			queries := fastQueries(rand.New(rand.NewSource(int64(7+si))), g)
			refs := make([]ColumnResult, len(queries))
			for i, q := range queries {
				cs, err := m.buildColumnState(q)
				if err != nil {
					t.Fatal(err)
				}
				refs[i] = o.solveFast(cs.l, cs.seeds)
			}
			runRef := o.runFast()
			for _, workers := range []int{1, 2, 3} {
				for _, noASM := range []bool{false, true} {
					label := fmt.Sprintf("%s config %d workers=%d noASM=%v", shape.name, ci, workers, noASM)
					opts := []RunOption{WithWorkers(workers), WithScalarKernels(noASM)}
					for w := 1; w <= len(queries); w++ {
						out, err := m.SolveColumns(ctx, queries[:w], opts...)
						if err != nil {
							t.Fatalf("%s: width %d: %v", label, w, err)
						}
						for i := range out {
							if queries[i].Quality != QualityFast {
								continue
							}
							l := fmt.Sprintf("%s width %d column %d", label, w, i)
							if out[i].Stopped != nil {
								t.Fatalf("%s: stopped: %v", l, out[i].Stopped)
							}
							assertColumnBitwise(t, l, &out[i], &refs[i])
						}
					}
					run := m.RunContext(ctx, append(opts, WithApproximate(true))...)
					assertResultsBitwise(t, label+" Run(WithApproximate)", run, runRef)
				}
			}
		}
	}
}

// A fast column whose context is done before the call keeps its start
// state — X = l, uniform Z, no sweeps — and the context's error, while
// the rest of its batch, fast and exact, still answers; a run whose
// context is done leaves every class at its seed state.
func TestFastTierCanceledColumn(t *testing.T) {
	g := randomHIN(rand.New(rand.NewSource(100)), hinShapes[0])
	cfg := DefaultConfig()
	cfg.Workers = 2
	m := mustModel(t, g, cfg)
	o := newOracle(m)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	queries := []ColumnQuery{
		{Seeds: classSeeds(g, 0), Quality: QualityFast, Ctx: done},
		{Seeds: classSeeds(g, 1), Quality: QualityFast},
		{Seeds: classSeeds(g, 2), Quality: QualityExact},
		{Seeds: []int{3, 5}, Quality: QualityFast},
	}
	out, err := m.SolveColumns(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := m.buildColumnState(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	want := ColumnResult{X: cs.l, Z: vec.Uniform(g.M()), Restart: cs.l, Seeds: cs.seeds}
	assertColumnBitwise(t, "cancelled column", &out[0], &want)
	if !errors.Is(out[0].Stopped, context.Canceled) {
		t.Fatalf("cancelled column: stopped %v, want context.Canceled", out[0].Stopped)
	}
	for _, i := range []int{1, 3} {
		cs, err := m.buildColumnState(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		ref := o.solveFast(cs.l, cs.seeds)
		assertColumnBitwise(t, fmt.Sprintf("column %d", i), &out[i], &ref)
		if out[i].Stopped != nil {
			t.Fatalf("column %d: stopped %v", i, out[i].Stopped)
		}
	}
	if !out[2].Converged || out[2].Stopped != nil {
		t.Fatalf("exact column: converged %v, stopped %v", out[2].Converged, out[2].Stopped)
	}

	res := m.RunContext(done, WithApproximate(true))
	if res.Reason != ReasonCanceled {
		t.Fatalf("cancelled run: reason %v, want canceled", res.Reason)
	}
	for c := range res.Classes {
		l, seeds := m.seedVector(c)
		want := ClassResult{Class: c, X: l, Z: vec.Uniform(g.M()), Restart: l, Seeds: seeds}
		assertClassBitwise(t, fmt.Sprintf("cancelled run class %d", c), &res.Classes[c], &want)
	}
}

// The a-priori bound documented on accel.System, with L = 1: on every
// random network shape with ICA off, at α ∈ {0.2, 0.5, 0.8}, every class
// of Run(WithApproximate) lies within (rel/α)·‖z̄ − z̄*‖₁ of the exact
// answer in L1, where z̄ is uniform, z̄* is the exact class's Z and
// rel = 1−α−β. It holds because every column of O, dangling ones
// included, is stochastic (so ‖O ×̄₁ x ×̄₃ d‖₁ ≤ ‖x‖₁·‖d‖₁) and W is
// column-stochastic too.
func TestFastTierWithinBound(t *testing.T) {
	ctx := context.Background()
	worst := 0.0
	for si, shape := range hinShapes {
		g := randomHIN(rand.New(rand.NewSource(int64(100+si))), shape)
		for _, alpha := range []float64{0.2, 0.5, 0.8} {
			cfg := DefaultConfig()
			cfg.Alpha = alpha
			cfg.Gamma = shape.gamma
			cfg.FeatureTopK = shape.topK
			cfg.ICAUpdate = false
			cfg.Epsilon = 1e-13
			cfg.MaxIterations = 2000
			cfg.Workers = 1
			m := mustModel(t, g, cfg)
			exact := m.RunContext(ctx)
			fast := m.RunContext(ctx, WithApproximate(true))
			rel := 1 - alpha - cfg.Beta()
			zbar := vec.Uniform(g.M())
			for c := range exact.Classes {
				label := fmt.Sprintf("%s alpha=%v class %d", shape.name, alpha, c)
				ex, fa := &exact.Classes[c], &fast.Classes[c]
				if !ex.Converged || !fa.Converged {
					t.Fatalf("%s: converged exact=%v fast=%v", label, ex.Converged, fa.Converged)
				}
				dx := vec.Diff1(fa.X, ex.X)
				bound := rel / alpha * vec.Diff1(zbar, ex.Z)
				if !(dx <= bound+1e-9) {
					t.Errorf("%s: ‖x_fast − x_exact‖₁ = %v > (rel/α)·‖z̄ − z̄*‖₁ = %v", label, dx, bound)
				}
				if bound > 0 && dx/bound > worst {
					worst = dx / bound
				}
			}
		}
	}
	t.Logf("largest ‖x_fast − x_exact‖₁ / bound: %.3f", worst)
}

// A fast run's RunStats must account for its kernels: each sweep of the
// block is one o_contract call over the collapsed P's entries (P is O
// collapsed at z̄) applied to the columns still active, each W product
// one w_matvec call, and each class's z one r_contract call over R's
// entries. Serial and pooled alike.
func TestFastTierStats(t *testing.T) {
	g := benchGraph(150)
	for _, workers := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		m := mustModel(t, g, cfg)
		var st RunStats
		res := m.RunContext(context.Background(), WithApproximate(true), WithStats(&st))
		if res.Stopped != nil {
			t.Fatalf("workers=%d: %v", workers, res.Stopped)
		}
		sys, err := m.linearSystem()
		if err != nil {
			t.Fatal(err)
		}
		sweeps, cols := 0, 0
		for _, cr := range res.Classes {
			sweeps = max(sweeps, cr.Iterations)
			cols += cr.Iterations
		}
		label := fmt.Sprintf("workers=%d", workers)
		check := func(k obs.Kernel, calls, items, colsWant int) {
			t.Helper()
			ks := st.Kernels[k]
			if ks.Calls != int64(calls) || ks.Items != int64(items) || ks.Cols != int64(colsWant) || ks.Time <= 0 {
				t.Errorf("%s %s: %d calls, %d items, %d cols in %v; want %d, %d, %d",
					label, k, ks.Calls, ks.Items, ks.Cols, ks.Time, calls, items, colsWant)
			}
		}
		wItems := 0
		switch w := m.w.(type) {
		case *sparse.Matrix:
			wItems = w.NNZ()
		case *vec.Matrix:
			wItems = w.Rows * w.Cols
		}
		check(obs.KernelO, sweeps, sweeps*sys.NNZ(), cols)
		check(obs.KernelW, sweeps, sweeps*wItems, cols)
		check(obs.KernelR, g.Q(), g.Q()*m.r.NNZ(), g.Q())
	}
}
