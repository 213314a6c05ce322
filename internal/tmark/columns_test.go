package tmark

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tmark/internal/hin"
	"tmark/internal/vec"
)

// queryGraph is a small homophilous network used by the column tests.
// benchGraphQ labels every tenth node, which only covers the even
// classes for q = 4; relabel every fifth node so each class has seeds.
func queryGraph() *hin.Graph {
	g := benchGraphQ(120, 4)
	for i := 0; i < g.N(); i += 5 {
		g.SetLabels(i, i%4)
	}
	return g
}

// classSeeds lists the labelled nodes of class c — the seed set whose
// query reproduces class c's solve.
func classSeeds(g *hin.Graph, c int) []int {
	var seeds []int
	for i := 0; i < g.N(); i++ {
		if g.HasLabel(i, c) {
			seeds = append(seeds, i)
		}
	}
	return seeds
}

func mustModel(t *testing.T, g *hin.Graph, cfg Config) *Model {
	t.Helper()
	m, err := New(g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func sameVec(t *testing.T, name string, got, want vec.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v (bitwise)", name, i, got[i], want[i])
		}
	}
}

// TestSolveColumnsMatchesSequential: each column of the batched solve is
// bitwise identical to the oracle's solve of that query alone, with and
// without the per-query reseed, serial and sharded.
func TestSolveColumnsMatchesSequential(t *testing.T) {
	g := queryGraph()
	rng := rand.New(rand.NewSource(7))
	for _, ica := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("ica=%v/workers=%d", ica, workers), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Workers = workers
				cfg.Epsilon = 1e-10
				m := mustModel(t, g, cfg)
				queries := make([]ColumnQuery, 6)
				for i := range queries {
					seeds := make([]int, 3+rng.Intn(5))
					for j := range seeds {
						seeds[j] = rng.Intn(g.N())
					}
					queries[i] = ColumnQuery{Seeds: seeds, ICA: ica}
				}
				batched, err := m.SolveColumns(context.Background(), queries)
				if err != nil {
					t.Fatalf("SolveColumns: %v", err)
				}
				o := newOracle(m)
				for i, q := range queries {
					ref := o.solveColumn(t, q)
					got := batched[i]
					if got.Iterations != ref.Iterations || got.Converged != ref.Converged {
						t.Fatalf("column %d: iters/conv = %d/%v, want %d/%v",
							i, got.Iterations, got.Converged, ref.Iterations, ref.Converged)
					}
					sameVec(t, fmt.Sprintf("col%d.X", i), got.X, ref.X)
					sameVec(t, fmt.Sprintf("col%d.Z", i), got.Z, ref.Z)
					sameVec(t, fmt.Sprintf("col%d.Restart", i), got.Restart, ref.Restart)
					if len(got.Trace) != len(ref.Trace) {
						t.Fatalf("column %d: trace length %d, want %d", i, len(got.Trace), len(ref.Trace))
					}
					for k := range got.Trace {
						if got.Trace[k] != ref.Trace[k] {
							t.Fatalf("column %d trace[%d] = %v, want %v", i, k, got.Trace[k], ref.Trace[k])
						}
					}
				}
			})
		}
	}
}

// TestSolveColumnMatchesRunContext: with the ICA update off, a query
// whose seed set is exactly class c's labelled nodes reproduces class c
// of a full RunContext solve bitwise — the contract the serving layer's
// coalescing-correctness test builds on.
func TestSolveColumnMatchesRunContext(t *testing.T) {
	g := queryGraph()
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Epsilon = 1e-10
	cfg.ICAUpdate = false // queries are never coupled by the cross-class reseed
	m := mustModel(t, g, cfg)
	full := m.RunContext(context.Background())
	queries := make([]ColumnQuery, g.Q())
	for c := 0; c < g.Q(); c++ {
		queries[c] = ColumnQuery{Seeds: classSeeds(g, c)}
	}
	batched, err := m.SolveColumns(context.Background(), queries)
	if err != nil {
		t.Fatalf("SolveColumns: %v", err)
	}
	for c := 0; c < g.Q(); c++ {
		cr := full.Classes[c]
		got := batched[c]
		if got.Iterations != cr.Iterations || got.Converged != cr.Converged {
			t.Fatalf("class %d: iters/conv = %d/%v, want %d/%v",
				c, got.Iterations, got.Converged, cr.Iterations, cr.Converged)
		}
		sameVec(t, fmt.Sprintf("class%d.X", c), got.X, cr.X)
		sameVec(t, fmt.Sprintf("class%d.Z", c), got.Z, cr.Z)
	}
}

// TestSolveColumnsPerColumnCancel: cancelling one column's context
// retires that column mid-batch with a usable partial state while the
// other columns keep iterating to their natural end.
func TestSolveColumnsPerColumnCancel(t *testing.T) {
	g := queryGraph()
	cfg := slowConfig(1)
	cfg.MaxIterations = 50
	m := mustModel(t, g, cfg)

	colCtx, cancel := context.WithCancel(context.Background())
	// Cancel just before the reseed window opens (t = 3): the retired
	// column keeps its bare seed restart, while a reseed that wrongly
	// reached retired columns would add pseudo-seeds to it.
	stopAt := 2
	queries := []ColumnQuery{
		{Seeds: classSeeds(g, 0), Ctx: colCtx, ICA: true},
		{Seeds: classSeeds(g, 1), ICA: true},
		{Seeds: classSeeds(g, 2)},
	}
	progress := func(col, iter int, rho float64) {
		if col == 0 && iter == stopAt {
			cancel()
		}
	}
	out, err := m.SolveColumns(context.Background(), queries, WithProgress(progress))
	if err != nil {
		t.Fatalf("SolveColumns: %v", err)
	}
	if out[0].Stopped == nil {
		t.Fatalf("column 0 should report Stopped")
	}
	if got := out[0].Iterations; got != stopAt {
		t.Fatalf("column 0 stopped after %d iterations, want %d (within one iteration)", got, stopAt)
	}
	for i := 1; i < 3; i++ {
		if out[i].Stopped != nil {
			t.Fatalf("column %d unexpectedly stopped: %v", i, out[i].Stopped)
		}
		// The survivors run to their natural end — convergence (the tiny
		// graph can hit an exact fixed point, ρ = 0) or the cap — well
		// past the cancellation point.
		if !out[i].Converged && out[i].Iterations != cfg.MaxIterations {
			t.Fatalf("column %d stopped early: %d iterations, not converged", i, out[i].Iterations)
		}
		if out[i].Iterations <= stopAt {
			t.Fatalf("column %d only ran %d iterations", i, out[i].Iterations)
		}
	}
	// The cancelled column holds the state of its last completed
	// iteration: bitwise equal to the oracle's solve capped there.
	capCfg := cfg
	capCfg.MaxIterations = stopAt
	ref := newOracle(mustModel(t, g, capCfg)).solveColumn(t, ColumnQuery{Seeds: classSeeds(g, 0), ICA: true})
	sameVec(t, "cancelled.X", out[0].X, ref.X)
	sameVec(t, "cancelled.Z", out[0].Z, ref.Z)
	// A retired column's restart set is final: the reseed of the
	// surviving columns never rewrites it.
	sameVec(t, "cancelled.Restart", out[0].Restart, ref.Restart)
}

// TestSolveColumnsRunCtxCancel: the run-level context stops every column
// within one iteration, stamping Stopped on each.
func TestSolveColumnsRunCtxCancel(t *testing.T) {
	g := queryGraph()
	m := mustModel(t, g, slowConfig(1))
	ctx, cancel := context.WithCancel(context.Background())
	progress := func(col, iter int, rho float64) {
		if iter == 3 {
			cancel()
		}
	}
	out, err := m.SolveColumns(ctx, []ColumnQuery{
		{Seeds: []int{0, 4}}, {Seeds: []int{1}},
	}, WithProgress(progress))
	if err != nil {
		t.Fatalf("SolveColumns: %v", err)
	}
	for i, cr := range out {
		if cr.Stopped == nil {
			t.Fatalf("column %d: Stopped not set", i)
		}
		if cr.Iterations > 4 {
			t.Fatalf("column %d ran %d iterations after cancellation", i, cr.Iterations)
		}
		if !vec.IsStochastic(cr.X, 1e-9) {
			t.Fatalf("column %d partial X not stochastic", i)
		}
	}
}

// TestSolveColumnsDeadline: an already-expired deadline returns seed
// state immediately with Stopped set.
func TestSolveColumnsDeadline(t *testing.T) {
	g := queryGraph()
	m := mustModel(t, g, slowConfig(1))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	out, err := m.SolveColumns(ctx, []ColumnQuery{{Seeds: []int{0}}})
	if err != nil {
		t.Fatalf("SolveColumns: %v", err)
	}
	if out[0].Stopped == nil || out[0].Iterations != 0 {
		t.Fatalf("expired deadline: Stopped=%v iters=%d, want stopped at 0", out[0].Stopped, out[0].Iterations)
	}
	if !vec.IsStochastic(out[0].X, 1e-12) {
		t.Fatalf("seed-state X not stochastic")
	}
}

// TestSolveColumnRestartVector: an explicit restart vector is copied,
// normalised and solved; the caller's slice is untouched.
func TestSolveColumnRestartVector(t *testing.T) {
	g := queryGraph()
	cfg := DefaultConfig()
	cfg.Workers = 1
	m := mustModel(t, g, cfg)
	restart := vec.New(g.N())
	restart[3], restart[17] = 2, 2
	orig := vec.Clone(restart)
	got, err := m.SolveColumn(context.Background(), ColumnQuery{Restart: restart})
	if err != nil {
		t.Fatalf("SolveColumn: %v", err)
	}
	sameVec(t, "caller restart", restart, orig)
	ref, err := m.SolveColumn(context.Background(), ColumnQuery{Seeds: []int{3, 17}})
	if err != nil {
		t.Fatalf("SolveColumn(seeds): %v", err)
	}
	sameVec(t, "restart-vs-seeds X", got.X, ref.X)
	if got.Seeds != 2 {
		t.Fatalf("Seeds = %d, want 2", got.Seeds)
	}
}

// TestColumnQueryValidation: malformed queries error out before any
// solving and never panic.
func TestColumnQueryValidation(t *testing.T) {
	g := queryGraph()
	m := mustModel(t, g, DefaultConfig())
	bad := []ColumnQuery{
		{},                           // no seeds, no restart
		{Seeds: []int{-1}},           // negative seed
		{Seeds: []int{g.N()}},        // out of range
		{Restart: vec.New(3)},        // wrong length
		{Restart: vec.New(g.N())},    // no mass
		{Restart: nanRestart(g.N())}, // NaN entry
		{Restart: negRestart(g.N())}, // negative entry
		{Restart: infRestart(g.N())}, // Inf entry
	}
	for i, q := range bad {
		if _, err := m.SolveColumn(context.Background(), q); err == nil {
			t.Errorf("query %d: expected error", i)
		}
		if _, err := m.SolveColumns(context.Background(), []ColumnQuery{{Seeds: []int{0}}, q}); err == nil {
			t.Errorf("query %d in batch: expected error", i)
		}
	}
	if out, err := m.SolveColumns(context.Background(), nil); err != nil || out != nil {
		t.Errorf("empty batch: got (%v, %v), want (nil, nil)", out, err)
	}
}

func nanRestart(n int) vec.Vector {
	v := vec.New(n)
	v[0] = nan()
	return v
}

func negRestart(n int) vec.Vector {
	v := vec.New(n)
	v[0], v[1] = 1, -1
	return v
}

func infRestart(n int) vec.Vector {
	v := vec.New(n)
	v[0] = 1
	v[1] = 1 / zero()
	return v
}

func nan() float64  { z := zero(); return z / z }
func zero() float64 { return 0 }

// SolveColumns at every block width from 1 to 9 — laid out at the vector
// strides 4 and 8 up to 8 columns, at the first scalar stride past them —
// must equal the oracle bitwise on both kernel paths, serial and pooled,
// with a CSR feature channel so W runs its vector body too. Columns
// retire at different iterations, so every batch also steps down
// through the narrower widths.
func TestSolveColumnsEveryWidthBothKernelPaths(t *testing.T) {
	g := benchGraph(120)
	queries := make([]ColumnQuery, 9)
	for i := range queries {
		queries[i] = ColumnQuery{Seeds: []int{i, i + 9, i + 18 + i%4}, ICA: i%3 == 0}
	}
	for _, workers := range []int{1, 2, 3} {
		cfg := ckConfig(false, workers)
		cfg.FeatureTopK = 8
		m := mustModel(t, g, cfg)
		o := newOracle(m)
		refs := make([]ColumnResult, len(queries))
		for i, q := range queries {
			refs[i] = o.solveColumn(t, q)
		}
		for _, scalar := range []bool{false, true} {
			for w := 1; w <= len(queries); w++ {
				out, err := m.SolveColumns(context.Background(), queries[:w], WithScalarKernels(scalar))
				if err != nil {
					t.Fatalf("workers %d scalar=%v width %d: %v", workers, scalar, w, err)
				}
				for i := range out {
					assertColumnBitwise(t, fmt.Sprintf("workers %d scalar=%v width %d column %d", workers, scalar, w, i), &out[i], &refs[i])
				}
			}
		}
	}
}
