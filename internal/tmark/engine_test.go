package tmark

// Equivalence tests for the lockstep engine's class runs: per class they
// must reproduce the sequential oracle bit for bit — same X, Z, residual
// traces, iteration counts and restart vectors — for every worker count,
// with and without the ICA update, for dense and CSR feature matrices,
// warm and cold, and under mid-run cancellation.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tmark/internal/vec"
)

// assertResultsBitwise fails unless the two results are per-class bitwise
// identical in every numeric field.
func assertResultsBitwise(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Classes) != len(want.Classes) {
		t.Fatalf("%s: class counts %d vs %d", label, len(got.Classes), len(want.Classes))
	}
	for c := range want.Classes {
		assertClassBitwise(t, fmt.Sprintf("%s: class %d", label, c), &got.Classes[c], &want.Classes[c])
	}
}

// assertClassBitwise fails unless two class solutions are bitwise
// identical in every numeric field.
func assertClassBitwise(t *testing.T, label string, got, want *ClassResult) {
	t.Helper()
	if d := vec.Diff1(got.X, want.X); d != 0 {
		t.Errorf("%s: X diverged by %v", label, d)
	}
	if d := vec.Diff1(got.Z, want.Z); d != 0 {
		t.Errorf("%s: Z diverged by %v", label, d)
	}
	if d := vec.Diff1(got.Restart, want.Restart); d != 0 {
		t.Errorf("%s: Restart diverged by %v", label, d)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations %d vs %d", label, got.Iterations, want.Iterations)
	}
	if got.Converged != want.Converged {
		t.Errorf("%s: converged %v vs %v", label, got.Converged, want.Converged)
	}
	if got.Seeds != want.Seeds {
		t.Errorf("%s: seeds %d vs %d", label, got.Seeds, want.Seeds)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Errorf("%s: trace lengths %d vs %d", label, len(got.Trace), len(want.Trace))
		return
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Errorf("%s: trace[%d] = %v vs %v", label, i, got.Trace[i], want.Trace[i])
			return
		}
	}
}

// The engine must reproduce the oracle bitwise across worker counts
// (1 = serial kernels, 4 = sharded, 0 = GOMAXPROCS), ICA modes, and
// feature-matrix representations. Epsilon is set so some classes
// converge before others, exercising column retirement.
func TestBatchedMatchesSequentialBitwise(t *testing.T) {
	g := benchGraph(160)
	uneven := false // some case must retire classes at different iterations
	for _, ica := range []bool{true, false} {
		for _, topK := range []int{0, 8} { // dense W, CSR W
			for _, workers := range []int{1, 4, 0} {
				cfg := DefaultConfig()
				cfg.ICAUpdate = ica
				cfg.FeatureTopK = topK
				cfg.Workers = workers
				cfg.Epsilon = 1e-7
				cfg.MaxIterations = 60
				m, err := New(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("ica=%v topK=%d workers=%d", ica, topK, workers)
				got := m.RunContext(context.Background())
				assertResultsBitwise(t, label, got, newOracle(m).run(nil))
				for c := range got.Classes {
					if got.Classes[c].Iterations != got.Classes[0].Iterations {
						uneven = true
					}
				}
			}
		}
	}
	if !uneven {
		t.Error("no case retired classes at different iterations; column compaction untested")
	}
}

// The relation-only configuration (Gamma = 0, no feature matrix) must
// agree too — it skips the W kernel entirely.
func TestBatchedMatchesSequentialNoFeatureChannel(t *testing.T) {
	g := benchGraph(120)
	cfg := DefaultConfig()
	cfg.Gamma = 0
	cfg.Epsilon = 1e-7
	cfg.MaxIterations = 50
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitwise(t, "gamma=0", m.RunContext(context.Background()), newOracle(m).run(nil))
}

// Warm starts must agree as well: both continue from the same previous
// solution.
func TestBatchedWarmMatchesSequential(t *testing.T) {
	g := benchGraph(120)
	cfg := DefaultConfig()
	cfg.Epsilon = 1e-7
	cfg.MaxIterations = 8 // stop early to leave room for the warm leg
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := m.Run()
	cfg2 := cfg
	cfg2.MaxIterations = 60
	m2, err := New(g, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.RunWarmContext(context.Background(), prev)
	assertResultsBitwise(t, "warm", got, newOracle(m2).run(warmFrom(m2, prev, false)))
}

// warmFrom is the oracle's warm start from a previous result: its x̄ and
// z̄, plus — with eqRestart under the ICA update — its reconciled
// equilibrium restart.
func warmFrom(m *Model, prev *Result, eqRestart bool) warmFn {
	return func(c int) (x, z, l vec.Vector, ok bool) {
		if c >= len(prev.Classes) {
			return nil, nil, nil, false
		}
		pc := &prev.Classes[c]
		if eqRestart && m.cfg.ICAUpdate {
			l = m.reconcileRestart(c, pc.Restart)
		}
		return vec.Clone(pc.X), vec.Clone(pc.Z), l, true
	}
}

// Under the ICA update the engine advances every class in lockstep with
// one context check per iteration, so a mid-run cancellation must leave
// exactly the oracle's state at that iteration.
func TestBatchedCancelMatchesSequentialLockstep(t *testing.T) {
	g := benchGraph(120)
	cfg := slowConfig(1)
	cfg.ICAUpdate = true
	cfg.MaxIterations = 40
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := m.RunContext(ctx, WithProgress(func(class, iter int, rho float64) {
		if class == 2 && iter == 5 {
			cancel()
		}
	}))
	if got.Stopped == nil {
		t.Fatal("cancellation not recorded")
	}
	capCfg := cfg
	capCfg.MaxIterations = 5
	assertResultsBitwise(t, "cancel", got, newOracle(mustModel(t, g, capCfg)).run(nil))
	for c := range got.Classes {
		if n := got.Classes[c].Iterations; n != 5 {
			t.Errorf("class %d ran %d iterations, want 5 (lockstep cancellation)", c, n)
		}
	}
}

// reseedClasses runs the engine's coupled reseed once over class columns
// holding the given scores; retired lists the classes to freeze out of
// the block first. It returns the rebuilt restart vectors.
func reseedClasses(t *testing.T, m *Model, xs []vec.Vector, retired ...int) []vec.Vector {
	t.Helper()
	q := m.graph.Q()
	rs := m.newRunScratch(runOptions{}, q)
	defer rs.close()
	cols := make([]engineCol, q)
	uniformZ := vec.Uniform(m.graph.M())
	for c := range cols {
		cols[c].columnState = m.classColumn(c, func(int) (x, z, l vec.Vector, ok bool) {
			return xs[c], uniformZ, nil, true
		}, false)
	}
	e := m.newEngine(rs, cols)
	e.argmax = make([]int, m.graph.N())
	for _, c := range retired {
		cols[c].res.Converged = true
	}
	e.retire(func(c *engineCol) bool { return c.res.Converged })
	if e.b != q-len(retired) {
		t.Fatalf("block holds %d columns, want %d", e.b, q-len(retired))
	}
	e.reseed()
	out := make([]vec.Vector, q)
	for c := range cols {
		out[c] = cols[c].l
	}
	return out
}

// The engine's coupled reseed must reproduce the oracle's exactly —
// including for retired classes, whose scores it reads from the frozen
// results and whose restart vectors it keeps rewriting.
func TestIcaReseedBatchMatchesSequential(t *testing.T) {
	g := benchGraph(80)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := g.Q()
	// A solved state to reseed from.
	snap := m.Run()
	o := newOracle(m)
	states := make([]oracleState, q)
	xs := make([]vec.Vector, q)
	for c := 0; c < q; c++ {
		l, _ := m.seedVector(c)
		xs[c] = vec.Clone(snap.Classes[c].X)
		states[c] = oracleState{x: vec.Clone(xs[c]), l: l}
	}
	o.reseedAll(states, make([]int, g.N()))
	got := reseedClasses(t, m, xs, 1) // class 1 retired, the rest compacted
	for c := 0; c < q; c++ {
		if d := vec.Diff1(got[c], states[c].l); d != 0 {
			t.Errorf("class %d reseeded restart diverged by %v", c, d)
		}
	}
}

// The engine must be deterministic across repeated runs for a fixed
// worker count.
func TestBatchedDeterministic(t *testing.T) {
	g := benchGraph(120)
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.MaxIterations = 20
	cfg.Epsilon = 1e-300
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Run()
	for trial := 0; trial < 3; trial++ {
		got := m.Run()
		assertResultsBitwise(t, fmt.Sprintf("trial %d", trial), got, first)
	}
}

// The engine's pre-commit corruption probe: a poisoned committed state
// makes the next pass fault before anything is committed. A class block
// stops whole with the block untouched; a query block retires the
// poisoned column alone with its pre-fault state while its batchmate
// commits the iteration.
func TestEngineDiscardsCorruptIterate(t *testing.T) {
	m, err := New(benchGraph(100), ckConfig(false, 1))
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*engine, []float64) {
		rs := m.newRunScratch(runOptions{}, 2)
		t.Cleanup(rs.close)
		cols := make([]engineCol, 2)
		for c := range cols {
			cols[c].columnState = m.classColumn(c, nil, false)
		}
		e := m.newEngine(rs, cols)
		e.x[3*e.stride] = math.NaN() // node 3 of column 0
		return e, append([]float64(nil), e.x...)
	}
	sameBits := func(label string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v (nothing committed)", label, i, got[i], want[i])
			}
		}
	}

	e, before := build()
	e.stopOnFault = true
	flt := e.iterate(context.Background())
	if flt == nil || !flt.retryable {
		t.Fatalf("class block: fault %+v, want a retryable fault", flt)
	}
	if flt.fault != (Fault{Class: 0, Iter: 1, Kind: faultNonFinite}) {
		t.Errorf("class block: fault %v, want class 0 iteration 1 nonfinite", flt.fault)
	}
	sameBits("class block x", e.x, before)

	e, before = build()
	e.run(context.Background())
	poisoned, healthy := &e.cols[0].res, &e.cols[1].res
	if poisoned.Stopped != ErrNumericalFault || poisoned.Iterations != 0 {
		t.Fatalf("poisoned column: stopped %v after %d iterations, want ErrNumericalFault after 0",
			poisoned.Stopped, poisoned.Iterations)
	}
	start := make([]float64, e.n)
	vec.GatherCol(before, 0, vec.Stride(2), start)
	sameBits("poisoned column x", poisoned.X, start)
	if healthy.Stopped != nil || healthy.Iterations == 0 {
		t.Errorf("healthy column: stopped %v after %d iterations", healthy.Stopped, healthy.Iterations)
	}
}
