package tmark

// Chaos tests: deterministic fault injection into the solver's kernels,
// asserting the guards degrade to correct — never wrong — answers. A
// corrupted iterate is always discarded before commit, so every state a
// faulted run reports is a healthy iterate, and the automatic demoted
// re-run recovers the full bitwise-correct result when the corruption
// was transient.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"tmark/internal/cpuid"
	"tmark/internal/fault"
	"tmark/internal/vec"
)

// injectNaN arms the fault point to write NaN into the kernel's output
// block on its nth firing, returning the disarm func.
func injectNaN(p fault.Point, nth int64, offset int) func() {
	return fault.Inject(p, fault.Nth(nth, func(args ...any) {
		dst := args[0].([]float64)
		dst[offset] = math.NaN()
	}))
}

// A transient NaN in the blocked node kernel must trigger exactly one
// demoted re-run and still produce the bitwise answer of a clean run of
// the same call. The re-run starts where the first attempt started:
// cold, from the caller's warm start, or with the extrapolator reset.
func TestChaosNaNRecoversThroughRetry(t *testing.T) {
	g := benchGraph(100)
	capped := ckConfig(true, 1)
	capped.MaxIterations = 3
	prev := mustModel(t, g, capped).Run()
	rows := []struct {
		name string
		run  func(m *Model) *Result
	}{
		{"cold", func(m *Model) *Result { return m.RunContext(context.Background()) }},
		{"warm", func(m *Model) *Result { return m.RunWarmContext(context.Background(), prev) }},
		{"accelerated", func(m *Model) *Result { return m.RunContext(context.Background(), WithAcceleration(true)) }},
	}
	for _, row := range rows {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", row.name, workers)
			m := mustModel(t, g, ckConfig(true, workers))
			ref := row.run(m)

			remove := injectNaN(fault.TensorNodeBatch, 5, 0)
			res := row.run(m)
			remove()

			if len(res.Faults) == 0 {
				t.Fatalf("%s: no fault recorded", label)
			}
			if res.Faults[0].Kind != faultNonFinite {
				t.Errorf("%s: fault kind %q", label, res.Faults[0].Kind)
			}
			if res.Reason != ref.Reason {
				t.Errorf("%s: reason %v, want %v (recovered run)", label, res.Reason, ref.Reason)
			}
			assertResultsBitwise(t, label, res, ref)
		}
	}
}

// The demoted retry must run every kernel of the iteration — the O and R
// contractions and the CSR feature product W — on its scalar body,
// serial and pooled: each kernel fault point reports which body ran,
// and every firing after the fault must report the scalar one. On AVX2
// hosts the first attempt must report the vector bodies, so the check
// cannot pass vacuously.
func TestChaosRetryDemotesEveryKernel(t *testing.T) {
	t.Cleanup(fault.Reset)
	g := benchGraph(100)
	for _, workers := range []int{1, 4} {
		cfg := ckConfig(true, workers)
		cfg.FeatureTopK = 8
		m := mustModel(t, g, cfg)
		ref := m.RunContext(context.Background())

		type firing struct {
			point  fault.Point
			retry  bool
			vector bool
		}
		var (
			mu        sync.Mutex
			firings   []firing
			nodeCalls atomic.Int64
		)
		record := func(pt fault.Point, retry bool, args []any) {
			mu.Lock()
			firings = append(firings, firing{pt, retry, args[2].(bool)})
			mu.Unlock()
		}
		removeNode := fault.Inject(fault.TensorNodeBatch, func(args ...any) {
			n := nodeCalls.Add(1)
			if n == 5 {
				args[0].([]float64)[0] = math.NaN()
			}
			record(fault.TensorNodeBatch, n > 5, args)
		})
		var removes []func()
		for _, pt := range []fault.Point{fault.TensorRelationBatch, fault.SparseMulBatch} {
			removes = append(removes, fault.Inject(pt, func(args ...any) {
				record(pt, nodeCalls.Load() > 5, args)
			}))
		}
		res := m.RunContext(context.Background())
		removeNode()
		for _, r := range removes {
			r()
		}

		label := fmt.Sprintf("workers=%d", workers)
		if len(res.Faults) != 1 {
			t.Fatalf("%s: faults %v, want the one injected", label, res.Faults)
		}
		assertResultsBitwise(t, label, res, ref)
		retried := map[fault.Point]int{}
		for _, f := range firings {
			switch {
			case f.retry && f.vector:
				t.Fatalf("%s: %s ran the vector body on the demoted retry", label, f.point)
			case f.retry:
				retried[f.point]++
			case cpuid.AVX2 && !f.vector:
				t.Fatalf("%s: %s ran the scalar body before the fault", label, f.point)
			}
		}
		for _, pt := range []fault.Point{fault.TensorNodeBatch, fault.TensorRelationBatch, fault.SparseMulBatch} {
			if retried[pt] == 0 {
				t.Fatalf("%s: %s never fired on the retry", label, pt)
			}
		}
	}
}

// With the retry disabled the run must stop at the fault with the last
// healthy state: every reported float is finite and each class's
// iteration count is below the fault iteration.
func TestChaosNaNNoRetryStopsHealthy(t *testing.T) {
	m, err := New(benchGraph(100), ckConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	remove := injectNaN(fault.TensorNodeBatch, 5, 0)
	defer remove()
	res := m.RunContext(context.Background(), WithGuards(GuardConfig{NoRetry: true}))

	if res.Reason != ReasonNumericalFault {
		t.Fatalf("reason %v, want ReasonNumericalFault", res.Reason)
	}
	if !errors.Is(res.Stopped, ErrNumericalFault) {
		t.Fatalf("stopped %v, want ErrNumericalFault", res.Stopped)
	}
	if len(res.Faults) != 1 || res.Faults[0].Iter != 5 {
		t.Fatalf("faults %v, want one at iteration 5", res.Faults)
	}
	for c := range res.Classes {
		cr := &res.Classes[c]
		if cr.Iterations != 4 {
			t.Errorf("class %d reports iteration %d, want 4 (last healthy)", c, cr.Iterations)
		}
		for _, v := range cr.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("class %d X contains non-finite value", c)
			}
		}
	}
}

// A deterministic fault (reproducing on every firing) must survive the
// one retry and stop the run — the retry is attempted once, not looped.
func TestChaosPersistentFaultStops(t *testing.T) {
	m, err := New(benchGraph(100), ckConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	remove := fault.Inject(fault.TensorNodeBatch, func(args ...any) {
		args[0].([]float64)[0] = math.NaN()
	})
	res := m.RunContext(context.Background())
	remove()
	if res.Reason != ReasonNumericalFault {
		t.Fatalf("reason %v, want ReasonNumericalFault", res.Reason)
	}
	// Both attempts' faults are on the record: the original and the one
	// that reproduced on the demoted retry.
	if len(res.Faults) != 2 {
		t.Fatalf("faults %v, want two (original + retry)", res.Faults)
	}

	// A fault from the 5th node pass on: the first attempt faults at
	// iteration 5, and the retry — which restarts from its own start,
	// one pass later — at its iteration 1. The run reports the retry's
	// own last healthy iterate.
	var calls atomic.Int64
	remove = fault.Inject(fault.TensorNodeBatch, func(args ...any) {
		if calls.Add(1) >= 5 {
			args[0].([]float64)[0] = math.NaN()
		}
	})
	res = m.RunContext(context.Background())
	remove()
	if len(res.Faults) != 2 || res.Faults[0].Iter != 5 || res.Faults[1].Iter != 1 {
		t.Fatalf("faults %v, want iteration 5 then the retry's iteration 1", res.Faults)
	}
	for c := range res.Classes {
		cr := &res.Classes[c]
		if cr.Iterations != res.Faults[1].Iter-1 {
			t.Errorf("class %d reports iteration %d, want %d (the retry's last healthy)", c, cr.Iterations, res.Faults[1].Iter-1)
		}
		for _, v := range append(append([]float64(nil), cr.X...), cr.Z...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("class %d reports a non-finite value", c)
			}
		}
	}
}

// In a batched column solve a NaN confined to one column must retire
// that column alone with its last healthy state; the other columns keep
// iterating and finish bitwise identical to a clean run.
func TestChaosColumnFaultIsolation(t *testing.T) {
	g := benchGraph(100)
	queries := []ColumnQuery{
		{Seeds: []int{0, 4, 8}},
		{Seeds: []int{1, 5, 9}},
		{Seeds: []int{2, 6, 10}},
	}
	m, err := New(g, ckConfig(false, 1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.SolveColumns(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt column 1 of the relation block on the 4th iteration.
	remove := fault.Inject(fault.TensorRelationBatch, fault.Nth(4, func(args ...any) {
		dst, cols := args[0].([]float64), args[1].(int)
		dst[1%cols] = math.NaN()
	}))
	defer remove()
	out, err := m.SolveColumns(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}

	if !errors.Is(out[1].Stopped, ErrNumericalFault) {
		t.Fatalf("column 1 stopped %v, want ErrNumericalFault", out[1].Stopped)
	}
	if out[1].Iterations != 3 {
		t.Errorf("column 1 reports iteration %d, want 3 (last healthy)", out[1].Iterations)
	}
	for _, v := range out[1].X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("faulted column reports non-finite state")
		}
	}
	for _, i := range []int{0, 2} {
		if out[i].Stopped != nil {
			t.Errorf("healthy column %d stopped: %v", i, out[i].Stopped)
		}
		if d := vec.Diff1(out[i].X, ref[i].X); d != 0 {
			t.Errorf("healthy column %d X diverged by %v", i, d)
		}
		if out[i].Iterations != ref[i].Iterations {
			t.Errorf("healthy column %d iterations %d vs %d", i, out[i].Iterations, ref[i].Iterations)
		}
	}
}

// The stagnation guard stops a run whose residuals go flat, without a
// retry (the verdict is a property of the data, not the hardware).
func TestGuardStagnationStopsRun(t *testing.T) {
	cfg := ckConfig(true, 1)
	cfg.Epsilon = 1e-300 // unreachable: every run grinds to the cap
	m, err := New(benchGraph(100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// StagnationTol = 1 accepts any window as flat, so the guard fires as
	// soon as the window fills — a deterministic stand-in for a genuinely
	// stuck iteration.
	res := m.RunContext(context.Background(), WithGuards(GuardConfig{Stagnation: 3, StagnationTol: 1}))
	if res.Reason != ReasonStagnated {
		t.Fatalf("reason %v, want ReasonStagnated", res.Reason)
	}
	if !errors.Is(res.Stopped, ErrStagnated) {
		t.Fatalf("stopped %v, want ErrStagnated", res.Stopped)
	}
	if len(res.Faults) != 1 || res.Faults[0].Kind != faultStagnation || res.Faults[0].Iter != 3 {
		t.Fatalf("faults %v, want one stagnation at iteration 3", res.Faults)
	}
}
