package tmark

// Tests for the context-aware run API: cancellation and deadline
// semantics, the functional options, and the guarantee that telemetry
// collection never changes a numeric result.

import (
	"context"
	"errors"
	"testing"
	"time"

	"tmark/internal/obs"
)

// slowConfig makes convergence unreachable so a run is cut only by the
// context or the iteration cap.
func slowConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Epsilon = 1e-300
	cfg.MaxIterations = 10000
	cfg.Workers = workers
	return cfg
}

func TestRunContextCancelStopsWithinOneIteration(t *testing.T) {
	for _, ica := range []bool{true, false} {
		g := benchGraph(120)
		cfg := slowConfig(1)
		cfg.ICAUpdate = ica
		m, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const cancelAt = 3
		res := m.RunContext(ctx, WithProgress(func(class, iter int, rho float64) {
			if iter >= cancelAt {
				cancel()
			}
		}))
		if !errors.Is(res.Stopped, context.Canceled) {
			t.Fatalf("ica=%v: Stopped = %v, want context.Canceled", ica, res.Stopped)
		}
		if res.Reason != ReasonCanceled {
			t.Errorf("ica=%v: Reason = %v, want %v", ica, res.Reason, ReasonCanceled)
		}
		for _, cr := range res.Classes {
			// "Within one iteration": cancellation lands during iteration
			// cancelAt; no class may start iteration cancelAt+2.
			if cr.Iterations > cancelAt+1 {
				t.Errorf("ica=%v: class %d ran %d iterations after cancel at %d",
					ica, cr.Class, cr.Iterations, cancelAt)
			}
			if len(cr.X) != g.N() || len(cr.Z) != g.M() {
				t.Fatalf("ica=%v: class %d partial result has X/Z %d/%d", ica, cr.Class, len(cr.X), len(cr.Z))
			}
		}
		// The partial result must stay usable.
		if pred := res.Predict(); len(pred) != g.N() {
			t.Errorf("ica=%v: Predict on partial result returned %d predictions", ica, len(pred))
		}
	}
}

func TestRunContextExpiredDeadline(t *testing.T) {
	g := benchGraph(60)
	m, err := New(g, slowConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res := m.RunContext(ctx)
	if !errors.Is(res.Stopped, context.DeadlineExceeded) {
		t.Fatalf("Stopped = %v, want context.DeadlineExceeded", res.Stopped)
	}
	if res.Reason != ReasonDeadline {
		t.Errorf("Reason = %v, want %v", res.Reason, ReasonDeadline)
	}
	for _, cr := range res.Classes {
		if cr.Iterations != 0 {
			t.Errorf("class %d iterated under an expired deadline", cr.Class)
		}
	}
	if pred := res.Predict(); len(pred) != g.N() {
		t.Errorf("Predict returned %d predictions", len(pred))
	}
}

func TestRunContextDeadlineMidRun(t *testing.T) {
	g := benchGraph(200)
	m, err := New(g, slowConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := m.RunContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(res.Stopped, context.DeadlineExceeded) {
		t.Fatalf("Stopped = %v, want context.DeadlineExceeded (elapsed %v)", res.Stopped, elapsed)
	}
	if res.Reason != ReasonDeadline {
		t.Errorf("Reason = %v", res.Reason)
	}
	// Bounded promptly: the per-iteration ctx check means the run ends a
	// single iteration after the deadline, not at MaxIterations. Allow a
	// generous margin for slow CI machines.
	if elapsed > 5*time.Second {
		t.Errorf("run took %v after a 30ms deadline", elapsed)
	}
}

func TestRunContextNaturalReasons(t *testing.T) {
	g := benchGraph(60)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := m.RunContext(context.Background())
	if res.Stopped != nil || res.Reason != ReasonConverged {
		t.Errorf("converged run: Stopped=%v Reason=%v", res.Stopped, res.Reason)
	}

	cfg := slowConfig(1)
	cfg.MaxIterations = 3
	m2, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2 := m2.RunContext(nil) // nil ctx is background
	if res2.Stopped != nil || res2.Reason != ReasonMaxIterations {
		t.Errorf("capped run: Stopped=%v Reason=%v", res2.Stopped, res2.Reason)
	}
}

func TestWithStatsDoesNotChangePredictions(t *testing.T) {
	for _, workers := range []int{1, 3} {
		g := benchGraph(150)
		cfg := DefaultConfig()
		cfg.Workers = workers
		m, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain := m.Run()
		var st RunStats
		observed := m.RunContext(context.Background(), WithStats(&st))

		predA, predB := plain.Predict(), observed.Predict()
		for i := range predA {
			if predA[i] != predB[i] {
				t.Fatalf("workers=%d: prediction for node %d differs with stats: %d vs %d",
					workers, i, predA[i], predB[i])
			}
		}
		for c := range plain.Classes {
			ta, tb := plain.Classes[c].Trace, observed.Classes[c].Trace
			if len(ta) != len(tb) {
				t.Fatalf("workers=%d: class %d trace lengths differ: %d vs %d", workers, c, len(ta), len(tb))
			}
			for i := range ta {
				if ta[i] != tb[i] {
					t.Fatalf("workers=%d: class %d residual %d differs: %g vs %g", workers, c, i, ta[i], tb[i])
				}
			}
		}
	}
}

func TestWithStatsContents(t *testing.T) {
	g := benchGraph(150)
	cfg := DefaultConfig()
	cfg.Workers = 3
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStats
	res := m.RunContext(context.Background(), WithStats(&st))

	if st.Wall <= 0 {
		t.Errorf("Wall = %v", st.Wall)
	}
	if st.Workers != 3 {
		t.Errorf("Workers = %d", st.Workers)
	}
	wantIters := 0
	for _, cr := range res.Classes {
		wantIters += cr.Iterations
	}
	if st.Iterations != wantIters {
		t.Errorf("Iterations = %d, want %d", st.Iterations, wantIters)
	}
	if len(st.Classes) != g.Q() {
		t.Fatalf("Classes = %d, want %d", len(st.Classes), g.Q())
	}
	for c, cs := range st.Classes {
		if cs.Iterations != res.Classes[c].Iterations || cs.Converged != res.Classes[c].Converged {
			t.Errorf("class %d stats mismatch: %+v vs result %d/%v",
				c, cs, res.Classes[c].Iterations, res.Classes[c].Converged)
		}
		if len(cs.Residuals) != len(res.Classes[c].Trace) {
			t.Errorf("class %d residual trace %d, want %d", c, len(cs.Residuals), len(res.Classes[c].Trace))
		}
	}
	if len(st.Kernels) != int(obs.NumKernels) {
		t.Fatalf("Kernels = %d", len(st.Kernels))
	}
	for _, k := range []obs.Kernel{obs.KernelO, obs.KernelR, obs.KernelW} {
		ks := st.Kernels[k]
		if ks.Calls == 0 || ks.Time <= 0 || ks.Items == 0 {
			t.Errorf("kernel %s not observed: %+v", k, ks)
		}
	}
	// ICA is on and the run exceeds two iterations, so reseeds happened.
	if st.Kernels[obs.KernelReseed].Calls == 0 {
		t.Errorf("reseed kernel not observed: %+v", st.Kernels[obs.KernelReseed])
	}
	if st.PoolDispatches == 0 || st.PoolShards == 0 || st.PoolBusy <= 0 {
		t.Errorf("pool not observed: %d/%d/%v", st.PoolDispatches, st.PoolShards, st.PoolBusy)
	}
	// A reused RunStats is rewritten, not appended to.
	m.RunContext(context.Background(), WithStats(&st))
	if len(st.Classes) != g.Q() || len(st.Kernels) != int(obs.NumKernels) {
		t.Errorf("reused RunStats grew: %d classes, %d kernels", len(st.Classes), len(st.Kernels))
	}
}

func TestWithStatsSerialRun(t *testing.T) {
	g := benchGraph(80)
	cfg := DefaultConfig()
	cfg.Workers = 1
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStats
	m.RunContext(context.Background(), WithStats(&st))
	if st.Workers != 1 {
		t.Errorf("Workers = %d", st.Workers)
	}
	for _, k := range []obs.Kernel{obs.KernelO, obs.KernelR, obs.KernelW} {
		if st.Kernels[k].Calls == 0 || st.Kernels[k].Items == 0 {
			t.Errorf("serial kernel %s not observed: %+v", k, st.Kernels[k])
		}
	}
	if st.PoolDispatches != 0 {
		t.Errorf("serial run observed pool dispatches: %d", st.PoolDispatches)
	}
}

func TestWithWorkersOverridesConfig(t *testing.T) {
	g := benchGraph(150)
	cfg := DefaultConfig()
	cfg.Workers = 1
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStats
	res := m.RunContext(context.Background(), WithStats(&st), WithWorkers(4))
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4 (override)", st.Workers)
	}
	if st.PoolDispatches == 0 {
		t.Errorf("override did not engage the pool")
	}
	// WithWorkers(0) keeps the configured value.
	var st2 RunStats
	m.RunContext(context.Background(), WithStats(&st2), WithWorkers(0))
	if st2.Workers != 1 {
		t.Errorf("WithWorkers(0) resolved to %d, want configured 1", st2.Workers)
	}
	if pred := res.Predict(); len(pred) != g.N() {
		t.Errorf("Predict len = %d", len(pred))
	}
}

func TestWithProgressReportsEveryIteration(t *testing.T) {
	g := benchGraph(80)
	cfg := DefaultConfig()
	cfg.Workers = 1
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastIter := make(map[int]int)
	calls := 0
	res := m.RunContext(context.Background(), WithProgress(func(class, iter int, rho float64) {
		calls++
		if class < 0 || class >= g.Q() {
			t.Fatalf("progress class %d out of range", class)
		}
		if iter != lastIter[class]+1 {
			t.Fatalf("class %d iteration jumped %d -> %d", class, lastIter[class], iter)
		}
		lastIter[class] = iter
		if rho < 0 {
			t.Fatalf("negative residual %g", rho)
		}
	}))
	wantCalls := 0
	for _, cr := range res.Classes {
		wantCalls += cr.Iterations
		if lastIter[cr.Class] != cr.Iterations {
			t.Errorf("class %d: progress saw %d iterations, result says %d",
				cr.Class, lastIter[cr.Class], cr.Iterations)
		}
	}
	if calls != wantCalls {
		t.Errorf("progress calls = %d, want %d", calls, wantCalls)
	}
}

func TestRunWarmContextCancel(t *testing.T) {
	g := benchGraph(120)
	cfg := slowConfig(1)
	cfg.ICAUpdate = false
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A bounded cold run provides the warm start.
	coldCfg := cfg
	coldCfg.MaxIterations = 5
	mCold, err := New(g, coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := mCold.Run()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := m.RunWarmContext(ctx, prev, WithProgress(func(class, iter int, rho float64) {
		if iter >= 2 {
			cancel()
		}
	}))
	if !errors.Is(res.Stopped, context.Canceled) || res.Reason != ReasonCanceled {
		t.Fatalf("warm cancel: Stopped=%v Reason=%v", res.Stopped, res.Reason)
	}
	if pred := res.Predict(); len(pred) != g.N() {
		t.Errorf("Predict len = %d", len(pred))
	}
}

func TestRunPublishesRegistryAggregates(t *testing.T) {
	before := obs.Default().Counter("tmark_runs_total").Load()
	itersBefore := obs.Default().Counter("tmark_iterations_total").Load()
	g := benchGraph(60)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if got := obs.Default().Counter("tmark_runs_total").Load(); got != before+1 {
		t.Errorf("tmark_runs_total %d -> %d, want +1", before, got)
	}
	if got := obs.Default().Counter("tmark_iterations_total").Load(); got <= itersBefore {
		t.Errorf("tmark_iterations_total did not grow: %d -> %d", itersBefore, got)
	}
}

func TestValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Workers validated")
	}
}

func TestReasonStrings(t *testing.T) {
	for r, want := range map[Reason]string{
		ReasonUnknown:       "unknown",
		ReasonConverged:     "converged",
		ReasonMaxIterations: "max-iterations",
		ReasonCanceled:      "canceled",
		ReasonDeadline:      "deadline",
	} {
		if got := r.String(); got != want {
			t.Errorf("Reason(%d).String() = %q, want %q", r, got, want)
		}
	}
}
