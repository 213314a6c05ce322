package tmark

// Tests of the quality tiers: the extrapolated power method (identical
// predictions, fewer committed iterations) and the linearized fast tier
// (approximate, one sparse solve). The chaos tests at the bottom poison
// the extrapolation proposals and prove the fallback contract: a
// rejected — or never-scattered — candidate leaves the run bitwise
// identical to plain iteration.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tmark/internal/fault"
	"tmark/internal/vec"
)

// accelConfig mixes slowly (small restart weight, rate ≈ 1−α) so plain
// iteration needs hundreds of passes and extrapolation has room to pay.
// ICA stays configurable: the chaos bitwise tests need it off so classes
// stay independent under desynchronised rejections.
func accelConfig(ica bool, workers int) Config {
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.Gamma = 0
	cfg.ICAUpdate = ica
	cfg.Epsilon = 1e-9
	cfg.MaxIterations = 1000
	cfg.Workers = workers
	return cfg
}

func predictionsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gp, wp := got.Predict(), want.Predict()
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: node %d predicted %d, want %d", label, i, gp[i], wp[i])
		}
	}
}

// The accelerated run must converge with identical predictions in no
// more committed iterations than plain — and, on this slow-mixing
// configuration, strictly fewer, with accepted jumps on the record.
func TestAccelerationConvergesFasterSamePredictions(t *testing.T) {
	g := benchGraph(120)
	for _, ica := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("ica=%v workers=%d", ica, workers)
			m := mustModel(t, g, accelConfig(ica, workers))
			plain := m.RunContext(context.Background())

			var st RunStats
			fast := m.RunContext(context.Background(), WithAcceleration(true), WithStats(&st))
			if fast.Reason != plain.Reason {
				t.Fatalf("%s: reason %v, want %v", label, fast.Reason, plain.Reason)
			}
			var pi, fi int
			for c := range plain.Classes {
				if !plain.Classes[c].Converged || !fast.Classes[c].Converged {
					t.Fatalf("%s: class %d did not converge (plain=%v accel=%v)",
						label, c, plain.Classes[c].Converged, fast.Classes[c].Converged)
				}
				pi += plain.Classes[c].Iterations
				fi += fast.Classes[c].Iterations
				if fast.Classes[c].Iterations > plain.Classes[c].Iterations {
					t.Errorf("%s: class %d accel took %d iterations, plain %d",
						label, c, fast.Classes[c].Iterations, plain.Classes[c].Iterations)
				}
			}
			if fi >= pi {
				t.Errorf("%s: accel total %d iterations, plain %d — no speedup", label, fi, pi)
			}
			if st.AccelProposed == 0 || st.AccelAccepted == 0 {
				t.Errorf("%s: counters %d proposed / %d accepted, want both > 0",
					label, st.AccelProposed, st.AccelAccepted)
			}
			if st.AccelAccepted+st.AccelRejected != st.AccelProposed {
				t.Errorf("%s: %d proposed ≠ %d accepted + %d rejected",
					label, st.AccelProposed, st.AccelAccepted, st.AccelRejected)
			}
			predictionsEqual(t, label, fast, plain)
		}
	}
}

// On the default (fast-mixing) configuration acceleration may win little,
// but it must never lose iterations or change predictions.
func TestAccelerationDefaultConfigNeverWorse(t *testing.T) {
	g := benchGraph(120)
	m := mustModel(t, g, ckConfig(true, 1))
	plain := m.RunContext(context.Background())
	fast := m.RunContext(context.Background(), WithAcceleration(true))
	for c := range plain.Classes {
		if fast.Classes[c].Iterations > plain.Classes[c].Iterations {
			t.Errorf("class %d: accel %d iterations, plain %d",
				c, fast.Classes[c].Iterations, plain.Classes[c].Iterations)
		}
	}
	predictionsEqual(t, "default-config", fast, plain)
}

// Per-query Quality overrides and the run-level option must agree: a
// QualityAccelerated query equals a WithAcceleration run bitwise, takes
// no more iterations than exact, and keeps the exact argmax.
func TestSolveColumnQualityTiers(t *testing.T) {
	g := queryGraph()
	m := mustModel(t, g, accelConfig(false, 1))
	q := ColumnQuery{Seeds: classSeeds(g, 0)}

	exact, err := m.SolveColumn(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	qa := q
	qa.Quality = QualityAccelerated
	accel, err := m.SolveColumn(context.Background(), qa)
	if err != nil {
		t.Fatal(err)
	}
	viaOption, err := m.SolveColumn(context.Background(), q, WithAcceleration(true))
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "accel X vs WithAcceleration X", accel.X, viaOption.X)
	if !exact.Converged || !accel.Converged {
		t.Fatalf("convergence: exact=%v accel=%v", exact.Converged, accel.Converged)
	}
	if accel.Iterations >= exact.Iterations {
		t.Errorf("accel %d iterations, exact %d — no speedup on slow-mixing config",
			accel.Iterations, exact.Iterations)
	}
	if vec.Argmax(accel.X) != vec.Argmax(exact.X) {
		t.Errorf("accel argmax %d, exact %d", vec.Argmax(accel.X), vec.Argmax(exact.X))
	}

	qf := q
	qf.Quality = QualityFast
	fast, err := m.SolveColumn(context.Background(), qf)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Converged {
		t.Fatal("fast tier did not converge")
	}
	var mass float64
	for _, v := range fast.X {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("fast tier produced invalid probability %v", v)
		}
		mass += v
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Fatalf("fast tier X mass %v, want 1", mass)
	}
	if len(fast.Z) != g.M() {
		t.Fatalf("fast tier Z length %d, want %d", len(fast.Z), g.M())
	}
}

// Tiers mix inside one batch: each query must come back identical to its
// solo solve at the same tier.
func TestSolveColumnsMixedQuality(t *testing.T) {
	g := queryGraph()
	m := mustModel(t, g, accelConfig(false, 2))
	queries := []ColumnQuery{
		{Seeds: classSeeds(g, 0)},
		{Seeds: classSeeds(g, 1), Quality: QualityAccelerated},
		{Seeds: classSeeds(g, 2), Quality: QualityFast},
		{Seeds: classSeeds(g, 3)},
	}
	out, err := m.SolveColumns(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		solo, err := m.SolveColumn(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Converged != solo.Converged || out[i].Iterations != solo.Iterations {
			t.Errorf("query %d: batch %d/%v vs solo %d/%v iterations/converged",
				i, out[i].Iterations, out[i].Converged, solo.Iterations, solo.Converged)
		}
		sameVec(t, fmt.Sprintf("query %d X", i), out[i].X, solo.X)
		sameVec(t, fmt.Sprintf("query %d Z", i), out[i].Z, solo.Z)
	}
}

// The run-level fast tier: every class converges to a valid distribution
// pair and predictions stay close to exact — the frozen-z̄ error bound in
// practice. The golden suite pins the envelope on the reference datasets;
// here a weak sanity floor guards against a broken collapse.
func TestRunApproximate(t *testing.T) {
	g := benchGraph(120)
	m := mustModel(t, g, ckConfig(false, 1))
	exact := m.RunContext(context.Background())
	fast := m.RunContext(context.Background(), WithApproximate(true))
	for c := range fast.Classes {
		cr := &fast.Classes[c]
		if !cr.Converged {
			t.Fatalf("class %d did not converge", c)
		}
		if cr.Iterations == 0 || len(cr.Trace) != cr.Iterations {
			t.Fatalf("class %d iterations %d, trace %d", c, cr.Iterations, len(cr.Trace))
		}
		for _, v := range cr.X {
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("class %d invalid probability %v", c, v)
			}
		}
	}
	ep, fp := exact.Predict(), fast.Predict()
	agree := 0
	for i := range ep {
		if ep[i] == fp[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(ep)); frac < 0.8 {
		t.Errorf("fast tier agrees with exact on %.0f%% of nodes, want ≥ 80%%", frac*100)
	}
}

// WithApproximate overrides WithAcceleration (documented precedence) and
// a per-query QualityExact overrides a run-level WithApproximate.
func TestQualityPrecedence(t *testing.T) {
	g := queryGraph()
	m := mustModel(t, g, accelConfig(false, 1))
	q := ColumnQuery{Seeds: classSeeds(g, 0)}

	exact, err := m.SolveColumn(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	qe := q
	qe.Quality = QualityExact
	viaOverride, err := m.SolveColumn(context.Background(), qe, WithApproximate(true))
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "QualityExact under WithApproximate", viaOverride.X, exact.X)

	fastDirect, err := m.SolveColumn(context.Background(), q, WithApproximate(true))
	if err != nil {
		t.Fatal(err)
	}
	fastBoth, err := m.SolveColumn(context.Background(), q, WithApproximate(true), WithAcceleration(true))
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "approximate precedence over acceleration", fastBoth.X, fastDirect.X)
}

func TestParseQuality(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Quality
	}{{"", QualityDefault}, {"exact", QualityExact}, {"accelerated", QualityAccelerated}, {"fast", QualityFast}} {
		got, err := ParseQuality(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseQuality(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("Quality(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseQuality("best"); err == nil {
		t.Error("unknown quality accepted")
	}
}

// ---------------------------------------------------------------------------
// Chaos: poisoned proposals must leave the run bitwise identical to plain
// iteration. ICA stays off so classes are independent — rejections then
// cannot couple columns, and per-class bitwise equality is exact however
// the rejections land.

// A NaN injected into every proposal dies at the propose-time simplex
// projection: no candidate is ever scattered, no pass is wasted, and the
// run is the plain run bit for bit.
func TestChaosAccelNaNProposalFallsBackBitwise(t *testing.T) {
	g := benchGraph(100)
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("workers=%d", workers)
		m := mustModel(t, g, accelConfig(false, workers))
		ref := m.RunContext(context.Background())

		remove := fault.Inject(fault.AccelPropose, func(args ...any) {
			args[0].([]float64)[0] = math.NaN()
		})
		var st RunStats
		res := m.RunContext(context.Background(), WithAcceleration(true), WithStats(&st))
		remove()

		if st.AccelProposed == 0 {
			t.Fatalf("%s: no proposals fired — nothing was chaos-tested", label)
		}
		if st.AccelAccepted != 0 || st.AccelRejected != st.AccelProposed {
			t.Errorf("%s: counters %d proposed / %d accepted / %d rejected, want all rejected",
				label, st.AccelProposed, st.AccelAccepted, st.AccelRejected)
		}
		assertResultsBitwise(t, label, res, ref)
	}
}

// A finite but worthless candidate (all mass on one node) survives the
// projection, is scattered into the block and rides a full vet pass; the
// monotone-residual vet rejects it, the pre-jump column is restored, and
// the run still finishes bitwise identical to plain — the rejected pass
// committed nothing.
func TestChaosAccelGarbageProposalRejectedInLoop(t *testing.T) {
	g := benchGraph(100)
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("workers=%d", workers)
		m := mustModel(t, g, accelConfig(false, workers))
		ref := m.RunContext(context.Background())

		remove := fault.Inject(fault.AccelPropose, func(args ...any) {
			cand, n := args[0].([]float64), args[1].(int)
			for i := range cand {
				cand[i] = 0
			}
			cand[0] = 1 // x: all mass on node 0
			cand[n] = 1 // z: all mass on relation 0
		})
		var st RunStats
		res := m.RunContext(context.Background(), WithAcceleration(true), WithStats(&st))
		remove()

		if st.AccelProposed == 0 {
			t.Fatalf("%s: no proposals fired", label)
		}
		if st.AccelAccepted != 0 {
			t.Errorf("%s: %d garbage candidates accepted", label, st.AccelAccepted)
		}
		if st.AccelRejected != st.AccelProposed {
			t.Errorf("%s: %d proposed but %d rejected", label, st.AccelProposed, st.AccelRejected)
		}
		assertResultsBitwise(t, label, res, ref)
	}
}

// The same garbage injection through the batched column solver: each
// accelerated query falls back to its plain trajectory, bitwise.
func TestChaosAccelColumnsFallBackBitwise(t *testing.T) {
	g := queryGraph()
	m := mustModel(t, g, accelConfig(false, 2))
	queries := []ColumnQuery{
		{Seeds: classSeeds(g, 0), Quality: QualityAccelerated},
		{Seeds: classSeeds(g, 1)},
		{Seeds: classSeeds(g, 2), Quality: QualityAccelerated},
	}
	plain := make([]ColumnQuery, len(queries))
	for i, q := range queries {
		q.Quality = QualityExact
		plain[i] = q
	}
	ref, err := m.SolveColumns(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}

	remove := fault.Inject(fault.AccelPropose, func(args ...any) {
		cand, n := args[0].([]float64), args[1].(int)
		for i := range cand {
			cand[i] = 0
		}
		cand[0], cand[n] = 1, 1
	})
	defer remove()
	out, err := m.SolveColumns(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].Iterations != ref[i].Iterations || out[i].Converged != ref[i].Converged {
			t.Errorf("query %d: %d/%v vs plain %d/%v iterations/converged",
				i, out[i].Iterations, out[i].Converged, ref[i].Iterations, ref[i].Converged)
		}
		sameVec(t, fmt.Sprintf("query %d X", i), out[i].X, ref[i].X)
		sameVec(t, fmt.Sprintf("query %d Z", i), out[i].Z, ref[i].Z)
		sameVec(t, fmt.Sprintf("query %d trace", i), out[i].Trace, ref[i].Trace)
	}
}
