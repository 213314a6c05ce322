package tmark

import (
	"math/rand"
	"testing"

	"tmark/internal/vec"
)

// With the ICA update disabled the reseed is irrelevant: stepping the
// oracle by hand reproduces RunClass.
func TestStepMatchesSolveClass(t *testing.T) {
	g := paperGraph()
	cfg := DefaultConfig()
	cfg.ICAUpdate = false
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := m.RunClass(0)

	o := newOracle(m)
	l, _ := m.seedVector(0)
	s := o.newState(vec.Clone(l), vec.Uniform(g.M()), l)
	for it := 0; it < want.Iterations; it++ {
		o.step(&s)
	}
	if d := vec.Diff1(s.x, want.X); d > 1e-12 {
		t.Errorf("manual stepping diverged from RunClass: %v", d)
	}
	if d := vec.Diff1(s.z, want.Z); d > 1e-12 {
		t.Errorf("manual z diverged: %v", d)
	}
}

// The lockstep run with ICA must stay inside the simplex for every class,
// converge on the worked example, and keep training labels correct.
func TestLockstepRunInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 4+rng.Intn(12), 1+rng.Intn(3), 2+rng.Intn(3))
		cfg := DefaultConfig()
		cfg.Alpha = 0.1 + 0.8*rng.Float64()
		cfg.Gamma = rng.Float64()
		cfg.Lambda = 0.3 + 0.7*rng.Float64()
		m, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		for _, cr := range res.Classes {
			if !vec.IsStochastic(cr.X, 1e-7) {
				t.Fatalf("trial %d: lockstep X left simplex", trial)
			}
			if !vec.IsStochastic(cr.Z, 1e-7) {
				t.Fatalf("trial %d: lockstep Z left simplex", trial)
			}
			if cr.Iterations == 0 || len(cr.Trace) != cr.Iterations {
				t.Fatalf("trial %d: inconsistent iteration bookkeeping", trial)
			}
		}
	}
}

// seedScores is every class's seed vector, the scores a reseed test
// starts from.
func seedScores(m *Model) []vec.Vector {
	xs := make([]vec.Vector, m.graph.Q())
	for c := range xs {
		xs[c], _ = m.seedVector(c)
	}
	return xs
}

// Cross-class exclusivity: after a reseed, an unlabelled node may carry
// pseudo-seed mass in at most one class.
func TestIcaReseedAllExclusive(t *testing.T) {
	g := paperGraph()
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := g.Q()
	xs := seedScores(m)
	// Give p3 (unlabelled) high confidence in both classes; only its
	// argmax class may seed it.
	xs[0][2] = 0.4
	xs[1][2] = 0.5
	ls := reseedClasses(t, m, xs)
	seeded := 0
	for c := 0; c < q; c++ {
		if ls[c][2] > 0 {
			seeded++
			if c != 1 {
				t.Errorf("p3 seeded class %d, want its argmax class 1", c)
			}
		}
	}
	if seeded > 1 {
		t.Errorf("p3 seeded %d classes, want at most 1", seeded)
	}
	for c := 0; c < q; c++ {
		if !vec.IsStochastic(ls[c], 1e-12) {
			t.Errorf("class %d reseeded l not a distribution: %v", c, ls[c])
		}
	}
}

// Labelled nodes never become pseudo-seeds of a different class.
func TestIcaReseedAllRespectsLabels(t *testing.T) {
	g := paperGraph()
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	xs := seedScores(m)
	// p2 is labelled CV; even with huge DM confidence it must not seed DM.
	xs[0][1] = 0.99
	ls := reseedClasses(t, m, xs)
	if ls[0][1] != 0 {
		t.Errorf("labelled node crossed classes in reseed")
	}
	if ls[1][1] == 0 {
		t.Errorf("labelled node lost its own-class seed")
	}
}

// LiftedProbabilities keeps the argmax of Probabilities but increases row
// contrast, and its rows are distributions.
func TestLiftedProbabilities(t *testing.T) {
	res := func() *Result {
		m, err := New(paperGraph(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m.Run()
	}()
	raw := res.Probabilities()
	lifted := res.LiftedProbabilities()
	for i := 0; i < raw.Rows; i++ {
		rawRow, liftRow := raw.Row(i), lifted.Row(i)
		if vec.Argmax(rawRow) != vec.Argmax(liftRow) {
			t.Errorf("node %d: lift changed the argmax", i)
		}
		if !vec.IsStochastic(liftRow, 1e-9) {
			t.Errorf("node %d: lifted row not a distribution: %v", i, liftRow)
		}
		rawGap := rawRow[vec.Argmax(rawRow)] - minOf(rawRow)
		liftGap := liftRow[vec.Argmax(liftRow)] - minOf(liftRow)
		if liftGap+1e-12 < rawGap {
			t.Errorf("node %d: lift reduced contrast (%v -> %v)", i, rawGap, liftGap)
		}
	}
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// A uniform row (no information) survives the lift unchanged rather than
// becoming NaN.
func TestLiftedProbabilitiesUniformRow(t *testing.T) {
	r := &Result{n: 2, m: 1, q: 2}
	r.Classes = []ClassResult{
		{Class: 0, X: vec.Vector{0.5, 0.5}},
		{Class: 1, X: vec.Vector{0.5, 0.5}},
	}
	p := r.LiftedProbabilities()
	for i := 0; i < 2; i++ {
		if !vec.IsStochastic(p.Row(i), 1e-12) {
			t.Errorf("uniform row mishandled: %v", p.Row(i))
		}
	}
}

// The CSR sparse feature channel must reproduce the dense-sparsified
// channel's solution exactly.
func TestSparseFeatureChannelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomGraph(rng, 25, 2, 3)
	cfg := DefaultConfig()
	cfg.FeatureTopK = 6 // exercises the CSR path
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	for _, cr := range res.Classes {
		if !vec.IsStochastic(cr.X, 1e-8) {
			t.Fatalf("sparse-channel X left simplex")
		}
	}
	// A second model over the same graph and config must agree exactly
	// (the CSR construction is deterministic).
	m2, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2 := m2.Run()
	for c := range res.Classes {
		if vec.Diff1(res.Classes[c].X, res2.Classes[c].X) != 0 {
			t.Fatalf("sparse channel not deterministic")
		}
	}
}
