package tmark

import (
	"math"
	"math/rand"
	"testing"

	"tmark/internal/dataset"
	"tmark/internal/hin"
	"tmark/internal/vec"
)

// paperGraph builds the Section 3.2/4.3 worked example: four publications,
// relations co-author / citation / same-conference, classes DM and CV,
// p1 labelled DM, p2 labelled CV. Features follow the worked cosine matrix
// C (p1~p4, p2~p3).
func paperGraph() *hin.Graph {
	g := hin.New("DM", "CV")
	p1 := g.AddNode("p1", []float64{1, 0})
	p2 := g.AddNode("p2", []float64{0, 1})
	p3 := g.AddNode("p3", []float64{0, 1})
	p4 := g.AddNode("p4", []float64{1, 0})
	co := g.AddRelation("co-author", false)
	cite := g.AddRelation("citation", true)
	conf := g.AddRelation("same-conference", false)
	g.AddEdge(co, p1, p2)
	g.AddEdge(cite, p3, p2)
	g.AddEdge(cite, p3, p4)
	g.AddEdge(cite, p4, p1)
	g.AddEdge(conf, p2, p3)
	g.SetLabels(p1, 0)
	g.SetLabels(p2, 1)
	return g
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"alpha zero", func(c *Config) { c.Alpha = 0 }},
		{"alpha one", func(c *Config) { c.Alpha = 1 }},
		{"gamma negative", func(c *Config) { c.Gamma = -0.1 }},
		{"gamma above one", func(c *Config) { c.Gamma = 1.1 }},
		{"lambda zero", func(c *Config) { c.Lambda = 0 }},
		{"epsilon zero", func(c *Config) { c.Epsilon = 0 }},
		{"no iterations", func(c *Config) { c.MaxIterations = 0 }},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestBeta(t *testing.T) {
	cfg := Config{Alpha: 0.8, Gamma: 0.5}
	if got := cfg.Beta(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Beta = %v, want 0.1", got)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(hin.New(), DefaultConfig()); err == nil {
		t.Errorf("empty graph should be rejected")
	}
	g := hin.New("c")
	g.AddNode("a", nil)
	if _, err := New(g, DefaultConfig()); err == nil {
		t.Errorf("graph without labels should be rejected")
	}
	bad := DefaultConfig()
	bad.Alpha = 2
	if _, err := New(paperGraph(), bad); err == nil {
		t.Errorf("bad config should be rejected")
	}
	noClass := &hin.Graph{Nodes: []hin.Node{{Labels: nil}}}
	if _, err := New(noClass, DefaultConfig()); err == nil {
		t.Errorf("graph without classes should be rejected")
	}
}

// A NaN or infinite feature would turn the feature channel into NaN: the
// top-K channel would store nothing while the solve reported convergence,
// and the dense channel would fault. New refuses the graph instead.
func TestNewRejectsNonFiniteFeatures(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for _, topK := range []int{16, 0} {
			g := dataset.DBLP(dataset.DefaultDBLPConfig(1))
			g.Nodes[5].Features[0] = v
			cfg := DefaultConfig()
			cfg.FeatureTopK = topK
			if _, err := New(g, cfg); err == nil {
				t.Errorf("feature %v, FeatureTopK=%d: New accepted a non-finite feature", v, topK)
			}
		}
	}
}

// The worked example of Section 4.3: p3 must score higher for CV, p4 for
// DM, and every stationary vector must be a probability distribution.
func TestWorkedExampleClassification(t *testing.T) {
	g := paperGraph()
	cfg := DefaultConfig()
	cfg.Alpha = 0.8
	cfg.Gamma = 0.5
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Irreducible() {
		t.Errorf("worked example should be irreducible")
	}
	res := m.Run()
	if !res.Converged() {
		t.Fatalf("worked example should converge")
	}
	dm, cv := res.Classes[0], res.Classes[1]
	for _, cr := range []ClassResult{dm, cv} {
		if !vec.IsStochastic(cr.X, 1e-8) {
			t.Errorf("class %d X not stochastic: sum=%v", cr.Class, vec.Sum(cr.X))
		}
		if !vec.IsStochastic(cr.Z, 1e-8) {
			t.Errorf("class %d Z not stochastic: sum=%v", cr.Class, vec.Sum(cr.Z))
		}
	}
	// Ground truth of the example: p3 is CV, p4 is DM.
	if cv.X[2] <= dm.X[2] {
		t.Errorf("p3 should lean CV: dm=%v cv=%v", dm.X[2], cv.X[2])
	}
	if dm.X[3] <= cv.X[3] {
		t.Errorf("p4 should lean DM: dm=%v cv=%v", dm.X[3], cv.X[3])
	}
	pred := res.Predict()
	if pred[0] != 0 || pred[1] != 1 || pred[2] != 1 || pred[3] != 0 {
		t.Errorf("Predict = %v, want [0 1 1 0]", pred)
	}
}

func TestSeedVector(t *testing.T) {
	g := paperGraph()
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, seeds := m.seedVector(0)
	if seeds != 1 {
		t.Fatalf("DM seeds = %d, want 1", seeds)
	}
	if l[0] != 1 || vec.Sum(l) != 1 {
		t.Errorf("seed vector = %v, want basis at p1", l)
	}
	// A class without labelled nodes gets the uniform fallback.
	g2 := paperGraph()
	g2.AddClass("empty")
	m2, err := New(g2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l2, seeds2 := m2.seedVector(2)
	if seeds2 != 0 {
		t.Errorf("empty class seeds = %d, want 0", seeds2)
	}
	for _, v := range l2 {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("empty class seed vector should be uniform, got %v", l2)
		}
	}
}

// Theorem 1: every iterate stays in the simplex, so traces never produce a
// non-stochastic X/Z; we check across random graphs and configs.
func TestIteratesStayInSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 3+rng.Intn(15), 1+rng.Intn(4), 2+rng.Intn(3))
		cfg := DefaultConfig()
		cfg.Alpha = 0.05 + 0.9*rng.Float64()
		cfg.Gamma = rng.Float64()
		cfg.MaxIterations = 5 + rng.Intn(40)
		m, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		for _, cr := range res.Classes {
			if !vec.IsStochastic(cr.X, 1e-7) {
				t.Fatalf("trial %d class %d: X left simplex (sum %v)", trial, cr.Class, vec.Sum(cr.X))
			}
			if !vec.IsStochastic(cr.Z, 1e-7) {
				t.Fatalf("trial %d class %d: Z left simplex (sum %v)", trial, cr.Class, vec.Sum(cr.Z))
			}
		}
	}
}

// Theorem 2: on an irreducible network the stationary distributions are
// strictly positive.
func TestStationaryPositivity(t *testing.T) {
	g := paperGraph()
	cfg := DefaultConfig()
	cfg.ICAUpdate = false // pure tensor chain, matching the theorem setting
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	for _, cr := range res.Classes {
		for i, v := range cr.X {
			if v <= 0 {
				t.Errorf("class %d: x[%d] = %v, want > 0 (Theorem 2)", cr.Class, i, v)
			}
		}
		for k, v := range cr.Z {
			if v <= 0 {
				t.Errorf("class %d: z[%d] = %v, want > 0 (Theorem 2)", cr.Class, k, v)
			}
		}
	}
}

// Theorem 3 (uniqueness): RunClass is deterministic and the coupled
// multi-class Run agrees with the per-class solves on the worked
// example.
func TestRunMatchesRunClass(t *testing.T) {
	g := paperGraph()
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	for c := 0; c < g.Q(); c++ {
		single := m.RunClass(c)
		if vec.Diff1(single.X, res.Classes[c].X) > 1e-12 {
			t.Errorf("class %d: Run and RunClass X differ", c)
		}
		if vec.Diff1(single.Z, res.Classes[c].Z) > 1e-12 {
			t.Errorf("class %d: Run and RunClass Z differ", c)
		}
	}
}

func TestConvergenceTraceShrinks(t *testing.T) {
	g := paperGraph()
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cr := m.RunClass(0)
	if !cr.Converged {
		t.Fatalf("worked example class should converge, trace=%v", cr.Trace)
	}
	if len(cr.Trace) != cr.Iterations {
		t.Errorf("trace length %d != iterations %d", len(cr.Trace), cr.Iterations)
	}
	last := cr.Trace[len(cr.Trace)-1]
	if last >= cr.Trace[0] && len(cr.Trace) > 1 {
		t.Errorf("residual did not shrink: first %v last %v", cr.Trace[0], last)
	}
	if last >= DefaultConfig().Epsilon {
		t.Errorf("converged trace must end below epsilon, got %v", last)
	}
}

// Gamma=1 must reduce to the feature channel plus restart: the relational
// tensor contributes nothing.
func TestGammaOneIgnoresRelations(t *testing.T) {
	g := paperGraph()
	cfg := DefaultConfig()
	cfg.Gamma = 1
	cfg.ICAUpdate = false
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	// With features [1,0] for p1,p4 and [0,1] for p2,p3, the DM walk from
	// p1 should give p4 strictly more mass than p2 or p3.
	dm := res.Classes[0]
	if dm.X[3] <= dm.X[1] || dm.X[3] <= dm.X[2] {
		t.Errorf("feature-only DM walk should favour p4: %v", dm.X)
	}
}

// Gamma=0 must ignore the features entirely: scrambling features cannot
// change the result.
func TestGammaZeroIgnoresFeatures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Gamma = 0
	g1 := paperGraph()
	m1, err := New(g1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2 := paperGraph()
	for i := range g2.Nodes {
		g2.Nodes[i].Features = []float64{float64(i), 1}
	}
	m2, err := New(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := m1.Run(), m2.Run()
	for c := range r1.Classes {
		if vec.Diff1(r1.Classes[c].X, r2.Classes[c].X) > 1e-12 {
			t.Errorf("gamma=0 must be feature-independent (class %d)", c)
		}
	}
}

// The ICA update should only ever help confident nodes join the seed set;
// with Lambda=1 (accept only ties with the max) results stay close to the
// non-ICA solve on the tiny example.
func TestICAUpdateChangesSeeds(t *testing.T) {
	g := paperGraph()
	on := DefaultConfig()
	off := DefaultConfig()
	off.ICAUpdate = false
	mOn, err := New(g, on)
	if err != nil {
		t.Fatal(err)
	}
	mOff, err := New(g, off)
	if err != nil {
		t.Fatal(err)
	}
	rOn, rOff := mOn.Run(), mOff.Run()
	// Both must classify the example correctly.
	for name, r := range map[string]*Result{"ica": rOn, "plain": rOff} {
		pred := r.Predict()
		if pred[2] != 1 || pred[3] != 0 {
			t.Errorf("%s: predictions wrong: %v", name, pred)
		}
	}
}

func TestRunClassOutOfRangePanics(t *testing.T) {
	m, err := New(paperGraph(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("RunClass(5) should panic")
		}
	}()
	m.RunClass(5)
}

// randomGraph builds a labelled random HIN for property tests.
func randomGraph(rng *rand.Rand, n, m, q int) *hin.Graph {
	g := hin.New()
	for c := 0; c < q; c++ {
		g.AddClass(string(rune('A' + c)))
	}
	for i := 0; i < n; i++ {
		f := make([]float64, 4)
		for d := range f {
			f[d] = rng.Float64()
		}
		g.AddNode("", f)
	}
	for k := 0; k < m; k++ {
		g.AddRelation(string(rune('r'))+string(rune('0'+k)), rng.Intn(2) == 0)
		edges := 1 + rng.Intn(3*n)
		for e := 0; e < edges; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(k, u, v)
			}
		}
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.4 {
			g.SetLabels(i, rng.Intn(q))
		}
	}
	// Guarantee at least one labelled node.
	g.SetLabels(0, 0)
	return g
}
