package tmark

// The differential suite: seeded random HINs covering the edge cases of
// the model — dangling-heavy, disconnected, a single relation, q = 1, a
// class with no labelled node, no feature channel, dense and top-K W —
// on which every engine path must equal the sequential oracle bitwise
// and keep every X and Z on the simplex (Theorem 1): Run cold, warm and
// warm from the equilibrium restart; RunClass; and
// SolveColumns at every width, ICA columns included. Accelerated columns
// must equal their own width-1 solve bitwise and predict what the exact
// tier predicts. On irreducible networks the cold run is strictly
// positive (Theorem 2), and without ICA a warm start from a foreign
// equilibrium, plain or accelerated, lands on the cold fixed point
// (Theorem 3).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tmark/internal/hin"
	"tmark/internal/vec"
)

// hinShape is one family of random networks.
type hinShape struct {
	name       string
	n, m, q    int
	edges      int     // edges per node per relation
	sources    float64 // fraction of nodes that may start an edge; the rest dangle
	components int     // disconnected node blocks (edges stay inside one)
	emptyClass bool    // the last class gets no labelled node
	gamma      float64
	topK       int
}

var hinShapes = []hinShape{
	{name: "baseline", n: 90, m: 3, q: 3, edges: 3, sources: 1, components: 1, gamma: 0.6},
	{name: "dangling-heavy", n: 80, m: 3, q: 3, edges: 2, sources: 0.15, components: 1, gamma: 0.6},
	{name: "disconnected", n: 90, m: 2, q: 3, edges: 3, sources: 1, components: 4, gamma: 0.6, topK: 5},
	{name: "single-relation", n: 70, m: 1, q: 3, edges: 4, sources: 1, components: 1, gamma: 0.5},
	{name: "one-class", n: 60, m: 3, q: 1, edges: 3, sources: 1, components: 1, gamma: 0.6},
	{name: "empty-class", n: 80, m: 3, q: 4, edges: 3, sources: 1, components: 1, gamma: 0.6, emptyClass: true},
	{name: "gamma-zero", n: 80, m: 3, q: 3, edges: 3, sources: 1, components: 1, gamma: 0},
	{name: "top-k", n: 100, m: 2, q: 3, edges: 3, sources: 1, components: 1, gamma: 0.8, topK: 6},
}

// randomHIN draws one network of the shape: class-biased features,
// directed and undirected relations with duplicate edges, mostly
// homophilous edges, and a few multi-labelled nodes.
func randomHIN(rng *rand.Rand, s hinShape) *hin.Graph {
	classes := make([]string, s.q)
	for c := range classes {
		classes[c] = fmt.Sprintf("c%d", c)
	}
	g := hin.New(classes...)
	for i := 0; i < s.n; i++ {
		f := make([]float64, 3*s.q)
		for d := 0; d < 4; d++ {
			f[(i%s.q)*3+rng.Intn(3)] += rng.Float64()
		}
		f[rng.Intn(len(f))] += 0.5 // background noise across classes
		g.AddNode("", f)
	}
	block := (s.n + s.components - 1) / s.components
	sources := int(math.Max(1, s.sources*float64(s.n)))
	for k := 0; k < s.m; k++ {
		g.AddRelation(fmt.Sprintf("r%d", k), k%2 == 1)
		for e := 0; e < s.edges*s.n; e++ {
			u := rng.Intn(sources) * s.n / sources // dangling-heavy: few sources
			lo := u / block * block
			hi := min(lo+block, s.n)
			v := lo + rng.Intn(hi-lo)
			if rng.Float64() < 0.6 { // homophily inside the block
				v = lo + (v-lo)/s.q*s.q + u%s.q
				if v >= hi {
					v = u
				}
			}
			if u != v {
				g.AddEdge(k, u, v)
			}
		}
	}
	labelled := s.q
	if s.emptyClass {
		labelled--
	}
	for i := 0; i < s.n; i++ {
		if c := i % s.q; c < labelled && rng.Float64() < 0.3 {
			if o := (c + 1) % s.q; o < labelled && rng.Float64() < 0.1 {
				g.SetLabels(i, c, o)
			} else {
				g.SetLabels(i, c)
			}
		}
	}
	g.SetLabels(0, 0)
	return g
}

func TestDifferentialRandomHINs(t *testing.T) {
	workerCounts := []int{1, 4}
	ran, positivityChecked := 0, 0
	for si, shape := range hinShapes {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(t *testing.T) {
				ran++
				g := randomHIN(rand.New(rand.NewSource(int64(100+si))), shape)
				cfg := DefaultConfig()
				cfg.Gamma = shape.gamma
				cfg.FeatureTopK = shape.topK
				cfg.Epsilon = 1e-12
				cfg.MaxIterations = 150
				cfg.Workers = workers
				for _, ica := range []bool{true, false} {
					cfg.ICAUpdate = ica
					if differential(t, fmt.Sprintf("ica=%v", ica), g, cfg) {
						positivityChecked++
					}
				}
			})
		}
	}
	// A full run (no -run filter on the subtests) must reach the
	// Theorem 2 check at least once, so it is never vacuous.
	if ran == len(hinShapes)*len(workerCounts) && positivityChecked == 0 {
		t.Fatal("no shape is irreducible: Theorem 2 was never checked")
	}
}

// differential runs every engine path on one network and configuration
// against the oracle. It reports whether the network was irreducible, so
// the Theorem 2 check ran.
func differential(t *testing.T, label string, g *hin.Graph, cfg Config) bool {
	t.Helper()
	ctx := context.Background()
	m := mustModel(t, g, cfg)
	o := newOracle(m)
	want := o.run(nil)
	check := func(leg string, got *Result) {
		t.Helper()
		assertResultsBitwise(t, label+" "+leg, got, want)
		assertOnSimplex(t, label+" "+leg, got)
	}
	cold := m.RunContext(ctx)
	check("cold", cold)
	if m.Irreducible() {
		assertPositive(t, label+" cold", cold)
	}

	// Warm legs start from a capped solve of the same network.
	capCfg := cfg
	capCfg.MaxIterations = 4
	prev := mustModel(t, g, capCfg).Run()
	for _, eq := range []bool{false, true} {
		got := m.RunWarmContext(ctx, prev, WithEquilibriumRestart(eq))
		ref := o.run(warmFrom(m, prev, eq))
		leg := fmt.Sprintf("%s warm eqRestart=%v", label, eq)
		assertResultsBitwise(t, leg, got, ref)
		assertOnSimplex(t, leg, got)
	}

	// Theorem 3: the fixed point is unique, so a warm start from a
	// foreign equilibrium (α = 0.3, γ′ = 1 − γ) lands on the cold one.
	// Not with ICA: its pseudo-seed set depends on the iteration path.
	if !cfg.ICAUpdate {
		foreignCfg := cfg
		foreignCfg.Alpha, foreignCfg.Gamma = 0.3, 1-cfg.Gamma
		foreign := mustModel(t, g, foreignCfg).Run()
		for _, acc := range []bool{false, true} {
			got := m.RunWarmContext(ctx, foreign, WithAcceleration(acc))
			assertNearFixedPoint(t, fmt.Sprintf("%s foreign warm accelerated=%v", label, acc), got, cold, 1e-9)
		}
	}

	for c := 0; c < g.Q(); c++ {
		got, ref := m.RunClass(c), o.runClass(c)
		assertClassBitwise(t, fmt.Sprintf("%s RunClass(%d)", label, c), &got, &ref)
		assertColumnOnSimplex(t, fmt.Sprintf("%s RunClass(%d)", label, c), got.X, got.Z)
	}

	// One query per class (seeded by its labels, or by one node for an
	// empty class) plus an explicit restart vector, alternating ICA.
	queries := make([]ColumnQuery, 0, g.Q()+1)
	for c := 0; c < g.Q(); c++ {
		seeds := classSeeds(g, c)
		if len(seeds) == 0 {
			seeds = []int{c}
		}
		queries = append(queries, ColumnQuery{Seeds: seeds, ICA: c%2 == 0})
	}
	restart := vec.New(g.N())
	for i := range restart {
		restart[i] = float64(i % 3)
	}
	queries = append(queries, ColumnQuery{Restart: restart, ICA: true})
	refs := make([]ColumnResult, len(queries))
	for i, q := range queries {
		refs[i] = o.solveColumn(t, q)
	}
	for w := 1; w <= len(queries); w++ {
		out, err := m.SolveColumns(ctx, queries[:w])
		if err != nil {
			t.Fatalf("%s: SolveColumns width %d: %v", label, w, err)
		}
		for i := range out {
			assertColumnBitwise(t, fmt.Sprintf("%s width %d column %d", label, w, i), &out[i], &refs[i])
			assertColumnOnSimplex(t, fmt.Sprintf("%s width %d column %d", label, w, i), out[i].X, out[i].Z)
		}
	}

	// The accelerated tier: every column equals its own width-1 solve,
	// and the class run predicts what the exact run predicts.
	accelQueries := make([]ColumnQuery, len(queries))
	for i, q := range queries {
		q.Quality = QualityAccelerated
		accelQueries[i] = q
	}
	batch, err := m.SolveColumns(ctx, accelQueries)
	if err != nil {
		t.Fatalf("%s: accelerated SolveColumns: %v", label, err)
	}
	for i, q := range accelQueries {
		solo, err := m.SolveColumn(ctx, q)
		if err != nil {
			t.Fatalf("%s: accelerated SolveColumn: %v", label, err)
		}
		assertColumnBitwise(t, fmt.Sprintf("%s accelerated column %d", label, i), &batch[i], &solo)
		assertColumnOnSimplex(t, fmt.Sprintf("%s accelerated column %d", label, i), batch[i].X, batch[i].Z)
	}
	accelRun := m.RunContext(ctx, WithAcceleration(true))
	assertOnSimplex(t, label+" accelerated run", accelRun)
	assertSamePredictions(t, label+" accelerated run", accelRun, want)
	return m.Irreducible()
}

// assertPositive checks Theorem 2 on every class of a result: every
// entry of X and Z is strictly positive.
func assertPositive(t *testing.T, label string, res *Result) {
	t.Helper()
	for c := range res.Classes {
		for name, v := range map[string]vec.Vector{"X": res.Classes[c].X, "Z": res.Classes[c].Z} {
			for i, p := range v {
				if !(p > 0) {
					t.Fatalf("%s class %d: %s[%d] = %v, want > 0 on an irreducible network", label, c, name, i, p)
				}
			}
		}
	}
}

// assertNearFixedPoint fails unless every class's X and Z lie within
// tol of want's in L1.
func assertNearFixedPoint(t *testing.T, label string, got, want *Result, tol float64) {
	t.Helper()
	for c := range want.Classes {
		if d := vec.Diff1(got.Classes[c].X, want.Classes[c].X); !(d <= tol) {
			t.Fatalf("%s class %d: X is %v from the cold fixed point in L1, want ≤ %v", label, c, d, tol)
		}
		if d := vec.Diff1(got.Classes[c].Z, want.Classes[c].Z); !(d <= tol) {
			t.Fatalf("%s class %d: Z is %v from the cold fixed point in L1, want ≤ %v", label, c, d, tol)
		}
	}
}

// assertColumnBitwise fails unless two column solutions are bitwise
// identical in every numeric field.
func assertColumnBitwise(t *testing.T, label string, got, want *ColumnResult) {
	t.Helper()
	g := ClassResult{X: got.X, Z: got.Z, Restart: got.Restart, Iterations: got.Iterations,
		Converged: got.Converged, Trace: got.Trace, Seeds: got.Seeds}
	w := ClassResult{X: want.X, Z: want.Z, Restart: want.Restart, Iterations: want.Iterations,
		Converged: want.Converged, Trace: want.Trace, Seeds: want.Seeds}
	assertClassBitwise(t, label, &g, &w)
}

// assertOnSimplex checks Theorem 1 on every class of a result.
func assertOnSimplex(t *testing.T, label string, res *Result) {
	t.Helper()
	for c := range res.Classes {
		assertColumnOnSimplex(t, fmt.Sprintf("%s class %d", label, c), res.Classes[c].X, res.Classes[c].Z)
	}
}

func assertColumnOnSimplex(t *testing.T, label string, x, z vec.Vector) {
	t.Helper()
	for name, v := range map[string]vec.Vector{"X": x, "Z": z} {
		for i, p := range v {
			if !(p >= 0) {
				t.Fatalf("%s: %s[%d] = %v off the simplex", label, name, i, p)
			}
		}
		if !vec.IsStochastic(v, 1e-9) {
			t.Fatalf("%s: %s sums to %v, off the simplex", label, name, vec.Sum(v))
		}
	}
}

// assertSamePredictions compares the argmax class of every node whose
// reference scores are not tied: a near-tie (top two classes within
// 1e-7) is decided by rounding, not by the model.
func assertSamePredictions(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gp, wp := got.Predict(), want.Predict()
	scores := want.Scores()
	for i := range wp {
		row := scores.Row(i)
		best, second := math.Inf(-1), math.Inf(-1)
		for _, v := range row {
			if v > best {
				best, second = v, best
			} else if v > second {
				second = v
			}
		}
		if best-second > 1e-7 && gp[i] != wp[i] {
			t.Errorf("%s: node %d predicted %d, want %d", label, i, gp[i], wp[i])
		}
	}
}
