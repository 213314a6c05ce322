package tmark

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tmark/internal/vec"
)

func solvedExample(t *testing.T) *Result {
	t.Helper()
	m, err := New(paperGraph(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

func TestScoresShape(t *testing.T) {
	res := solvedExample(t)
	s := res.Scores()
	if s.Rows != 4 || s.Cols != 2 {
		t.Fatalf("Scores shape %dx%d, want 4x2", s.Rows, s.Cols)
	}
	if res.N() != 4 || res.M() != 3 || res.Q() != 2 {
		t.Errorf("result dims %d/%d/%d, want 4/3/2", res.N(), res.M(), res.Q())
	}
	// Column c must equal the class's X vector.
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			if s.At(i, c) != res.Classes[c].X[i] {
				t.Fatalf("Scores[%d,%d] != X", i, c)
			}
		}
	}
}

func TestProbabilitiesRowsNormalised(t *testing.T) {
	res := solvedExample(t)
	p := res.Probabilities()
	for i := 0; i < p.Rows; i++ {
		if !vec.IsStochastic(p.Row(i), 1e-9) {
			t.Errorf("row %d not a distribution: %v", i, p.Row(i))
		}
	}
}

func TestPredictMultiLabel(t *testing.T) {
	res := solvedExample(t)
	// share=1 keeps only classes tied with the max — at least one each.
	strict := res.PredictMultiLabel(1)
	for i, labels := range strict {
		if len(labels) == 0 {
			t.Errorf("node %d got no labels", i)
		}
	}
	// A tiny share accepts everything with nonzero probability.
	loose := res.PredictMultiLabel(1e-9)
	for i := range loose {
		if len(loose[i]) < len(strict[i]) {
			t.Errorf("node %d: loose share returned fewer labels", i)
		}
	}
}

func TestPredictMultiLabelPanics(t *testing.T) {
	res := solvedExample(t)
	defer func() {
		if recover() == nil {
			t.Errorf("share=0 should panic")
		}
	}()
	res.PredictMultiLabel(0)
}

func TestLinkRankingSortedAndComplete(t *testing.T) {
	res := solvedExample(t)
	for c := 0; c < 2; c++ {
		ranked := res.LinkRanking(c)
		if len(ranked) != 3 {
			t.Fatalf("class %d: ranked %d relations, want 3", c, len(ranked))
		}
		seen := map[int]bool{}
		var total float64
		for q := range ranked {
			if q > 0 && ranked[q].Score > ranked[q-1].Score {
				t.Errorf("class %d: ranking not descending at %d", c, q)
			}
			seen[ranked[q].Relation] = true
			total += ranked[q].Score
		}
		if len(seen) != 3 {
			t.Errorf("class %d: duplicate relations in ranking", c)
		}
		if math.Abs(total-1) > 1e-8 {
			t.Errorf("class %d: ranking scores sum to %v, want 1", c, total)
		}
	}
}

func TestNodeRankingFavoursSeeds(t *testing.T) {
	res := solvedExample(t)
	dm := res.NodeRanking(0)
	// The DM seed p1 (index 0) should rank first: the restart keeps pumping
	// mass into it.
	if dm[0].Relation != 0 {
		t.Errorf("DM top node = %d, want 0 (the seed p1)", dm[0].Relation)
	}
	cv := res.NodeRanking(1)
	if cv[0].Relation != 1 {
		t.Errorf("CV top node = %d, want 1 (the seed p2)", cv[0].Relation)
	}
}

func TestRankingPanics(t *testing.T) {
	res := solvedExample(t)
	for name, f := range map[string]func(){
		"LinkRanking": func() { res.LinkRanking(9) },
		"NodeRanking": func() { res.NodeRanking(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMaxIterations(t *testing.T) {
	res := solvedExample(t)
	maxIt := res.MaxIterations()
	if maxIt <= 0 || maxIt > DefaultConfig().MaxIterations {
		t.Errorf("MaxIterations = %d out of range", maxIt)
	}
	for _, cr := range res.Classes {
		if cr.Iterations > maxIt {
			t.Errorf("class %d iterations %d exceed max %d", cr.Class, cr.Iterations, maxIt)
		}
	}
}

// stableRanking is the ranking TopRanked replaced: a stable sort of the
// indices by descending score, which breaks ties by lower index.
func stableRanking(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx
}

// tiedScores draws n scores from a handful of values, so most of them
// tie, with signed zeros among them.
func tiedScores(rng *rand.Rand, n int) []float64 {
	pool := []float64{0.5, 0.25, 0.125, 1e-9, 0, math.Copysign(0, -1), 0.25 + 1e-17}
	v := make([]float64, n)
	for i := range v {
		v[i] = pool[rng.Intn(len(pool))]
	}
	return v
}

// The bounded top-N ranking must return exactly the prefix of the full
// stable sort it replaced, for every cut from one entry to past the end,
// on vectors full of ties.
func TestTopRankedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		v := tiedScores(rng, n)
		if trial%2 == 1 {
			for i := range v {
				v[i] = rng.Float64()
			}
		}
		want := stableRanking(v)
		for _, top := range []int{1, 10, n - 1, n, n + 5} {
			got := TopRanked(v, top)
			k := min(max(top, 0), n)
			if len(got) != k {
				t.Fatalf("trial %d n=%d top=%d: %d indices, want %d", trial, n, top, len(got), k)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d top=%d: rank %d = node %d, want %d (%v)", trial, n, top, i, got[i], want[i], v)
				}
			}
		}
	}
	if got := TopRanked([]float64{1, 2}, 0); got != nil {
		t.Fatalf("top 0 = %v, want nil", got)
	}
	if got := TopRanked(nil, 3); got != nil {
		t.Fatalf("empty vector = %v, want nil", got)
	}
}

// NaN ranks after every number, −Inf included; NaNs tie among
// themselves and break toward the lower index. The full rankings obey
// the same order.
func TestTopRankedNaNRanksLast(t *testing.T) {
	nan := math.NaN()
	v := []float64{nan, 0.5, math.Inf(-1), nan, 0.5, math.Inf(1), -1}
	want := []int{5, 1, 4, 6, 2, 0, 3}
	for top := 1; top <= len(v)+1; top++ {
		got := TopRanked(v, top)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("top=%d: %v, want prefix of %v", top, got, want)
			}
		}
	}
	res := &Result{n: len(v), m: len(v), q: 1, Classes: []ClassResult{{X: v, Z: v}}}
	for name, ranked := range map[string][]RelationScore{"NodeRanking": res.NodeRanking(0), "LinkRanking": res.LinkRanking(0)} {
		for i, rs := range ranked {
			if rs.Relation != want[i] || math.Float64bits(rs.Score) != math.Float64bits(v[want[i]]) {
				t.Fatalf("%s rank %d = %+v, want node %d", name, i, rs, want[i])
			}
		}
	}
}
