package hin

import (
	"math"
	"strings"
	"testing"
)

// bibliography builds the Section 3.2 example network.
func bibliography() *Graph {
	g := New("DM", "CV")
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

func TestBuilderAndCounts(t *testing.T) {
	g := bibliography()
	if g.N() != 4 || g.M() != 3 || g.Q() != 2 {
		t.Fatalf("N/M/Q = %d/%d/%d, want 4/3/2", g.N(), g.M(), g.Q())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddClassDeduplicates(t *testing.T) {
	g := New("a")
	if got := g.AddClass("a"); got != 0 {
		t.Errorf("AddClass existing = %d, want 0", got)
	}
	if got := g.AddClass("b"); got != 1 {
		t.Errorf("AddClass new = %d, want 1", got)
	}
}

func TestLabels(t *testing.T) {
	g := bibliography()
	if !g.Labeled(0) || g.Labeled(2) {
		t.Errorf("Labeled wrong: p1 labelled, p3 not")
	}
	if !g.HasLabel(1, 1) || g.HasLabel(1, 0) {
		t.Errorf("HasLabel wrong for p2")
	}
	if g.PrimaryLabel(0) != 0 || g.PrimaryLabel(2) != -1 {
		t.Errorf("PrimaryLabel wrong")
	}
	g.SetLabels(2, 1, 0) // multi-label, stored sorted
	if got := g.Nodes[2].Labels; got[0] != 0 || got[1] != 1 {
		t.Errorf("SetLabels should sort, got %v", got)
	}
}

func TestAdjacencyTensorConvention(t *testing.T) {
	g := bibliography()
	a := g.AdjacencyTensor()
	// Directed citation p3 cites p2: edge from=2 to=1 → a[1,2,cite]=1 only.
	if a.At(1, 2, 1) != 1 {
		t.Errorf("a[1,2,cite] = %v, want 1", a.At(1, 2, 1))
	}
	if a.At(2, 1, 1) != 0 {
		t.Errorf("directed edge must not be mirrored: a[2,1,cite] = %v", a.At(2, 1, 1))
	}
	// Undirected co-author p1–p2 appears in both orientations.
	if a.At(0, 1, 0) != 1 || a.At(1, 0, 0) != 1 {
		t.Errorf("undirected edge must appear twice")
	}
	if a.NNZ() != 7 {
		t.Errorf("NNZ = %d, want 7 (2 coauthor + 3 citation + 2 conference)", a.NNZ())
	}
	if !a.Irreducible() {
		t.Errorf("example network should be irreducible")
	}
}

func TestUndirectedSelfLoopNotDoubled(t *testing.T) {
	g := New()
	n0 := g.AddNode("n0", nil)
	r := g.AddRelation("self", false)
	g.AddEdge(r, n0, n0)
	a := g.AdjacencyTensor()
	if a.At(0, 0, 0) != 1 {
		t.Errorf("self-loop weight = %v, want 1 (not doubled)", a.At(0, 0, 0))
	}
}

func TestNeighborLists(t *testing.T) {
	g := bibliography()
	lists := g.NeighborLists()
	// Citation (k=1) is directed: p3 (index 2) has out-neighbours p2, p4.
	got := lists[1][2]
	if len(got) != 2 {
		t.Fatalf("p3 citation neighbours = %v, want 2", got)
	}
	// Co-author (k=0) is undirected: p2 sees p1.
	if len(lists[0][1]) != 1 || lists[0][1][0] != 0 {
		t.Errorf("p2 co-author neighbours = %v, want [0]", lists[0][1])
	}
	// p1 has no citation out-links (it cites nobody).
	if len(lists[1][0]) != 0 {
		t.Errorf("p1 citation out-neighbours = %v, want none", lists[1][0])
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	empty := New()
	if err := empty.Validate(); err == nil {
		t.Errorf("empty graph should fail validation")
	}

	ragged := New("c")
	ragged.AddNode("a", []float64{1, 2})
	ragged.AddNode("b", []float64{1})
	if err := ragged.Validate(); err == nil || !strings.Contains(err.Error(), "feature dim") {
		t.Errorf("ragged features should fail, got %v", err)
	}

	dupRel := New("c")
	dupRel.AddNode("a", nil)
	dupRel.AddRelation("r", false)
	dupRel.AddRelation("r", false)
	if err := dupRel.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate relation") {
		t.Errorf("duplicate relation should fail, got %v", err)
	}

	dupClass := &Graph{Classes: []string{"x", "x"}, Nodes: []Node{{}}}
	if err := dupClass.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate class") {
		t.Errorf("duplicate class should fail, got %v", err)
	}

	badLabel := &Graph{Classes: []string{"x"}, Nodes: []Node{{Labels: []int{2}}}}
	if err := badLabel.Validate(); err == nil || !strings.Contains(err.Error(), "label") {
		t.Errorf("out-of-range label should fail, got %v", err)
	}
}

// A NaN or infinite feature value is rejected with the node and index
// that hold it; the JSON codec cannot carry one, but the builder can.
func TestValidateRejectsNonFiniteFeatures(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := bibliography()
		g.Nodes[2].Features = []float64{0, v}
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "node 2 feature 1") {
			t.Errorf("feature %v should fail naming node 2 feature 1, got %v", v, err)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -1e300, math.SmallestNonzeroFloat64} {
		if err := ValidFeature(v); err != nil {
			t.Errorf("finite feature %v rejected: %v", v, err)
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	g := New("c")
	g.AddNode("a", nil)
	g.AddRelation("r", false)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("bad relation", func() { g.AddEdge(5, 0, 0) })
	mustPanic("bad node", func() { g.AddEdge(0, 0, 9) })
	mustPanic("bad weight", func() { g.AddWeightedEdge(0, 0, 0, 0) })
	mustPanic("bad class", func() { g.SetLabels(0, 7) })
}

func TestStats(t *testing.T) {
	g := bibliography()
	s := g.Stats()
	if s.Nodes != 4 || s.Relations != 3 || s.Classes != 2 {
		t.Errorf("Stats counts wrong: %+v", s)
	}
	if s.Edges != 5 || s.LabeledNodes != 2 || s.FeatureDim != 2 {
		t.Errorf("Stats detail wrong: %+v", s)
	}
	if s.EdgesPerRelation[1] != 3 {
		t.Errorf("citation edges = %d, want 3", s.EdgesPerRelation[1])
	}
	if !strings.Contains(s.String(), "nodes=4") {
		t.Errorf("Stats.String = %q", s.String())
	}
}

func TestFeatureMatrixAliases(t *testing.T) {
	g := bibliography()
	f := g.FeatureMatrix()
	f[0][0] = 42
	if g.Nodes[0].Features[0] != 42 {
		t.Errorf("FeatureMatrix should alias node storage")
	}
}
