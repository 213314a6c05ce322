// Package hin models heterogeneous information networks: nodes carrying
// description features and (multi-)labels, connected by multiple typed
// relations. It is the input format shared by the T-Mark core and every
// baseline in this repository, and it knows how to extract the adjacency
// tensor A of the paper (entry a[i,j,k] > 0 means node j links to node i
// through relation k).
package hin

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"tmark/internal/tensor"
)

// ValidWeight reports whether w can serve as an edge weight: positive
// and finite. NaN fails every comparison, so the naive `w <= 0` check
// alone would wave NaN (and +Inf) through into the stochastic
// normalisation, where a single bad entry poisons every score it
// touches. Every ingest path (builder, CSV, COO, JSON) funnels
// through this one predicate so they cannot drift apart.
func ValidWeight(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
		return fmt.Errorf("weight %v must be positive and finite", w)
	}
	return nil
}

// ValidFeature reports whether v can serve as a node feature value:
// finite. A NaN or infinite feature turns every cosine it touches into
// NaN, and the feature channel W then silently loses those columns (the
// top-K channel stores nothing for them) or poisons the whole solve (the
// dense channel). Validate checks every feature through this predicate.
func ValidFeature(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("feature value %v must be finite", v)
	}
	return nil
}

// Edge is one typed link from node From to node To. Weight defaults to 1
// when built through AddEdge; the tensor representation keeps weights so
// multigraph-style repeated links accumulate.
type Edge struct {
	From, To int
	Weight   float64
}

// Relation is one link type: a named edge set, directed or not. Undirected
// relations are stored once per pair and expanded to both tensor directions.
type Relation struct {
	Name     string
	Directed bool
	Edges    []Edge
}

// Node is one classified object in the network.
type Node struct {
	Name     string
	Features []float64
	Labels   []int // class indices; empty means unlabelled
}

// Graph is a heterogeneous information network. Build one with New and the
// Add* methods; it is not safe for concurrent mutation.
type Graph struct {
	Nodes     []Node
	Relations []Relation
	Classes   []string
}

// New returns an empty graph with the given class names (may be nil and
// extended later with AddClass).
func New(classes ...string) *Graph {
	return &Graph{Classes: append([]string(nil), classes...)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Nodes) }

// M returns the number of relations (link types).
func (g *Graph) M() int { return len(g.Relations) }

// Q returns the number of classes.
func (g *Graph) Q() int { return len(g.Classes) }

// AddClass registers a class name and returns its index. Registering an
// existing name returns the existing index.
func (g *Graph) AddClass(name string) int {
	for c, existing := range g.Classes {
		if existing == name {
			return c
		}
	}
	g.Classes = append(g.Classes, name)
	return len(g.Classes) - 1
}

// AddNode appends a node and returns its index.
func (g *Graph) AddNode(name string, features []float64) int {
	g.Nodes = append(g.Nodes, Node{Name: name, Features: features})
	return len(g.Nodes) - 1
}

// AddRelation registers a link type and returns its index.
func (g *Graph) AddRelation(name string, directed bool) int {
	g.Relations = append(g.Relations, Relation{Name: name, Directed: directed})
	return len(g.Relations) - 1
}

// AddEdge adds a unit-weight link of the given relation from node from to
// node to.
func (g *Graph) AddEdge(relation, from, to int) {
	g.AddWeightedEdge(relation, from, to, 1)
}

// AddWeightedEdge adds a weighted link. Indices are validated eagerly so
// dataset-construction bugs surface at the call site.
func (g *Graph) AddWeightedEdge(relation, from, to int, weight float64) {
	if relation < 0 || relation >= len(g.Relations) {
		panic(fmt.Sprintf("hin: relation %d out of range %d", relation, len(g.Relations)))
	}
	if from < 0 || from >= len(g.Nodes) || to < 0 || to >= len(g.Nodes) {
		panic(fmt.Sprintf("hin: edge (%d,%d) out of range %d", from, to, len(g.Nodes)))
	}
	if err := ValidWeight(weight); err != nil {
		panic(fmt.Sprintf("hin: edge (%d,%d): %v", from, to, err))
	}
	r := &g.Relations[relation]
	r.Edges = append(r.Edges, Edge{From: from, To: to, Weight: weight})
}

// SetLabels replaces the label set of a node with the given class indices.
func (g *Graph) SetLabels(node int, classes ...int) {
	for _, c := range classes {
		if c < 0 || c >= len(g.Classes) {
			panic(fmt.Sprintf("hin: class %d out of range %d", c, len(g.Classes)))
		}
	}
	sorted := append([]int(nil), classes...)
	sort.Ints(sorted)
	g.Nodes[node].Labels = sorted
}

// Labeled reports whether node i carries at least one label.
func (g *Graph) Labeled(i int) bool { return len(g.Nodes[i].Labels) > 0 }

// HasLabel reports whether node i carries class c.
func (g *Graph) HasLabel(i, c int) bool {
	for _, l := range g.Nodes[i].Labels {
		if l == c {
			return true
		}
	}
	return false
}

// PrimaryLabel returns the first (lowest-index) label of node i, or -1 when
// unlabelled. Single-label datasets use this as the ground truth class.
func (g *Graph) PrimaryLabel(i int) int {
	if len(g.Nodes[i].Labels) == 0 {
		return -1
	}
	return g.Nodes[i].Labels[0]
}

// AdjacencyTensor builds the finalized n×n×m tensor A: for each directed
// edge u→v of relation k it sets a[v,u,k] += w (the paper's convention that
// column j of a slice holds the out-links of node j), and for undirected
// relations it adds both orientations.
func (g *Graph) AdjacencyTensor() *tensor.Tensor {
	a := tensor.New(g.N(), g.M())
	for k := range g.Relations {
		r := &g.Relations[k]
		for _, e := range r.Edges {
			a.Add(e.To, e.From, k, e.Weight)
			if !r.Directed && e.From != e.To {
				a.Add(e.From, e.To, k, e.Weight)
			}
		}
	}
	a.Finalize()
	return a
}

// FeatureMatrix returns one feature row per node. Rows alias node storage.
func (g *Graph) FeatureMatrix() [][]float64 {
	f := make([][]float64, g.N())
	for i := range g.Nodes {
		f[i] = g.Nodes[i].Features
	}
	return f
}

// NeighborLists returns, per relation, the out-neighbour list of every node
// (undirected relations appear in both directions). Baselines that walk the
// graph directly (ICA, wvRN, Hcc) use this instead of the tensor.
func (g *Graph) NeighborLists() [][][]int {
	out := make([][][]int, g.M())
	for k := range g.Relations {
		lists := make([][]int, g.N())
		for _, e := range g.Relations[k].Edges {
			lists[e.From] = append(lists[e.From], e.To)
			if !g.Relations[k].Directed && e.From != e.To {
				lists[e.To] = append(lists[e.To], e.From)
			}
		}
		out[k] = lists
	}
	return out
}

// Validate checks internal consistency: feature dimensions agree, feature
// values are finite, labels and edges are in range, and class/relation
// names are unique. Returns nil on a well-formed graph.
func (g *Graph) Validate() error {
	if g.N() == 0 {
		return errors.New("hin: graph has no nodes")
	}
	dim := -1
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Features != nil {
			if dim == -1 {
				dim = len(n.Features)
			} else if len(n.Features) != dim {
				return fmt.Errorf("hin: node %d feature dim %d, want %d", i, len(n.Features), dim)
			}
		}
		for k, v := range n.Features {
			if err := ValidFeature(v); err != nil {
				return fmt.Errorf("hin: node %d feature %d: %v", i, k, err)
			}
		}
		for _, c := range n.Labels {
			if c < 0 || c >= g.Q() {
				return fmt.Errorf("hin: node %d label %d out of range %d", i, c, g.Q())
			}
		}
	}
	seenClass := map[string]bool{}
	for _, c := range g.Classes {
		if seenClass[c] {
			return fmt.Errorf("hin: duplicate class %q", c)
		}
		seenClass[c] = true
	}
	seenRel := map[string]bool{}
	for k := range g.Relations {
		r := &g.Relations[k]
		if seenRel[r.Name] {
			return fmt.Errorf("hin: duplicate relation %q", r.Name)
		}
		seenRel[r.Name] = true
		for _, e := range r.Edges {
			if e.From < 0 || e.From >= g.N() || e.To < 0 || e.To >= g.N() {
				return fmt.Errorf("hin: relation %q edge (%d,%d) out of range %d", r.Name, e.From, e.To, g.N())
			}
			if e.Weight <= 0 {
				return fmt.Errorf("hin: relation %q edge (%d,%d) weight %v", r.Name, e.From, e.To, e.Weight)
			}
		}
	}
	return nil
}

// Stats summarises a graph for logging and docs.
type Stats struct {
	Nodes, Relations, Classes int
	Edges                     int
	EdgesPerRelation          []int
	LabeledNodes              int
	FeatureDim                int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.N(), Relations: g.M(), Classes: g.Q()}
	s.EdgesPerRelation = make([]int, g.M())
	for k := range g.Relations {
		s.EdgesPerRelation[k] = len(g.Relations[k].Edges)
		s.Edges += len(g.Relations[k].Edges)
	}
	for i := range g.Nodes {
		if g.Labeled(i) {
			s.LabeledNodes++
		}
		if s.FeatureDim == 0 {
			s.FeatureDim = len(g.Nodes[i].Features)
		}
	}
	return s
}

// String renders Stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d relations=%d classes=%d edges=%d labeled=%d featdim=%d",
		s.Nodes, s.Relations, s.Classes, s.Edges, s.LabeledNodes, s.FeatureDim)
}
