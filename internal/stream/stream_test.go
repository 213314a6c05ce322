package stream

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tmark/internal/artifact"
	"tmark/internal/dataset"
	"tmark/internal/hin"
	"tmark/internal/tmark"
)

// edgeKey addresses one graph edge (not one adjacency coordinate): the
// reference mutation model keyed the way deltas address edges.
type edgeKey struct {
	from, to, rel int
}

// refGraph is the from-scratch reference: the effective single-edge
// weight per (from, to, relation). Because tensor coalescing sums
// duplicate coordinates in insertion order, the engine's running
// "current value plus delta" composition lands on the same float64 the
// reference's one-edge-per-coordinate rebuild stores.
type refGraph struct {
	base  *hin.Graph
	edges map[edgeKey]float64
	order []edgeKey // deterministic build order
}

func newRefGraph(base *hin.Graph) *refGraph {
	r := &refGraph{base: base, edges: map[edgeKey]float64{}}
	for k := range base.Relations {
		for _, e := range base.Relations[k].Edges {
			r.apply(Delta{Op: OpAdd, From: e.From, To: e.To, Relation: k, Weight: e.Weight})
		}
	}
	return r
}

func (r *refGraph) apply(d Delta) {
	key := edgeKey{d.From, d.To, d.Relation}
	switch d.Op {
	case OpAdd:
		if _, ok := r.edges[key]; !ok {
			r.order = append(r.order, key)
		}
		r.edges[key] += d.Weight
	case OpUpdate:
		r.edges[key] = d.Weight
	case OpRemove:
		delete(r.edges, key)
	}
}

// build reconstructs a graph with exactly one edge per live key, in
// first-touch order, sharing the base graph's nodes/classes/relations.
func (r *refGraph) build() *hin.Graph {
	g := &hin.Graph{
		Nodes:   r.base.Nodes,
		Classes: r.base.Classes,
	}
	g.Relations = make([]hin.Relation, len(r.base.Relations))
	for k := range r.base.Relations {
		g.Relations[k] = hin.Relation{
			Name:     r.base.Relations[k].Name,
			Directed: r.base.Relations[k].Directed,
		}
	}
	seen := map[edgeKey]bool{}
	for _, key := range r.order {
		if seen[key] {
			continue // removed and later re-added: order holds the key twice
		}
		seen[key] = true
		w, ok := r.edges[key]
		if !ok {
			continue
		}
		g.AddWeightedEdge(key.rel, key.from, key.to, w)
	}
	return g
}

// randomGraph builds a labelled multi-relation HIN with a mix of
// directed and undirected relations.
func randomGraph(rng *rand.Rand, n int) *hin.Graph {
	g := hin.New("alpha", "beta", "gamma")
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("node-%d", i), nil)
	}
	for i := 0; i < 6 && i < n; i++ {
		g.SetLabels(i, i%3)
	}
	g.AddRelation("cites", true)
	g.AddRelation("coauthor", false)
	for e := 0; e < 4*n; e++ {
		k := rng.Intn(2)
		f, to := rng.Intn(n), rng.Intn(n)
		if k == 1 && f > to {
			// Canonical orientation for undirected pairs, so one edge key
			// addresses one adjacency coordinate pair (the delta API is
			// coordinate-level: remove drops the whole coordinate).
			f, to = to, f
		}
		g.AddWeightedEdge(k, f, to, 0.1+rng.Float64())
	}
	return g
}

// tinyGraph is a fully deterministic fixture for tests that need to
// know exactly which edges exist.
func tinyGraph() *hin.Graph {
	g := hin.New("alpha", "beta", "gamma")
	for i := 0; i < 6; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), nil)
	}
	for i := 0; i < 6; i++ {
		g.SetLabels(i, i%3)
	}
	g.AddRelation("cites", true)
	g.AddRelation("coauthor", false)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}} {
		g.AddWeightedEdge(0, e[0], e[1], 1)
	}
	for _, e := range [][2]int{{0, 2}, {1, 3}, {2, 4}, {3, 5}} {
		g.AddWeightedEdge(1, e[0], e[1], 1)
	}
	return g
}

// randomBatch generates a valid batch against the reference state:
// updates/removes target live edges, adds hit both fresh and existing
// pairs.
func randomBatch(rng *rand.Rand, ref *refGraph, n int) []Delta {
	var live []edgeKey
	for _, key := range ref.order {
		if _, ok := ref.edges[key]; ok {
			live = append(live, key)
		}
	}
	count := 1 + rng.Intn(6)
	batch := make([]Delta, 0, count)
	for q := 0; q < count; q++ {
		switch {
		case len(live) > 0 && rng.Intn(3) == 0:
			key := live[rng.Intn(len(live))]
			d := Delta{Op: OpUpdate, From: key.from, To: key.to, Relation: key.rel, Weight: 0.1 + rng.Float64()}
			if rng.Intn(2) == 0 {
				d = Delta{Op: OpRemove, From: key.from, To: key.to, Relation: key.rel}
			}
			batch = append(batch, d)
		default:
			k := rng.Intn(2)
			f, to := rng.Intn(n), rng.Intn(n)
			if k == 1 && f > to {
				f, to = to, f
			}
			batch = append(batch, Delta{
				Op: OpAdd, From: f, To: to,
				Relation: k, Weight: 0.1 + rng.Float64(),
			})
		}
		// Keep the reference in lockstep so later deltas in this batch
		// can legally target edges the batch itself created or removed.
		d := batch[len(batch)-1]
		if d.Op != OpAdd {
			if _, ok := ref.edges[edgeKey{d.From, d.To, d.Relation}]; !ok {
				batch = batch[:len(batch)-1]
				continue
			}
		}
		ref.apply(d)
	}
	return batch
}

func streamConfig() tmark.Config {
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	cfg.Gamma = 0 // no feature channel: the random graphs carry no features
	return cfg
}

// TestEngineMatchesFullRebuild is the engine-level property: after any
// random add/update/remove batch sequence, the incrementally sealed
// version's content hash equals artifact.Compile of a from-scratch
// rebuild of the equivalently mutated graph — sha256 equality over the
// canonical encoding, i.e. the O columns, R tubes, column/tube lists
// and irreducibility flag are bitwise identical.
func TestEngineMatchesFullRebuild(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 8 + rng.Intn(10)
		g := randomGraph(rng, n)
		cfg := streamConfig()
		eng, err := NewEngine("rand", g, cfg, nil)
		if err != nil {
			t.Fatalf("trial %d: NewEngine: %v", trial, err)
		}
		ref := newRefGraph(g)
		for batchNo := 0; batchNo < 6; batchNo++ {
			batch := randomBatch(rng, ref, n)
			if len(batch) == 0 {
				continue
			}
			res, err := eng.Apply(context.Background(), batch)
			if err != nil {
				t.Fatalf("trial %d batch %d: Apply: %v", trial, batchNo, err)
			}
			_, wantHash, err := artifact.Compile(ref.build(), cfg)
			if err != nil {
				t.Fatalf("trial %d batch %d: Compile: %v", trial, batchNo, err)
			}
			if res.NewHash != wantHash {
				t.Fatalf("trial %d batch %d: incremental hash %s, full rebuild %s",
					trial, batchNo, res.NewHash, wantHash)
			}
			sub := eng.Current().Model.Substrate()
			if !sub.O.ColumnsStochastic(1e-12) {
				t.Fatalf("trial %d batch %d: O columns not stochastic", trial, batchNo)
			}
			if !sub.R.TubesStochastic(1e-12) {
				t.Fatalf("trial %d batch %d: R tubes not stochastic", trial, batchNo)
			}
		}
	}
}

// TestEngineSharesFeatureChannel verifies the structural-sharing claim:
// edge deltas never rebuild W, so every version aliases the base
// version's feature channel, and the sealed hash still matches a full
// rebuild (whose W build is deterministic).
func TestEngineSharesFeatureChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 10
	g := randomGraph(rng, n)
	for i := range g.Nodes {
		g.Nodes[i].Features = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	cfg := streamConfig()
	cfg.Gamma = 0.4
	eng, err := NewEngine("feat", g, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	base := eng.Current().Model.Substrate()
	ref := newRefGraph(g)
	batch := []Delta{{Op: OpAdd, From: 0, To: 1, Relation: 0, Weight: 2}}
	ref.apply(batch[0])
	res, err := eng.Apply(context.Background(), batch)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	next := eng.Current().Model.Substrate()
	if next.WDense != base.WDense || next.WCSR != base.WCSR {
		t.Fatal("feature channel was rebuilt; versions must share W")
	}
	_, wantHash, err := artifact.Compile(ref.build(), cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if res.NewHash != wantHash {
		t.Fatalf("incremental hash %s, full rebuild %s", res.NewHash, wantHash)
	}
}

// TestNewEngineBaseIsNewBuild: the base version NewEngine compiles from
// its one adjacency build is bitwise the model tmark.New builds, and
// hashes to the blob artifact.Compile writes, feature channel included.
func TestNewEngineBaseIsNewBuild(t *testing.T) {
	g := dataset.DBLP(dataset.DefaultDBLPConfig(1))
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	cfg.FeatureTopK = 8
	eng, err := NewEngine("base", g, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	_, wantHash, err := artifact.Compile(g, cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := eng.Current().Hash; got != wantHash {
		t.Fatalf("base version hashes to %s, Compile to %s", got, wantHash)
	}
	m, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	want, got := m.Run(), eng.Current().Model.Run()
	for c := range want.Classes {
		wc, gc := want.Classes[c], got.Classes[c]
		if wc.Iterations != gc.Iterations {
			t.Fatalf("class %d: %d iterations, tmark.New's model %d", c, gc.Iterations, wc.Iterations)
		}
		for i := range wc.X {
			if wc.X[i] != gc.X[i] {
				t.Fatalf("class %d: x[%d] = %v, tmark.New's model %v (bitwise)", c, i, gc.X[i], wc.X[i])
			}
		}
		for k := range wc.Z {
			if wc.Z[k] != gc.Z[k] {
				t.Fatalf("class %d: z[%d] = %v, tmark.New's model %v (bitwise)", c, k, gc.Z[k], wc.Z[k])
			}
		}
	}
}

// TestEngineSealsVersions runs the engine against a real registry and
// checks the version chain: every applied batch tags the floating name
// to the new hash while the previous blobs stay addressable.
func TestEngineSealsVersions(t *testing.T) {
	reg, err := artifact.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 9)
	eng, err := NewEngine("live", g, streamConfig(), reg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	base := eng.Current().Hash
	var hashes []string
	for b := 0; b < 3; b++ {
		res, err := eng.Apply(context.Background(), []Delta{
			{Op: OpAdd, From: b, To: b + 1, Relation: 0, Weight: 1.5},
		})
		if err != nil {
			t.Fatalf("Apply %d: %v", b, err)
		}
		if !res.Sealed {
			t.Fatalf("Apply %d: version not sealed", b)
		}
		hashes = append(hashes, res.NewHash)
		got, err := reg.Resolve(artifact.Ref{Name: "live"})
		if err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		if got != res.NewHash {
			t.Fatalf("Apply %d: name resolves to %s, want %s", b, got, res.NewHash)
		}
	}
	// Every sealed version (and the untagged base) verifies end to end.
	for _, h := range append([]string{base}, hashes...) {
		a, _, err := reg.OpenRef(artifact.Ref{Hash: h})
		if err != nil {
			t.Fatalf("OpenRef(%s): %v", h, err)
		}
		if _, err := a.Activate(a.BuiltConfig); err != nil {
			t.Fatalf("Activate(%s): %v", h, err)
		}
	}
}

// TestEngineRejectsBadBatches: validation failures reject the whole
// batch atomically — the engine stays on its version and a subsequent
// valid batch behaves as if the bad one never arrived.
func TestEngineRejectsBadBatches(t *testing.T) {
	g := tinyGraph()
	eng, err := NewEngine("atomic", g, streamConfig(), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	before := eng.Current()
	bad := [][]Delta{
		nil, // empty
		{{Op: "set", From: 0, To: 1, Relation: 0, Weight: 1}},
		{{Op: OpAdd, From: 0, To: 1, Relation: 9, Weight: 1}},
		{{Op: OpAdd, From: -1, To: 1, Relation: 0, Weight: 1}},
		{{Op: OpAdd, From: 0, To: 99, Relation: 0, Weight: 1}},
		{{Op: OpAdd, From: 0, To: 1, Relation: 0, Weight: -2}},
		{{Op: OpRemove, From: 0, To: 1, Relation: 0, Weight: 3}},
		{{Op: OpUpdate, From: 0, To: 3, Relation: 0, Weight: 1}}, // 0→3 cite does not exist
		{{Op: OpRemove, From: 1, To: 4, Relation: 1}},            // 1-4 coauthor does not exist
		// Valid head, invalid tail: nothing of the batch may land.
		{{Op: OpAdd, From: 0, To: 1, Relation: 0, Weight: 1}, {Op: OpRemove, From: 0, To: 4, Relation: 0}},
	}
	for q, batch := range bad {
		if _, err := eng.Apply(context.Background(), batch); err == nil {
			t.Fatalf("bad batch %d accepted", q)
		}
		if cur := eng.Current(); cur != before {
			t.Fatalf("bad batch %d moved the engine to seq %d", q, cur.Seq)
		}
	}
	if _, err := eng.Apply(context.Background(), []Delta{{Op: OpAdd, From: 0, To: 1, Relation: 0, Weight: 1}}); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
}

// TestEngineRemoveThenAddWithinBatch exercises the in-batch lifecycle:
// an edge created and removed in one batch is a no-op, and re-adding
// after removal starts from zero, matching the rebuild semantics.
func TestEngineRemoveThenAddWithinBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 8)
	cfg := streamConfig()
	eng, err := NewEngine("lifecycle", g, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ref := newRefGraph(g)
	batch := []Delta{
		{Op: OpAdd, From: 2, To: 3, Relation: 0, Weight: 5},
		{Op: OpRemove, From: 2, To: 3, Relation: 0},
		{Op: OpAdd, From: 2, To: 3, Relation: 0, Weight: 1.25},
		{Op: OpAdd, From: 4, To: 5, Relation: 1, Weight: 2},
		{Op: OpRemove, From: 4, To: 5, Relation: 1},
	}
	for _, d := range batch {
		ref.apply(d)
	}
	res, err := eng.Apply(context.Background(), batch)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	_, wantHash, err := artifact.Compile(ref.build(), cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if res.NewHash != wantHash {
		t.Fatalf("incremental hash %s, full rebuild %s", res.NewHash, wantHash)
	}
}

// TestDiffResults covers the diff report over two hand-built results.
func TestDiffResults(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 9)
	cfg := streamConfig()
	eng, err := NewEngine("diffy", g, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ra, err := eng.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	aHash := eng.Current().Hash
	// A heavy rewiring so at least the link rankings move.
	if _, err := eng.Apply(context.Background(), []Delta{
		{Op: OpAdd, From: 1, To: 2, Relation: 1, Weight: 50},
		{Op: OpAdd, From: 2, To: 4, Relation: 1, Weight: 50},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	cur := eng.Current()
	d, err := DiffResults("sha256:"+aHash, "sha256:"+cur.Hash, g, ra, cur.Result())
	if err != nil {
		t.Fatalf("DiffResults: %v", err)
	}
	if d.Nodes != g.N() {
		t.Fatalf("diff over %d nodes, want %d", d.Nodes, g.N())
	}
	for _, f := range d.Flips {
		if f.From == f.To {
			t.Fatalf("flip with identical classes: %+v", f)
		}
	}
	for _, s := range d.Shifts {
		if s.FromRank == s.ToRank {
			t.Fatalf("rank shift without movement: %+v", s)
		}
	}
}
