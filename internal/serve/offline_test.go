package serve

// Served versus offline answers over random ingest sequences: whatever
// batches arrive over HTTP, and across a restart that replays the
// write-ahead log, every answer a server gives for a version is bitwise
// a cold solve of the blob `tmark build` compiles from the source graph
// with the same deltas applied, and echoes that blob's hash.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"tmark/internal/artifact"
	"tmark/internal/hin"
	"tmark/internal/stream"
	"tmark/internal/tmark"
)

// pairKey addresses one adjacency coordinate pair the way a delta does:
// an undirected relation's edge and its reverse share the key of their
// ordered endpoints.
type pairKey struct{ rel, a, b int }

// offlineGraph is the offline model of a graph under deltas: the
// effective weight of every live coordinate pair, in first-touch order.
// The tensor sums duplicate coordinates in insertion order, so folding
// the source edges and then the deltas left to right lands on the same
// float64 values the engine holds.
type offlineGraph struct {
	base  *hin.Graph
	w     map[pairKey]float64
	order []pairKey
}

func newOfflineGraph(g *hin.Graph) *offlineGraph {
	o := &offlineGraph{base: g, w: map[pairKey]float64{}}
	for k, rel := range g.Relations {
		for _, e := range rel.Edges {
			o.apply(stream.Delta{Op: stream.OpAdd, From: e.From, To: e.To, Relation: k, Weight: e.Weight})
		}
	}
	return o
}

func (o *offlineGraph) key(d stream.Delta) pairKey {
	if !o.base.Relations[d.Relation].Directed && d.From > d.To {
		return pairKey{d.Relation, d.To, d.From}
	}
	return pairKey{d.Relation, d.From, d.To}
}

func (o *offlineGraph) apply(d stream.Delta) {
	k := o.key(d)
	switch d.Op {
	case stream.OpAdd:
		if _, ok := o.w[k]; !ok {
			o.order = append(o.order, k)
		}
		o.w[k] += d.Weight
	case stream.OpUpdate:
		o.w[k] = d.Weight
	case stream.OpRemove:
		delete(o.w, k)
	}
}

// live lists the pairs that exist now.
func (o *offlineGraph) live() []pairKey {
	var out []pairKey
	for _, k := range o.order {
		if _, ok := o.w[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

// build rebuilds the mutated graph with one edge per live pair, sharing
// the source graph's nodes, labels, features and relation types.
func (o *offlineGraph) build() *hin.Graph {
	g := &hin.Graph{Nodes: o.base.Nodes, Classes: o.base.Classes}
	for _, rel := range o.base.Relations {
		g.Relations = append(g.Relations, hin.Relation{Name: rel.Name, Directed: rel.Directed})
	}
	seen := map[pairKey]bool{}
	for _, k := range o.order {
		w, ok := o.w[k]
		if seen[k] || !ok {
			continue // removed, or re-added after a removal (listed twice)
		}
		seen[k] = true
		g.AddWeightedEdge(k.rel, k.a, k.b, w)
	}
	return g
}

// randomBatch draws 1–6 deltas, each valid against the state the ones
// before it leave — adds of any pair, updates and removals of live ones —
// and applies them to o.
func (o *offlineGraph) randomBatch(rng *rand.Rand) []stream.Delta {
	n, m := o.base.N(), o.base.M()
	batch := make([]stream.Delta, 1+rng.Intn(6))
	for q := range batch {
		live := o.live()
		switch r := rng.Intn(4); {
		case r == 0 && len(live) > 0:
			k := live[rng.Intn(len(live))]
			batch[q] = stream.Delta{Op: stream.OpUpdate, From: k.a, To: k.b, Relation: k.rel, Weight: 0.1 + rng.Float64()}
		case r == 1 && len(live) > 0:
			k := live[rng.Intn(len(live))]
			batch[q] = stream.Delta{Op: stream.OpRemove, From: k.a, To: k.b, Relation: k.rel}
		default:
			from, to := rng.Intn(n), rng.Intn(n-1)
			if to >= from {
				to++
			}
			batch[q] = stream.Delta{Op: stream.OpAdd, From: from, To: to, Relation: rng.Intn(m), Weight: 0.1 + rng.Float64()}
		}
		o.apply(batch[q])
	}
	return batch
}

// offlineVersion is what one version answers offline: the hash of the
// blob artifact.Compile writes for it and a cold Workers-1 solve of that
// blob for one seed set.
type offlineVersion struct {
	hash  string // sha256:…
	seeds []int
	blobOracle
}

func solveOffline(t *testing.T, g *hin.Graph, cfg tmark.Config, seeds []int) offlineVersion {
	t.Helper()
	blob, hash, err := artifact.Compile(g, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a, err := artifact.DecodeBytes(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return offlineVersion{hash: "sha256:" + hash, seeds: seeds, blobOracle: solveArtifact(t, a, 1, seeds)}
}

// serveOK runs one request against s and decodes its 200 answer into out.
func serveOK(t *testing.T, s *Server, method, url string, body, out any) {
	t.Helper()
	var payload []byte
	if body != nil {
		payload, _ = json.Marshal(body)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(payload)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, url, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// checkServed asserts that s answers model with the offline version v:
// its hash and, bitwise, its exact and ICA classify columns and — when
// rank is set — its /v1/rank link rankings.
func checkServed(t *testing.T, s *Server, model string, v offlineVersion, rank bool, step string) {
	t.Helper()
	for _, ica := range []bool{false, true} {
		var got ClassifyResponse
		serveOK(t, s, http.MethodPost, "/v1/classify", &ClassifyRequest{Model: model, Seeds: v.seeds, ICA: ica, Scores: true}, &got)
		if got.ModelHash != v.hash {
			t.Fatalf("%s: classify %s ica=%v echoed %s, offline blob hashes to %s", step, model, ica, got.ModelHash, v.hash)
		}
		checkBitwise(t, got.Scores, v.cols[ica].X)
		checkLinksBitwise(t, got.Links, v.cols[ica].Z)
	}
	if !rank {
		return
	}
	var got RankResponse
	serveOK(t, s, http.MethodGet, "/v1/rank?model="+model, nil, &got)
	if got.ModelHash != v.hash || len(got.Classes) != v.full.Q() {
		t.Fatalf("%s: rank %s echoed %s with %d classes, want %s with %d", step, model, got.ModelHash, len(got.Classes), v.hash, v.full.Q())
	}
	for c, cls := range got.Classes {
		if cls.Converged != v.full.Classes[c].Converged {
			t.Fatalf("%s: rank class %d converged %v, want %v", step, c, cls.Converged, v.full.Classes[c].Converged)
		}
		checkLinksBitwise(t, cls.Links, v.full.Classes[c].Z)
	}
}

// TestIngestServedMatchesOfflineAcrossRestart posts seeded random
// add/update/remove batches to two servers: one with a model directory
// and a write-ahead log, replaced halfway by a new server over the same
// directories (a log replay), and one with neither. After each batch the
// floating name answers classify (exact and ICA) and /v1/rank on both
// servers, and every earlier version answers a pinned classify on the
// durable one, bitwise as the offline version and under its hash. The
// servers solve on 2 workers, the oracle on 1.
func TestIngestServedMatchesOfflineAcrossRestart(t *testing.T) {
	const batches, restartAfter = 16, 8
	rng := rand.New(rand.NewSource(7))
	cfg := fastConfig()
	cfg.Workers = 2
	modelDir, walDir := t.TempDir(), t.TempDir()
	durableOpts := func(o *Options) { o.ModelDir, o.WALDir = modelDir, walDir }
	durable := newTestServer(t, testGraph(30), cfg, durableOpts)
	bare := newTestServer(t, testGraph(30), cfg, nil)

	src := newOfflineGraph(testGraph(30))
	versions := []offlineVersion{solveOffline(t, src.build(), cfg, classSeeds(src.base, 0))}
	checkServed(t, durable, "test", versions[0], true, "durable before any ingest")
	checkServed(t, bare, "test", versions[0], true, "bare before any ingest")
	for b := 0; b < batches; b++ {
		if b == restartAfter {
			durable.Drain()
			durable = newTestServer(t, testGraph(30), cfg, durableOpts)
			checkServed(t, durable, "test", versions[b], true, "durable after restart")
		}
		deltas := src.randomBatch(rng)
		v := solveOffline(t, src.build(), cfg, classSeeds(src.base, (b+1)%4))
		for _, s := range []*Server{durable, bare} {
			rec, res := postIngest(t, s, &IngestRequest{Model: "test", Deltas: deltas})
			if res == nil {
				t.Fatalf("batch %d: status %d: %s", b, rec.Code, rec.Body.String())
			}
			if res.Seq != b+1 || res.NewHash != v.hash {
				t.Fatalf("batch %d sealed seq %d as %s, want seq %d as the offline %s", b, res.Seq, res.NewHash, b+1, v.hash)
			}
		}
		versions = append(versions, v)
		checkServed(t, durable, "test", v, true, fmt.Sprintf("durable after batch %d", b))
		checkServed(t, bare, "test", v, true, fmt.Sprintf("bare after batch %d", b))
		for seq, old := range versions[:len(versions)-1] {
			checkServed(t, durable, "test@"+old.hash, old, false, fmt.Sprintf("pin of seq %d after batch %d", seq, b))
		}
	}
}
