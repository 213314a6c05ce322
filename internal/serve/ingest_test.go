package serve

// Tests for the streaming-ingest surface: POST /v1/ingest semantics,
// the version-pinned read contract while batches apply (satellite of
// the live-graph test layer), quarantine surfacing as 503 + Retry-After,
// and GET /v1/diff.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tmark/internal/artifact"
	"tmark/internal/fault"
	"tmark/internal/stream"
	"tmark/internal/tmark"
)

// postIngest drives one /v1/ingest call against the server's handler.
func postIngest(t *testing.T, s *Server, req any) (*httptest.ResponseRecorder, *IngestResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var out IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode ingest response: %v\n%s", err, rec.Body.String())
	}
	return rec, &out
}

// classifyHash runs one /v1/classify and returns (status, model_hash).
func classifyHash(t *testing.T, s *Server, model string, seed int) (int, string) {
	t.Helper()
	body := fmt.Sprintf(`{"model":%q,"seeds":[%d]}`, model, seed)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec.Code, ""
	}
	var out ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode classify response: %v", err)
	}
	return rec.Code, out.ModelHash
}

func ingestDeltas(b int) []stream.Delta {
	return []stream.Delta{{Op: stream.OpAdd, From: b % 7, To: (b + 9) % 20, Relation: b % 3, Weight: 0.25}}
}

// TestIngestEndpoint: a batch applies, seals a new version, and the
// next classify serves it — the name now resolves to the new content
// hash through the re-tagged registry.
func TestIngestEndpoint(t *testing.T) {
	s := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = t.TempDir()
	})
	code, baseHash := classifyHash(t, s, "test", 0)
	if code != http.StatusOK {
		t.Fatalf("base classify: status %d", code)
	}

	rec, res := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(0)})
	if res == nil {
		t.Fatalf("ingest failed: %d %s", rec.Code, rec.Body.String())
	}
	if res.Seq != 1 || !res.Sealed {
		t.Fatalf("first batch: seq %d sealed %v, want 1/true", res.Seq, res.Sealed)
	}
	if res.OldHash != baseHash {
		t.Fatalf("old hash %s, classify served %s", res.OldHash, baseHash)
	}
	if res.NewHash == res.OldHash || !strings.HasPrefix(res.NewHash, "sha256:") {
		t.Fatalf("new hash %s (old %s)", res.NewHash, res.OldHash)
	}
	if res.TouchedColumns == 0 || res.TouchedTubes == 0 {
		t.Fatalf("batch touched nothing: %+v", res)
	}
	// The first batch has no previous stationary state (no Solve ran on
	// the base version), so it re-solves cold; the second warms.
	_, res2 := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(1)})
	if res2 == nil {
		t.Fatal("second ingest failed")
	}
	if !res2.Warm {
		t.Fatal("second batch did not warm-restart")
	}
	if res2.OldHash != res.NewHash {
		t.Fatalf("version chain broken: %s -> %s", res.NewHash, res2.OldHash)
	}

	code, gotHash := classifyHash(t, s, "test", 0)
	if code != http.StatusOK {
		t.Fatalf("classify after ingest: status %d", code)
	}
	if gotHash != res2.NewHash {
		t.Fatalf("classify serves %s after ingest, want %s", gotHash, res2.NewHash)
	}
	// The pre-ingest version stays addressable by pin.
	if code, h := classifyHash(t, s, baseHash, 0); code != http.StatusOK || h != baseHash {
		t.Fatalf("pinned pre-ingest classify: status %d hash %s, want 200 %s", code, h, baseHash)
	}
}

// blobOracle is what a sealed blob answers, computed offline: one
// classify column per ICA setting and the full solve behind /v1/rank.
type blobOracle struct {
	cols map[bool]tmark.ColumnResult
	full *tmark.Result
}

// solveBlob opens the blob filed under hash, activates it under its
// built config and solves the oracle queries on it.
func solveBlob(t *testing.T, reg *artifact.Registry, hash string, workers int, seeds []int) blobOracle {
	t.Helper()
	a, _, err := reg.OpenRef(artifact.Ref{Hash: strings.TrimPrefix(hash, "sha256:")})
	if err != nil {
		t.Fatalf("OpenRef(%s): %v", hash, err)
	}
	return solveArtifact(t, a, workers, seeds)
}

// solveArtifact activates a under its built config on the given worker
// count and solves the oracle queries on it.
func solveArtifact(t *testing.T, a *artifact.Artifact, workers int, seeds []int) blobOracle {
	t.Helper()
	cfg := a.BuiltConfig
	cfg.Workers = workers // a deployment knob the blob does not store
	m, err := a.Activate(cfg)
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	out := blobOracle{cols: map[bool]tmark.ColumnResult{}, full: m.RunContext(context.Background())}
	for _, ica := range []bool{false, true} {
		if out.cols[ica], err = m.SolveColumn(context.Background(), tmark.ColumnQuery{Seeds: seeds, ICA: ica}); err != nil {
			t.Fatalf("SolveColumn(ica=%v): %v", ica, err)
		}
	}
	return out
}

// checkLinksBitwise asserts that a served link ranking holds every link
// type with exactly the oracle's stationary z̄.
func checkLinksBitwise(t *testing.T, links []LinkScore, z []float64) {
	t.Helper()
	if len(links) != len(z) {
		t.Fatalf("%d links, want %d", len(links), len(z))
	}
	for _, l := range links {
		if l.Score != z[l.Relation] {
			t.Fatalf("z[%d] = %v, want %v (bitwise)", l.Relation, l.Score, z[l.Relation])
		}
	}
}

// TestIngestFloatingReadsServeFromMemory: on a registry-backed server a
// floating read of a live model is answered from the engine's committed
// version. Its answers are bitwise the sealed blob's, classify (exact
// and ICA) and /v1/rank alike, yet it activates nothing; a pinned read
// of an older version still activates its blob.
// The server solves on 2 workers and the blob offline on 1 and on 3: no
// answer depends on the worker count.
func TestIngestFloatingReadsServeFromMemory(t *testing.T) {
	g, cfg, dir := testGraph(20), fastConfig(), t.TempDir()
	cfg.Workers = 2
	// Two entries: the version two batches back has left the cache by the
	// time the pinned read asks for it.
	s := newTestServer(t, g, cfg, func(o *Options) {
		o.ModelDir = dir
		o.CacheSize = 2
	})
	reg, err := artifact.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	hits := s.met.artifactHits.Load()
	activatesNothing := func(step string) {
		t.Helper()
		if got := s.met.artifactHits.Load(); got != hits {
			t.Fatalf("%s: tmark_artifact_hit_total moved %d -> %d", step, hits, got)
		}
	}
	serve := func(method, url string, body any, out any) {
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

	var versions []string
	for b := 0; b < 6; b++ {
		rec, res := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(b)})
		if res == nil {
			t.Fatalf("ingest %d: status %d: %s", b, rec.Code, rec.Body.String())
		}
		if b == 0 {
			versions = append(versions, res.OldHash)
		}
		versions = append(versions, res.NewHash)
		activatesNothing(fmt.Sprintf("ingest %d", b))

		seeds := classSeeds(g, b%4)
		wants := []blobOracle{solveBlob(t, reg, res.NewHash, 1, seeds), solveBlob(t, reg, res.NewHash, 3, seeds)}
		for _, ica := range []bool{false, true} {
			step := fmt.Sprintf("batch %d classify ica=%v", b, ica)
			var got ClassifyResponse
			serve(http.MethodPost, "/v1/classify", &ClassifyRequest{Model: "test", Seeds: seeds, ICA: ica, Scores: true}, &got)
			if got.ModelHash != res.NewHash {
				t.Fatalf("%s: served %s, want %s", step, got.ModelHash, res.NewHash)
			}
			for _, want := range wants {
				checkBitwise(t, got.Scores, want.cols[ica].X)
				checkLinksBitwise(t, got.Links, want.cols[ica].Z)
			}
			activatesNothing(step)
		}
		var rank RankResponse
		serve(http.MethodGet, "/v1/rank?model=test", nil, &rank)
		for _, want := range wants {
			if rank.ModelHash != res.NewHash || len(rank.Classes) != want.full.Q() {
				t.Fatalf("batch %d rank: %s with %d classes, want %s with %d", b, rank.ModelHash, len(rank.Classes), res.NewHash, want.full.Q())
			}
			for c, cls := range rank.Classes {
				if cls.Converged != want.full.Classes[c].Converged {
					t.Fatalf("batch %d rank class %d: converged %v, want %v", b, c, cls.Converged, want.full.Classes[c].Converged)
				}
				checkLinksBitwise(t, cls.Links, want.full.Classes[c].Z)
			}
		}
		activatesNothing(fmt.Sprintf("batch %d rank", b))
	}

	pinned := versions[len(versions)-3]
	if code, h := classifyHash(t, s, "test@"+pinned, 0); code != http.StatusOK || h != pinned {
		t.Fatalf("pinned classify: status %d hash %s, want 200 %s", code, h, pinned)
	}
	if got := s.met.artifactHits.Load(); got != hits+1 {
		t.Fatalf("pinned classify: tmark_artifact_hit_total = %d, want %d", got, hits+1)
	}
}

// TestReaderNeverWaitsForIngest: with a second ingest held mid-apply, a
// floating classify on a registry-less server misses the cache, builds
// from the engine and answers with the committed version at once. The
// engine publishes versions without a lock, so the reader does not wait
// for the writer. Run with -race (the `make chaos` target does).
func TestReaderNeverWaitsForIngest(t *testing.T) {
	t.Cleanup(fault.Reset)
	s := newTestServer(t, testGraph(20), fastConfig(), nil)
	_, first := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(0)})
	if first == nil {
		t.Fatal("first ingest failed")
	}

	held, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	fault.Inject(fault.StreamApply, fault.Once(func(...any) {
		close(held)
		<-release
	}))
	post := func(url string, body any) <-chan *httptest.ResponseRecorder {
		payload, _ := json.Marshal(body)
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(payload)))
			done <- rec
		}()
		return done
	}
	ingested := post("/v1/ingest", &IngestRequest{Model: "test", Deltas: ingestDeltas(1)})
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("second ingest never reached stream/apply")
	}

	misses := s.met.cacheMisses.Load()
	select {
	case rec := <-post("/v1/classify", &ClassifyRequest{Model: "test", Seeds: []int{0}}):
		var out ClassifyResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
			t.Fatalf("classify under a held ingest: status %d: %s", rec.Code, rec.Body.String())
		}
		if out.ModelHash != first.NewHash {
			t.Fatalf("classify under a held ingest served %s, want the committed %s", out.ModelHash, first.NewHash)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a floating classify waited for the held ingest")
	}
	if got := s.met.cacheMisses.Load(); got != misses+1 {
		t.Fatalf("cache misses %d -> %d: the classify did not build from the engine", misses, got)
	}

	releaseOnce()
	rec := awaitRecorder(t, ingested, "second ingest")
	if rec.Code != http.StatusOK {
		t.Fatalf("second ingest: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestIngestServesEngineWithoutRegistry is the regression test for the
// latent staleness hazard: without a model directory nothing re-tags,
// so a name's cache key cannot change — a rebuild from the startup
// graph would serve pre-ingest data forever. The fix routes such
// rebuilds through the live engine.
func TestIngestServesEngineWithoutRegistry(t *testing.T) {
	s := newTestServer(t, testGraph(20), fastConfig(), nil)
	if _, baseHash := classifyHash(t, s, "test", 0); baseHash == "" {
		t.Fatal("base classify failed")
	}
	var last string
	for b := 0; b < 3; b++ {
		rec, res := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(b)})
		if res == nil {
			t.Fatalf("ingest %d: %d %s", b, rec.Code, rec.Body.String())
		}
		if res.Sealed {
			t.Fatal("no registry configured, yet the version claims sealed")
		}
		last = res.NewHash
		code, got := classifyHash(t, s, "test", 0)
		if code != http.StatusOK {
			t.Fatalf("classify after batch %d: status %d", b, code)
		}
		if got != last {
			t.Fatalf("batch %d: classify serves %s, engine is at %s (stale rebuild)", b, got, last)
		}
	}
}

// TestIngestErrors: malformed bodies, unknown models, and graph-level
// delta violations all reject cleanly without moving the engine.
func TestIngestErrors(t *testing.T) {
	s := newTestServer(t, testGraph(20), fastConfig(), nil)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body)))
		return rec
	}
	cases := []struct {
		name string
		body string
		code int
	}{
		{"empty deltas", `{"model":"test","deltas":[]}`, http.StatusBadRequest},
		{"unknown op", `{"model":"test","deltas":[{"op":"set","from":0,"to":1,"relation":0,"weight":1}]}`, http.StatusBadRequest},
		{"unknown field", `{"model":"test","deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1}],"bogus":1}`, http.StatusBadRequest},
		{"trailing data", `{"model":"test","deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1}]} extra`, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1}]}`, http.StatusNotFound},
		{"relation out of range", `{"model":"test","deltas":[{"op":"add","from":0,"to":1,"relation":9,"weight":1}]}`, http.StatusBadRequest},
		{"remove absent edge", `{"model":"test","deltas":[{"op":"remove","from":0,"to":0,"relation":0}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if rec := post(tc.body); rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body.String())
		}
	}
	if rec := post(`{"model":"test","deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1}]}`); rec.Code != http.StatusOK {
		t.Fatalf("valid batch after rejections: %d %s", rec.Code, rec.Body.String())
	}
	if s.engine("test").Current().Seq != 1 {
		t.Fatal("rejected batches moved the engine")
	}
}

// TestIngestQuarantineSurfacesRetryAfter is the serve-level chaos
// contract: a panic mid-ingest quarantines the engine, the client sees
// a 503 with the Retry-After hint, further ingests keep failing 503 —
// and reads still serve the last sealed version.
func TestIngestQuarantineSurfacesRetryAfter(t *testing.T) {
	t.Cleanup(fault.Reset)
	s := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = t.TempDir()
	})
	_, good := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(0)})
	if good == nil {
		t.Fatal("good ingest failed")
	}

	remove := fault.Inject(fault.StreamApply, fault.Once(func(...any) { panic("chaos: ingest crash") }))
	defer remove()
	rec, _ := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(1)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("panicked ingest: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
	// Quarantine is sticky even though the fault hook is inert now.
	rec, _ = postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(2)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after quarantine: status %d, want 503", rec.Code)
	}
	code, hash := classifyHash(t, s, "test", 0)
	if code != http.StatusOK {
		t.Fatalf("classify on quarantined model: status %d", code)
	}
	if hash != good.NewHash {
		t.Fatalf("classify serves %s, want last sealed %s", hash, good.NewHash)
	}
}

// TestIngestPinsConcurrentReaders races classify traffic against a
// stream of ingest batches: every 200 answer must carry the content
// hash of some sealed version — never a torn or unsealed state. Run
// under -race (make serve-race / make chaos) this also proves the
// engine's copy-on-write publication.
func TestIngestPinsConcurrentReaders(t *testing.T) {
	s := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = t.TempDir()
		o.MaxConcurrent = 8
		o.QueueDepth = 256
	})
	code, baseHash := classifyHash(t, s, "test", 0)
	if code != http.StatusOK {
		t.Fatal("base classify failed")
	}
	sealed := map[string]bool{baseHash: true}
	var observed sync.Map // hash -> true, recorded by the readers

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan int, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				code, hash := classifyHash(t, s, "test", r)
				if code == http.StatusServiceUnavailable {
					continue // load shed under the race; retryable by contract
				}
				if code != http.StatusOK {
					select {
					case errs <- code:
					default:
					}
					return
				}
				observed.Store(hash, true)
			}
		}(r)
	}
	for b := 0; b < 5; b++ {
		rec, res := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(b)})
		if res == nil {
			t.Fatalf("ingest %d: %d %s", b, rec.Code, rec.Body.String())
		}
		sealed[res.NewHash] = true
	}
	close(done)
	wg.Wait()
	select {
	case code := <-errs:
		t.Fatalf("reader saw status %d", code)
	default:
	}
	// Every hash any reader was answered with must name a sealed version:
	// a mid-ingest read pins either the pre-ingest or the post-ingest
	// model, never a torn in-between state.
	observed.Range(func(k, _ any) bool {
		if !sealed[k.(string)] {
			t.Errorf("reader observed %q — not a sealed version", k.(string))
		}
		return true
	})
}

// TestDiffEndpoint: the diff of a version against itself is empty; the
// diff across an ingest reports the universe size and the two content
// identities, and unknown refs 404.
func TestDiffEndpoint(t *testing.T) {
	s := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = t.TempDir()
	})
	_, res := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(0)})
	if res == nil {
		t.Fatal("ingest failed")
	}
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}
	rec := get("/v1/diff?a=" + res.OldHash + "&b=" + res.NewHash)
	if rec.Code != http.StatusOK {
		t.Fatalf("diff: status %d %s", rec.Code, rec.Body.String())
	}
	var d DiffResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("decode diff: %v", err)
	}
	if d.Nodes != 20 {
		t.Fatalf("diff nodes %d, want 20", d.Nodes)
	}
	if d.AHash != res.OldHash || d.BHash != res.NewHash {
		t.Fatalf("diff identities %s/%s, want %s/%s", d.AHash, d.BHash, res.OldHash, res.NewHash)
	}

	rec = get("/v1/diff?a=" + res.NewHash + "&b=" + res.NewHash)
	if rec.Code != http.StatusOK {
		t.Fatalf("self diff: status %d", rec.Code)
	}
	var self DiffResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &self); err != nil {
		t.Fatal(err)
	}
	if len(self.Flips) != 0 || len(self.Shifts) != 0 {
		t.Fatalf("self diff not empty: %d flips, %d shifts", len(self.Flips), len(self.Shifts))
	}

	for _, url := range []string{
		"/v1/diff?a=" + res.NewHash, // missing b
		"/v1/diff?a=nope&b=" + res.NewHash,
		"/v1/diff?a=" + res.NewHash + "&b=" + res.NewHash + "&top=-1",
	} {
		if rec := get(url); rec.Code == http.StatusOK {
			t.Errorf("%s unexpectedly succeeded", url)
		}
	}
	// a, b and top are the only query keys, and top is a whole decimal
	// count: each of these is a 400 naming what it refuses.
	for _, c := range []struct{ url, want string }{
		{"/v1/diff?a=test&b=test&top=1e2", "top must be a non-negative integer"},
		{"/v1/diff?a=test&b=test&tops=1", `unknown query parameter "tops"`},
	} {
		rec := get(c.url)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: decode: %v", c.url, err)
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(e.Error, c.want) {
			t.Errorf("%s: status %d %q, want 400 with %q", c.url, rec.Code, e.Error, c.want)
		}
	}
}
