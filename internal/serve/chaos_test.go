package serve

// Chaos tests for the serving edges: injected build panics, solve
// panics, overload and eviction-under-load must all degrade to correct
// (never wrong) answers — 503s with a Retry-After hint while the fault
// clears, then bitwise-correct results again. Run with -race (the
// `make chaos` target does) so the recovery paths are also proven free
// of data races.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmark/internal/fault"
	"tmark/internal/hin"
	"tmark/internal/tmark"
)

// mustClassifyRef solves the query offline as the correctness oracle.
func mustClassifyRef(t *testing.T, g *hin.Graph, cfg tmark.Config, seeds []int) tmark.ColumnResult {
	t.Helper()
	model, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	ref, err := model.SolveColumn(context.Background(), tmark.ColumnQuery{Seeds: seeds})
	if err != nil {
		t.Fatalf("SolveColumn: %v", err)
	}
	return ref
}

// checkBitwise asserts a served score vector equals the oracle's.
func checkBitwise(t *testing.T, scores, ref []float64) {
	t.Helper()
	if len(scores) != len(ref) {
		t.Fatalf("scores length %d, want %d", len(scores), len(ref))
	}
	for i := range ref {
		if scores[i] != ref[i] {
			t.Fatalf("scores[%d] = %v, want %v (bitwise)", i, scores[i], ref[i])
		}
	}
}

func TestChaosModelBuildPanicSheds503ThenRecovers(t *testing.T) {
	t.Cleanup(fault.Reset)
	g := testGraph(80)
	cfg := fastConfig()
	s := newTestServer(t, g, cfg, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fault.Inject(fault.ServeModelBuild, fault.Once(func(...any) { panic("chaos: build blew up") }))

	seeds := classSeeds(g, 0)
	resp, body := postClassify(t, ts.URL, &ClassifyRequest{Seeds: seeds, Scores: true})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d during build panic, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 from a panicked build carries no Retry-After")
	}
	if got := s.met.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}

	// The faulting placeholder was dropped, so the retry rebuilds from
	// the immutable graph and answers correctly.
	resp, body = postClassify(t, ts.URL, &ClassifyRequest{Seeds: seeds, Scores: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after recovery, want 200: %s", resp.StatusCode, body)
	}
	var out ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	checkBitwise(t, out.Scores, mustClassifyRef(t, g, cfg, seeds).X)
}

func TestChaosBatchSolvePanicQuarantinesThenRebuilds(t *testing.T) {
	t.Cleanup(fault.Reset)
	g := testGraph(80)
	cfg := fastConfig()
	s := newTestServer(t, g, cfg, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fault.Inject(fault.ServeBatchSolve, fault.Once(func(...any) { panic("chaos: solver blew up") }))

	seeds := classSeeds(g, 2)
	resp, body := postClassify(t, ts.URL, &ClassifyRequest{Seeds: seeds, Scores: true})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d during solve panic, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 from a quarantined model carries no Retry-After")
	}
	if got := s.met.quarantines.Load(); got != 1 {
		t.Errorf("quarantines counter = %d, want 1", got)
	}
	if got := s.cache.size(); got != 0 {
		t.Errorf("cache still holds %d entries after quarantine, want 0", got)
	}

	// The next request coalesces on a fresh build of the same immutable
	// graph and must answer bitwise-correctly.
	resp, body = postClassify(t, ts.URL, &ClassifyRequest{Seeds: seeds, Scores: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after quarantine rebuild, want 200: %s", resp.StatusCode, body)
	}
	var out ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	checkBitwise(t, out.Scores, mustClassifyRef(t, g, cfg, seeds).X)
}

func TestChaosOverloadShedsOnly503WithRetryAfter(t *testing.T) {
	t.Cleanup(fault.Reset)
	g := testGraph(80)
	cfg := fastConfig()
	s := newTestServer(t, g, cfg, func(o *Options) {
		o.MaxBatch = 1
		o.QueueDepth = 2
		o.MaxConcurrent = 1
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Slow every batch solve down so the tiny queue actually fills: the
	// 2x overload below must shed, not absorb.
	fault.Inject(fault.ServeBatchSolve, func(...any) { time.Sleep(30 * time.Millisecond) })

	seeds := classSeeds(g, 1)
	ref := mustClassifyRef(t, g, cfg, seeds)

	const requests = 12 // 2x the queue+batch+slot capacity, with margin
	type answer struct {
		status     int
		retryAfter string
		body       []byte
	}
	answers := make([]answer, requests)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postClassify(t, ts.URL, &ClassifyRequest{Seeds: seeds, Scores: true})
			answers[i] = answer{resp.StatusCode, resp.Header.Get("Retry-After"), body}
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, a := range answers {
		switch a.status {
		case http.StatusOK:
			ok++
			var out ClassifyResponse
			if err := json.Unmarshal(a.body, &out); err != nil {
				t.Fatalf("request %d: unmarshal: %v", i, err)
			}
			checkBitwise(t, out.Scores, ref.X)
		case http.StatusServiceUnavailable:
			shed++
			if a.retryAfter == "" {
				t.Errorf("request %d: shed without Retry-After", i)
			}
		default:
			t.Errorf("request %d: status %d, want 200 or 503", i, a.status)
		}
	}
	if ok == 0 {
		t.Error("overload shed every request; want some served")
	}
	if shed == 0 {
		t.Error("2x overload shed nothing; queue bound is not enforced")
	}
	t.Logf("overload: %d served, %d shed", ok, shed)
}

// TestEvictionDoesNotCancelBorrowedRank drives the satellite scenario:
// a /v1/rank full solve is mid-flight when its model is evicted by cache
// pressure. The eviction retires the coalescer but must NOT cancel the
// borrowed solve — the response has to match an uninterrupted offline
// run bitwise, whether the model was built from its graph or activated
// from a registry blob.
func TestEvictionDoesNotCancelBorrowedRank(t *testing.T) {
	for _, registry := range []bool{false, true} {
		name := "graph"
		if registry {
			name = "registry"
		}
		t.Run(name, func(t *testing.T) { testEvictionDoesNotCancelBorrowedRank(t, registry) })
	}
}

func testEvictionDoesNotCancelBorrowedRank(t *testing.T, registry bool) {
	t.Cleanup(fault.Reset)
	g := testGraph(60)
	other := testGraph(40)
	cfg := fastConfig()
	cfg.Epsilon = 1e-300 // never converges: runs the full iteration budget
	cfg.MaxIterations = 120
	s := newTestServer(t, g, cfg, func(o *Options) {
		o.Datasets["other"] = other
		o.Default = "test"
		o.CacheSize = 1
		if registry {
			o.ModelDir, _ = buildRegistry(t, "test", g, cfg)
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The node-contraction fault point is the chaos hook: it holds the
	// rank solve in its first pass until the eviction has landed. It
	// only waits, so no bits move.
	started, resume := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	fault.Inject(fault.TensorNodeBatch, func(...any) {
		if first.CompareAndSwap(false, true) {
			close(started)
			<-resume
		}
	})
	resumeSolve := sync.OnceFunc(func() { close(resume) })
	t.Cleanup(resumeSolve)

	rankDone := make(chan *RankResponse, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/rank?model=test")
		if err != nil {
			t.Errorf("GET /v1/rank: %v", err)
			rankDone <- nil
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/v1/rank status %d", resp.StatusCode)
			rankDone <- nil
			return
		}
		var out RankResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Errorf("decode /v1/rank: %v", err)
			rankDone <- nil
			return
		}
		rankDone <- &out
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("rank solve never started")
	}
	var activations int64
	if registry {
		activations = 1
	}
	if got := s.met.artifactHits.Load(); got != activations {
		t.Fatalf("tmark_artifact_hit_total = %d, want %d", got, activations)
	}
	// Cache capacity 1: touching the other model evicts the model whose
	// rank solve is still borrowing it.
	resp, body := postClassify(t, ts.URL, &ClassifyRequest{Model: "other", Seeds: []int{0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify(other) status %d: %s", resp.StatusCode, body)
	}
	if got := s.met.cacheEvictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	resumeSolve()
	var out *RankResponse
	select {
	case out = <-rankDone:
	case <-time.After(10 * time.Second):
		t.Fatal("/v1/rank never returned")
	}
	if out == nil {
		t.Fatal("rank request failed")
	}

	// Oracle: the same full solve, uninterrupted.
	fault.Reset()
	model, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	full := model.RunContext(context.Background())
	if full.Stopped != nil {
		t.Fatalf("reference run stopped: %v", full.Stopped)
	}
	for c, cls := range out.Classes {
		ranked := full.LinkRanking(c)
		if len(cls.Links) != len(ranked) {
			t.Fatalf("class %d: %d links, want %d", c, len(cls.Links), len(ranked))
		}
		for i, l := range cls.Links {
			if l.Score != ranked[i].Score || l.Relation != ranked[i].Relation {
				t.Fatalf("class %d link %d = %+v, want %+v (bitwise: eviction must not cancel the borrowed solve)",
					c, i, l, ranked[i])
			}
		}
	}
}

// TestServeRankDrainCancelsFullSolve: a drain that lands while a /v1/rank
// full solve is mid-flight cancels it, and the request still answers
// 200 with the partial result, long before the iteration cap could
// finish.
func TestServeRankDrainCancelsFullSolve(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := slowServeConfig()
	s := newTestServer(t, testGraph(60), cfg, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The node-contraction fault point signals the solve's first pass
	// and slows every pass, so the drain lands mid-flight.
	started := make(chan struct{})
	var once sync.Once
	var passes atomic.Int64
	fault.Inject(fault.TensorNodeBatch, func(...any) {
		passes.Add(1)
		once.Do(func() { close(started) })
		time.Sleep(time.Millisecond)
	})
	rankDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/rank")
		if err != nil {
			rankDone <- 0
			return
		}
		resp.Body.Close()
		rankDone <- resp.StatusCode
	}()
	<-started
	s.Drain()
	select {
	case status := <-rankDone:
		if status != http.StatusOK {
			t.Fatalf("/v1/rank during drain: status %d, want 200 (partial result)", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("/v1/rank did not answer within 10s of the drain")
	}
	if n := passes.Load(); n >= int64(cfg.MaxIterations) {
		t.Fatalf("the drained solve ran %d kernel passes, want fewer than the %d-iteration cap", n, cfg.MaxIterations)
	}
}
