package serve

// Overlapping-batch tests: one model runs up to MaxConcurrent batches at
// once, a batch keeps filling while another batch of its model solves,
// and drain, quarantine and eviction each meet two batches of one model
// in flight. Batches are held at the serve/batch-solve fault point,
// whose hook only waits, so no bits move. Run with -race (the
// `make chaos` target does).

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tmark/internal/fault"
	"tmark/internal/tmark"
)

// heldBatch is one batch parked at the solve gate; closing resume lets
// it solve.
type heldBatch struct {
	width  int
	resume chan struct{}
}

// holdBatches parks the first n batches to reach the serve/batch-solve
// fault point and hands each to the test, in arrival order; later
// batches pass straight through. Cleanup resumes every batch still
// parked.
func holdBatches(t *testing.T, n int) <-chan heldBatch {
	t.Helper()
	held := make(chan heldBatch, n)
	all := make(chan struct{})
	var arrived atomic.Int64
	fault.Inject(fault.ServeBatchSolve, func(args ...any) {
		if arrived.Add(1) > int64(n) {
			return
		}
		b := heldBatch{width: args[0].(int), resume: make(chan struct{})}
		held <- b
		select {
		case <-b.resume:
		case <-all:
		}
	})
	t.Cleanup(func() { close(all) })
	return held
}

// awaitHeld waits for the next batch to park at the solve gate.
func awaitHeld(t *testing.T, held <-chan heldBatch) heldBatch {
	t.Helper()
	select {
	case b := <-held:
		return b
	case <-time.After(10 * time.Second):
		t.Fatal("no batch reached the solve gate")
		return heldBatch{}
	}
}

// batchesInflight reads the tmarkd_batches_inflight gauge.
func batchesInflight(t *testing.T, s *Server) float64 {
	t.Helper()
	v, ok := s.obsReg.Snapshot()["tmarkd_batches_inflight"].(float64)
	if !ok {
		t.Fatal("tmarkd_batches_inflight is not registered")
	}
	return v
}

// decodeClassify asserts a 200 and decodes the classify response.
func decodeClassify(t *testing.T, rec *httptest.ResponseRecorder) ClassifyResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("classify: status %d: %s", rec.Code, rec.Body.String())
	}
	var out ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode classify: %v", err)
	}
	return out
}

// TestOverlapFillRule: while one batch of a model is held, the queued
// jobs fill the next batch, which starts only once full: 8 jobs start
// as one width-8 batch, never as narrow ones. With the held batch still
// solving, 3 more jobs wait in the filling batch; releasing the held
// batch starts them at once as one width-3 batch.
func TestOverlapFillRule(t *testing.T) {
	t.Cleanup(fault.Reset)
	model, err := tmark.New(testGraph(60), fastConfig())
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	c := newCoalescer(context.Background(), model, 8, 64, make(chan struct{}, 2), nil)
	t.Cleanup(c.stop)
	held := holdBatches(t, 3)

	// enqueue puts n jobs straight into the queue, so a wait on the
	// queue depth cannot pass before they are all in.
	enqueue := func(n int) []*job {
		js := make([]*job, n)
		for i := range js {
			js[i] = &job{query: tmark.ColumnQuery{Seeds: []int{4 * i}}, resp: make(chan jobResult, 1)}
			c.queue <- js[i]
		}
		return js
	}
	awaitWidths := func(js []*job, want int) {
		t.Helper()
		for i, j := range js {
			select {
			case r := <-j.resp:
				if r.err != nil || r.width != want {
					t.Fatalf("job %d: width %d err %v, want width %d", i, r.width, r.err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("job %d never answered", i)
			}
		}
	}

	first := enqueue(1)
	b1 := awaitHeld(t, held)
	if b1.width != 1 {
		t.Fatalf("first batch width %d, want 1: no batch was running", b1.width)
	}
	full := enqueue(8)
	if b2 := awaitHeld(t, held); b2.width != 8 {
		t.Fatalf("second batch width %d, want 8: it started before it was full", b2.width)
	} else {
		close(b2.resume)
	}
	awaitWidths(full, 8)

	tail := enqueue(3)
	waitDepth(t, c, 0) // the filling batch took all three
	select {
	case b := <-held:
		t.Fatalf("a width-%d batch started while a batch of its model was solving", b.width)
	case <-time.After(20 * time.Millisecond):
	}
	close(b1.resume)
	awaitWidths(first, 1)
	b3 := awaitHeld(t, held)
	if b3.width != 3 {
		t.Fatalf("batch width %d after the release, want 3", b3.width)
	}
	close(b3.resume)
	awaitWidths(tail, 3)
}

// TestOverlapSecondBatchCompletesWhileFirstHeld: a full second batch of
// one model starts and completes while the first is held, and every
// answer of both is bitwise SolveColumn's.
func TestOverlapSecondBatchCompletesWhileFirstHeld(t *testing.T) {
	t.Cleanup(fault.Reset)
	g := testGraph(60)
	cfg := fastConfig()
	s := newTestServer(t, g, cfg, nil)
	held := holdBatches(t, 2)

	doneA := make(chan *httptest.ResponseRecorder, 1)
	go func() { doneA <- serveClassify(s, context.Background(), classSeeds(g, 0)) }()
	b1 := awaitHeld(t, held)

	type answer struct {
		class int
		rec   *httptest.ResponseRecorder
	}
	answers := make(chan answer, DefaultMaxBatch)
	for i := 0; i < DefaultMaxBatch; i++ {
		c := i % g.Q()
		go func() { answers <- answer{c, serveClassify(s, context.Background(), classSeeds(g, c))} }()
	}
	b2 := awaitHeld(t, held)
	if b1.width != 1 || b2.width != DefaultMaxBatch {
		t.Fatalf("batch widths %d, %d, want 1, %d", b1.width, b2.width, DefaultMaxBatch)
	}
	if got := batchesInflight(t, s); got != 2 {
		t.Fatalf("tmarkd_batches_inflight = %v with two batches held, want 2", got)
	}
	close(b2.resume)
	for i := 0; i < DefaultMaxBatch; i++ {
		var a answer
		select {
		case a = <-answers:
		case <-time.After(10 * time.Second):
			t.Fatal("the second batch never answered while the first was held")
		}
		out := decodeClassify(t, a.rec)
		if out.Coalesced != DefaultMaxBatch {
			t.Fatalf("answer rode a width-%d batch, want %d", out.Coalesced, DefaultMaxBatch)
		}
		checkBitwise(t, out.Scores, mustClassifyRef(t, g, cfg, classSeeds(g, a.class)).X)
	}
	select {
	case <-doneA:
		t.Fatal("the held batch answered before it was resumed")
	default:
	}

	close(b1.resume)
	out := decodeClassify(t, awaitRecorder(t, doneA, "classify A"))
	if out.Coalesced != 1 {
		t.Fatalf("classify A rode a width-%d batch, want 1", out.Coalesced)
	}
	checkBitwise(t, out.Scores, mustClassifyRef(t, g, cfg, classSeeds(g, 0)).X)
}

// TestOverlapDrainMeetsTwoBatches: a drain that lands while two batches
// of one model are held waits for both; each answers 200 with Stopped
// after at most one iteration of a solve that would otherwise run to
// its 100k-iteration cap, and Drain then returns with no batch in
// flight.
func TestOverlapDrainMeetsTwoBatches(t *testing.T) {
	t.Cleanup(fault.Reset)
	g := testGraph(60)
	s := newTestServer(t, g, slowServeConfig(), func(o *Options) { o.MaxBatch = 1 })
	held := holdBatches(t, 2)

	done := make(chan *httptest.ResponseRecorder, 2)
	var hs []heldBatch
	for c := 0; c < 2; c++ {
		go func() { done <- serveClassify(s, context.Background(), classSeeds(g, c)) }()
		hs = append(hs, awaitHeld(t, held))
	}
	if got := batchesInflight(t, s); got != 2 {
		t.Fatalf("tmarkd_batches_inflight = %v with two batches held, want 2", got)
	}

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while two batches were held")
	case <-time.After(20 * time.Millisecond):
	}
	for _, b := range hs {
		close(b.resume)
	}
	for i := 0; i < 2; i++ {
		out := decodeClassify(t, awaitRecorder(t, done, "held classify"))
		if out.Stopped == "" {
			t.Fatalf("drained answer carries no Stopped: %+v", out)
		}
		if out.Iterations > 1 {
			t.Fatalf("drained batch ran %d iterations, want ≤ 1", out.Iterations)
		}
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned")
	}
	if got := batchesInflight(t, s); got != 0 {
		t.Fatalf("tmarkd_batches_inflight = %v after Drain, want 0", got)
	}
}

// TestOverlapQuarantineCountsOnce: two held batches of one model both
// panic. Each answers 503 with ErrModelFault, the model is quarantined
// once, and the next request rebuilds it once and answers bitwise.
func TestOverlapQuarantineCountsOnce(t *testing.T) {
	t.Cleanup(fault.Reset)
	g := testGraph(60)
	cfg := fastConfig()
	s := newTestServer(t, g, cfg, func(o *Options) { o.MaxBatch = 1 })
	held := holdBatches(t, 2)
	// Registered after the hold, so it fires once a held batch resumes.
	unpanic := fault.Inject(fault.ServeBatchSolve, func(...any) { panic("chaos: overlapping batch blew up") })

	done := make(chan *httptest.ResponseRecorder, 2)
	var hs []heldBatch
	for c := 0; c < 2; c++ {
		go func() { done <- serveClassify(s, context.Background(), classSeeds(g, c)) }()
		hs = append(hs, awaitHeld(t, held))
	}
	for _, b := range hs {
		close(b.resume)
	}
	for i := 0; i < 2; i++ {
		rec := awaitRecorder(t, done, "panicking classify")
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), ErrModelFault.Error()) {
			t.Fatalf("status %d body %s, want 503 with %q", rec.Code, rec.Body.String(), ErrModelFault)
		}
	}
	if got := s.met.panics.Load(); got != 2 {
		t.Fatalf("panics = %d, want 2", got)
	}
	if got := s.met.quarantines.Load(); got != 1 {
		t.Fatalf("tmarkd_model_quarantines_total = %d, want 1", got)
	}
	if got := s.cache.size(); got != 0 {
		t.Fatalf("cache holds %d entries after the quarantine, want 0", got)
	}

	unpanic()
	var builds atomic.Int64
	fault.Inject(fault.ServeModelBuild, func(...any) { builds.Add(1) })
	seeds := classSeeds(g, 2)
	out := decodeClassify(t, serveClassify(s, context.Background(), seeds))
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d model builds after the quarantine, want 1", got)
	}
	checkBitwise(t, out.Scores, mustClassifyRef(t, g, cfg, seeds).X)
}
