package serve

// Lease tests: an mmap-activated model's artifact stays mapped while any
// solve still borrows it, even after the cache has retired its entry,
// and closes once the last borrower is done — so the mapped blobs stay
// bounded by the cache capacity under a steady stream of new versions.
// Run with -race (the `make chaos` target does).
//
// While any fault hook is armed, artifact.Open hands back a private
// copy instead of a mapping, so every test activates its artifact with
// a warm-up request before it arms a hook.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmark/internal/fault"
	"tmark/internal/hin"
	"tmark/internal/tmark"
)

// mappedBlobs counts the memory mappings of files under dir, one per
// address range in /proc/self/maps, as perfbench counts blob mappings.
// It skips the test where the maps file is unreadable.
func mappedBlobs(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("cannot count mappings: %v", err)
	}
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// checkMapped asserts that want blobs under dir are mapped and that the
// tmarkd_artifacts_open gauge agrees.
func checkMapped(t *testing.T, s *Server, dir string, want int) {
	t.Helper()
	if got := mappedBlobs(t, dir); got != want {
		t.Fatalf("%d blob mappings, want %d", got, want)
	}
	if got := s.cache.artifactsOpen.Load(); got != int64(want) {
		t.Fatalf("tmarkd_artifacts_open = %d, want %d", got, want)
	}
}

// serveClassify runs one scores-on /v1/classify through the handler
// under ctx.
func serveClassify(s *Server, ctx context.Context, seeds []int) *httptest.ResponseRecorder {
	body, _ := json.Marshal(&ClassifyRequest{Seeds: seeds, Scores: true})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
	s.Handler().ServeHTTP(rec, req.WithContext(ctx))
	return rec
}

// awaitRecorder waits for a handler run started in another goroutine.
func awaitRecorder(t *testing.T, ch <-chan *httptest.ResponseRecorder, what string) *httptest.ResponseRecorder {
	t.Helper()
	select {
	case rec := <-ch:
		return rec
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
		return nil
	}
}

// leaseServer serves a test graph as the registry-backed model "test"
// next to the graph-only dataset "other", in a one-entry cache: touching
// "other" evicts "test". It applies mutate, if any, to the options,
// activates "test" before any hook is armed and returns the server, its
// registry directory and the graph.
func leaseServer(t *testing.T, cfg tmark.Config, mutate ...func(*Options)) (*Server, string, *hin.Graph) {
	t.Helper()
	g := testGraph(60)
	dir, _ := buildRegistry(t, "test", g, cfg)
	s := newTestServer(t, g, cfg, func(o *Options) {
		o.Datasets["other"] = testGraph(40)
		o.Default = "test"
		o.ModelDir = dir
		o.CacheSize = 1
		for _, m := range mutate {
			m(o)
		}
	})
	if code, _ := classifyHash(t, s, "test", 0); code != http.StatusOK {
		t.Fatalf("warm-up classify: status %d", code)
	}
	checkMapped(t, s, dir, 1)
	return s, dir, g
}

// TestLeaseKeepsMappingThroughBorrowedRank: a /v1/rank full solve holds its
// lease across an eviction, so the blob stays mapped until the solve is
// done, and the answer is bitwise the uninterrupted one.
func TestLeaseKeepsMappingThroughBorrowedRank(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := fastConfig()
	cfg.Epsilon = 1e-300 // never converges: runs the full iteration budget
	cfg.MaxIterations = 120
	s, dir, g := leaseServer(t, cfg)

	// Hold the rank solve in its first node contraction. The hook only
	// waits, so no bits move. A failed check below leaves the solve
	// parked: resuming it on an unmapped substrate would fault.
	started, resume := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	fault.Inject(fault.TensorNodeBatch, func(...any) {
		if first.CompareAndSwap(false, true) {
			close(started)
			<-resume
		}
	})
	rankDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/rank?model=test", nil))
		rankDone <- rec
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("rank solve never started")
	}

	if code, _ := classifyHash(t, s, "other", 0); code != http.StatusOK {
		t.Fatalf("classify(other): status %d", code)
	}
	if got := s.met.cacheEvictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	checkMapped(t, s, dir, 1) // the borrowed solve still leases it

	close(resume)
	rec := awaitRecorder(t, rankDone, "/v1/rank")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/rank status %d: %s", rec.Code, rec.Body.String())
	}
	checkMapped(t, s, dir, 0) // the last lease on the retired entry unmapped it

	var out RankResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode /v1/rank: %v", err)
	}
	fault.Reset()
	model, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	full := model.RunContext(context.Background())
	for c, cls := range out.Classes {
		ranked := full.LinkRanking(c)
		if len(cls.Links) != len(ranked) {
			t.Fatalf("class %d: %d links, want %d", c, len(cls.Links), len(ranked))
		}
		for i, l := range cls.Links {
			if l.Score != ranked[i].Score || l.Relation != ranked[i].Relation {
				t.Fatalf("class %d link %d = %+v, want %+v (bitwise)", c, i, l, ranked[i])
			}
		}
	}
}

// TestLeaseKeepsMappingThroughHeldBatch: two classifies ride one
// coalesced batch held at the solve gate while their entry is retired
// and one of them is cancelled. The coalescer takes no lease of its
// own, so the batch is covered only by its callers' leases: the
// cancelled caller must keep waiting for its batch, the blob must stay
// mapped until the batch ends, and the survivor's answer is bitwise
// SolveColumn's.
func TestLeaseKeepsMappingThroughHeldBatch(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := fastConfig()
	s, dir, g := leaseServer(t, cfg)
	e := s.cache.snapshot()[0]
	// The warm-up batch answers its job before it frees its solve slot
	// and leaves running. Wait it out: a collect that still saw it
	// running would fold the second query below into the first one's
	// batch, and the queue would never hold one job.
	for deadline := time.Now().Add(10 * time.Second); e.coal.running.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the warm-up batch never ended")
		}
	}

	held, resume := make(chan struct{}), make(chan struct{})
	var first, abort atomic.Bool
	fault.Inject(fault.ServeBatchSolve, func(...any) {
		if first.CompareAndSwap(false, true) {
			close(held)
			<-resume
			if abort.Load() {
				panic("lease test failed: the substrate may be unmapped")
			}
		}
	})
	resumeBatch := sync.OnceFunc(func() { close(resume) })
	t.Cleanup(func() {
		// After a failed check the held batch may sit on an unmapped
		// substrate: answer it through the panic barrier, unsolved.
		abort.Store(t.Failed())
		resumeBatch()
	})

	// With every solve slot taken, the dispatcher holds the first job at
	// the gate and the second queues behind it; both then fold into one
	// batch once the slots free up. A failed check must free them too,
	// or the server's Drain would wait on a batch that never gets one.
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	releaseSlots := sync.OnceFunc(func() {
		for i := 0; i < cap(s.slots); i++ {
			<-s.slots
		}
	})
	t.Cleanup(releaseSlots)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	seedsA, seedsB := classSeeds(g, 0), classSeeds(g, 1)
	doneA := make(chan *httptest.ResponseRecorder, 1)
	doneB := make(chan *httptest.ResponseRecorder, 1)
	go func() { doneA <- serveClassify(s, context.Background(), seedsA) }()
	go func() { doneB <- serveClassify(s, ctxB, seedsB) }()
	waitDepth(t, e.coal, 1)
	releaseSlots()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("batch never reached the solve gate")
	}

	if code, _ := classifyHash(t, s, "other", 0); code != http.StatusOK {
		t.Fatalf("classify(other): status %d", code)
	}
	if got := s.met.cacheEvictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	cancelB()
	select {
	case <-doneB:
		t.Fatal("the cancelled classify returned while its batch was held: its lease no longer covers the solve")
	case <-time.After(100 * time.Millisecond):
	}
	checkMapped(t, s, dir, 1)

	resumeBatch()
	recA := awaitRecorder(t, doneA, "classify A")
	awaitRecorder(t, doneB, "classify B")
	checkMapped(t, s, dir, 0)

	if recA.Code != http.StatusOK {
		t.Fatalf("classify A: status %d: %s", recA.Code, recA.Body.String())
	}
	var out ClassifyResponse
	if err := json.Unmarshal(recA.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode classify A: %v", err)
	}
	if out.Coalesced != 2 {
		t.Fatalf("classify A rode a width-%d batch, want 2", out.Coalesced)
	}
	if got := s.met.canceled.Load(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
	fault.Reset()
	checkBitwise(t, out.Scores, mustClassifyRef(t, g, cfg, seedsA).X)
}

// TestLeaseKeepsMappingThroughTwoHeldBatches: two batches of one model
// are held at the solve gate while their entry is evicted. Each batch is
// covered only by its own caller's lease, so the blob stays mapped until
// both batches end, still mapped after the first, and unmaps after the
// second; both answers are bitwise SolveColumn's.
func TestLeaseKeepsMappingThroughTwoHeldBatches(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := fastConfig()
	s, dir, g := leaseServer(t, cfg, func(o *Options) {
		o.MaxBatch = 1      // every query is a full batch of its own
		o.MaxConcurrent = 3 // a third slot for the evicting classify
	})
	held := holdBatches(t, 2)

	seeds := [][]int{classSeeds(g, 0), classSeeds(g, 1)}
	done := make([]chan *httptest.ResponseRecorder, len(seeds))
	var hs []heldBatch
	for i := range seeds {
		done[i] = make(chan *httptest.ResponseRecorder, 1)
		go func() { done[i] <- serveClassify(s, context.Background(), seeds[i]) }()
		hs = append(hs, awaitHeld(t, held))
	}

	if code, _ := classifyHash(t, s, "other", 0); code != http.StatusOK {
		t.Fatalf("classify(other): status %d", code)
	}
	if got := s.met.cacheEvictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	checkMapped(t, s, dir, 1)

	close(hs[0].resume)
	rec0 := awaitRecorder(t, done[0], "classify 0")
	checkMapped(t, s, dir, 1) // the second held batch still leases it
	close(hs[1].resume)
	rec1 := awaitRecorder(t, done[1], "classify 1")
	checkMapped(t, s, dir, 0)

	fault.Reset()
	for i, rec := range []*httptest.ResponseRecorder{rec0, rec1} {
		checkBitwise(t, decodeClassify(t, rec).Scores, mustClassifyRef(t, g, cfg, seeds[i]).X)
	}
}

// TestLeaseBoundsMappingsUnderIngest: every ingest batch seals a new
// version, and each step pins the version sealed two batches earlier,
// which activates its blob; yet the mapped blobs never exceed the cache
// capacity, a floating classify (served from the engine's memory) adds
// no mapping, and a drained server keeps none.
func TestLeaseBoundsMappingsUnderIngest(t *testing.T) {
	const capacity = 2
	dir := t.TempDir()
	s := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = dir
		o.WALDir = t.TempDir()
		o.CacheSize = capacity
	})
	atMost := func(step string) int {
		t.Helper()
		n := mappedBlobs(t, dir)
		if n > capacity {
			t.Fatalf("%s: %d blob mappings, want at most %d", step, n, capacity)
		}
		if got := s.cache.artifactsOpen.Load(); got != int64(n) {
			t.Fatalf("%s: tmarkd_artifacts_open = %d, want %d", step, got, n)
		}
		return n
	}
	var versions []string
	for b := 0; b < 12; b++ {
		rec, res := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(b)})
		if res == nil {
			t.Fatalf("ingest %d: status %d: %s", b, rec.Code, rec.Body.String())
		}
		if b == 0 {
			versions = append(versions, res.OldHash)
		}
		versions = append(versions, res.NewHash)
		atMost(fmt.Sprintf("after ingest %d", b))
		if len(versions) >= 3 {
			pinned := versions[len(versions)-3]
			if code, hash := classifyHash(t, s, "test@"+pinned, 0); code != http.StatusOK || hash != pinned {
				t.Fatalf("pinned classify after ingest %d: status %d hash %s, want 200 %s", b, code, hash, pinned)
			}
		}
		mapped := atMost(fmt.Sprintf("after pinned classify %d", b))
		if code, hash := classifyHash(t, s, "test", 0); code != http.StatusOK || hash != res.NewHash {
			t.Fatalf("classify after ingest %d: status %d hash %s, want 200 %s", b, code, hash, res.NewHash)
		}
		if n := atMost(fmt.Sprintf("after floating classify %d", b)); n > mapped {
			t.Fatalf("floating classify %d: blob mappings %d -> %d", b, mapped, n)
		}
	}
	s.Drain()
	checkMapped(t, s, dir, 0)
}
