package serve

// Eviction tests: a model whose cache entry is retired — evicted by
// cache pressure while a solve still borrows it — finishes that solve
// at full quality, and once nothing borrows a retired entry's model any
// more, the garbage collector frees it, so retired versions do not pile
// up under a steady stream of new ones. Run with -race (the `make chaos`
// target does).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmark/internal/fault"
	"tmark/internal/hin"
	"tmark/internal/tmark"
)

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

// evictionServer serves a test graph as the registry-backed model "test"
// next to the graph-only dataset "other", in a one-entry cache: touching
// "other" evicts "test". It applies mutate, if any, to the options,
// activates "test" with a warm-up classify and returns the server and
// the graph.
func evictionServer(t *testing.T, cfg tmark.Config, mutate ...func(*Options)) (*Server, *hin.Graph) {
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
	if got := s.met.artifactHits.Load(); got != 1 {
		t.Fatalf("warm-up classify: tmark_artifact_hit_total = %d, want 1", got)
	}
	return s, g
}

// TestEvictionFinishesHeldBatch: two classifies ride one coalesced
// batch held at the solve gate while their entry is evicted and one of
// them is cancelled. The cancelled caller must keep waiting for its
// batch, and the survivor's answer is bitwise SolveColumn's: the
// eviction lets the batch finish at full quality.
func TestEvictionFinishesHeldBatch(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := fastConfig()
	s, g := evictionServer(t, cfg)
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
	var first atomic.Bool
	fault.Inject(fault.ServeBatchSolve, func(...any) {
		if first.CompareAndSwap(false, true) {
			close(held)
			<-resume
		}
	})
	resumeBatch := sync.OnceFunc(func() { close(resume) })
	t.Cleanup(resumeBatch)

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
		t.Fatal("the cancelled classify returned while its batch was held")
	case <-time.After(100 * time.Millisecond):
	}

	resumeBatch()
	recA := awaitRecorder(t, doneA, "classify A")
	awaitRecorder(t, doneB, "classify B")

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

// TestEvictionFinishesTwoHeldBatches: two batches of one model are held
// at the solve gate while their entry is evicted. Each finishes at full
// quality when resumed, the first while the second is still held: both
// answers are bitwise SolveColumn's.
func TestEvictionFinishesTwoHeldBatches(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := fastConfig()
	s, g := evictionServer(t, cfg, func(o *Options) {
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

	close(hs[0].resume)
	rec0 := awaitRecorder(t, done[0], "classify 0")
	close(hs[1].resume)
	rec1 := awaitRecorder(t, done[1], "classify 1")

	fault.Reset()
	for i, rec := range []*httptest.ResponseRecorder{rec0, rec1} {
		checkBitwise(t, decodeClassify(t, rec).Scores, mustClassifyRef(t, g, cfg, seeds[i]).X)
	}
}

// TestEvictionFreesRetiredVersionsUnderIngest: every ingest batch seals
// a new version, each step pins the version sealed two batches earlier,
// which activates its blob, and a floating read serves the newest
// version from the engine's memory. Every model a cache miss builds
// carries a finalizer, and after each step no retired entry's model is
// still reachable: within a bounded number of collections the garbage
// collector finalises all but the models of the entries still cached,
// so retired versions never pile up. A drained server retains none
// beyond the engine's current version, which the engine itself holds.
func TestEvictionFreesRetiredVersionsUnderIngest(t *testing.T) {
	const capacity = 2
	s := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = t.TempDir()
		o.WALDir = t.TempDir()
		o.CacheSize = capacity
	})
	var watched, freed atomic.Int64
	misses := s.met.cacheMisses.Load()
	// watchMiss puts a finalizer on the model a request just built. The
	// requests run one at a time, so a miss leaves its entry at the
	// front of the LRU order.
	watchMiss := func(step string) {
		t.Helper()
		if got := s.met.cacheMisses.Load(); got == misses {
			t.Fatalf("%s: no cache miss", step)
		} else {
			misses = got
		}
		s.cache.mu.Lock()
		e := s.cache.order.Front().Value.(*warmModel)
		s.cache.mu.Unlock()
		<-e.ready
		runtime.SetFinalizer(e.model, func(*tmark.Model) { freed.Add(1) })
		watched.Add(1)
	}
	// retains waits, collecting, until the finalizers account for every
	// watched model but want.
	retains := func(step string, want int) {
		t.Helper()
		for i := 0; watched.Load()-freed.Load() > int64(want); i++ {
			if i == 200 {
				t.Fatalf("%s: %d of %d watched models still reachable, want %d",
					step, watched.Load()-freed.Load(), watched.Load(), want)
			}
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
		}
		if got := watched.Load() - freed.Load(); got != int64(want) {
			t.Fatalf("%s: %d watched models reachable, want %d", step, got, want)
		}
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
		if len(versions) >= 3 {
			pinned := versions[len(versions)-3]
			if code, hash := classifyHash(t, s, "test@"+pinned, 0); code != http.StatusOK || hash != pinned {
				t.Fatalf("pinned classify after ingest %d: status %d hash %s, want 200 %s", b, code, hash, pinned)
			}
			watchMiss(fmt.Sprintf("pinned classify %d", b))
		}
		if code, hash := classifyHash(t, s, "test", 0); code != http.StatusOK || hash != res.NewHash {
			t.Fatalf("classify after ingest %d: status %d hash %s, want 200 %s", b, code, hash, res.NewHash)
		}
		watchMiss(fmt.Sprintf("floating classify %d", b))
		retains(fmt.Sprintf("after step %d", b), s.cache.size())
	}
	if got := s.met.artifactHits.Load(); got != 11 {
		t.Fatalf("tmark_artifact_hit_total = %d, want 11 pinned activations", got)
	}
	s.Drain()
	retains("after the drain", 1)
}
