package serve

// The warm-model cache's build singleflight under real concurrency: N
// simultaneous requests pinning the same artifact reference must read
// and activate the blob exactly once, with every other request parked
// on the first builder's ready channel — asserted through the cache
// and artifact counters, and meaningful mainly under -race, where any
// unsynchronised sharing of the entry would be reported.

import (
	"net/http/httptest"
	"sync"
	"testing"
)

func TestConcurrentActivationSingleflight(t *testing.T) {
	g := testGraph(60)
	cfg := fastConfig()
	dir, hash := buildRegistry(t, "test", g, cfg)
	s := newTestServer(t, g, cfg, func(o *Options) { o.ModelDir = dir })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 16
	ref := "sha256:" + hash
	seeds := classSeeds(g, 0)

	// A start gate lines every goroutine up behind one barrier so the
	// requests genuinely race into the cold cache together.
	start := make(chan struct{})
	results := make([]*ClassifyResponse, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = tryClassify(ts.URL, &ClassifyRequest{Model: ref, Seeds: seeds})
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// One build, one activation: the first request in misses and reads;
	// the other N−1 coalesce onto it as hits whether they arrived
	// during the build or after it.
	if got := s.met.cacheMisses.Load(); got != 1 {
		t.Errorf("cache misses = %d, want 1 (singleflight build)", got)
	}
	if got := s.met.cacheHits.Load(); got != workers-1 {
		t.Errorf("cache hits = %d, want %d", got, workers-1)
	}
	if got := s.met.artifactHits.Load(); got != 1 {
		t.Errorf("artifact activations = %d, want exactly 1", got)
	}
	if got := s.met.artifactFails.Load(); got != 0 {
		t.Errorf("artifact failures = %d, want 0", got)
	}
	// Every answer came from the one activated substrate and is
	// bitwise identical.
	for i, r := range results {
		if r.ModelHash != ref {
			t.Fatalf("request %d answered by %q, want %q", i, r.ModelHash, ref)
		}
		if len(r.Scores) != len(results[0].Scores) {
			t.Fatalf("request %d: %d scores vs %d", i, len(r.Scores), len(results[0].Scores))
		}
		for j := range r.Scores {
			if r.Scores[j] != results[0].Scores[j] {
				t.Fatalf("request %d: score[%d] differs across coalesced activations", i, j)
			}
		}
	}
}
