package serve

// The coalescing-correctness integration test: tmarkd serving on a real
// ephemeral TCP port, 64 concurrent /v1/classify requests (with a cancel
// mix), against the bitwise reference of offline Model.RunContext class
// results. Meant to run under -race (`make race` / the CI race
// job): the coalescer, cache and drain paths are the concurrent code
// this PR adds.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tmark/internal/tmark"
)

// TestServingCoalescedBitwiseEqualUnderRace fires 64 concurrent mixed
// /v1/classify + cancel requests at an in-process tmarkd on a random port
// and asserts every completed response carries scores bitwise identical
// to the corresponding class of an offline Model.RunContext solve. The
// server solves on 2 workers and the offline solve on 1: no answer
// depends on the worker count. JSON's shortest-round-trip float64
// formatting makes the comparison exact across the wire.
func TestServingCoalescedBitwiseEqualUnderRace(t *testing.T) {
	g := testGraph(100)
	cfg := fastConfig() // Workers=1, ICA off: deterministic, query ≡ class solve

	// The offline reference: one full multi-class RunContext; class c's
	// result is what a query seeded with class c's labelled nodes must
	// reproduce.
	model, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	full := model.RunContext(context.Background())
	seeds := make([][]int, g.Q())
	for c := 0; c < g.Q(); c++ {
		seeds[c] = classSeeds(g, c)
	}

	srvCfg := cfg
	srvCfg.Workers = 2
	s := newTestServer(t, g, srvCfg, func(o *Options) {
		o.MaxBatch = 8
		o.QueueDepth = 128
		o.MaxConcurrent = 2
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0") // random port, in-process
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
	ts.Start()
	defer ts.Close()

	const requests = 64
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	coalesced := make([]int, requests)
	for i := 0; i < requests; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			class := i % g.Q()
			body, err := json.Marshal(&ClassifyRequest{Seeds: seeds[class], Scores: true})
			if err != nil {
				errs <- err
				return
			}
			ctx := context.Background()
			if i%8 == 7 {
				// The cancel mix: an aggressive per-request deadline that
				// may fire before, during, or after the solve.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%16)*time.Millisecond)
				defer cancel()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/classify", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				if ctx.Err() != nil {
					return // cancelled client: abandoning the request is the point
				}
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			var out ClassifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				if ctx.Err() != nil {
					return
				}
				errs <- fmt.Errorf("request %d: decode: %w", i, err)
				return
			}
			if out.Stopped != "" {
				// A cancelled column that still delivered: partial scores
				// are allowed, equality is not required.
				return
			}
			want := full.Classes[class]
			if out.Iterations != want.Iterations || !out.Converged {
				errs <- fmt.Errorf("request %d: iterations %d/converged %v, want %d/true",
					i, out.Iterations, out.Converged, want.Iterations)
				return
			}
			if len(out.Scores) != len(want.X) {
				errs <- fmt.Errorf("request %d: %d scores, want %d", i, len(out.Scores), len(want.X))
				return
			}
			for j := range want.X {
				if out.Scores[j] != want.X[j] {
					errs <- fmt.Errorf("request %d: scores[%d] = %v, want %v (bitwise)",
						i, j, out.Scores[j], want.X[j])
					return
				}
			}
			coalesced[i] = out.Coalesced
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	total, width := 0, 0
	for _, w := range coalesced {
		if w > 0 {
			total++
			width += w
		}
	}
	if total == 0 {
		t.Fatalf("no request completed successfully")
	}
	t.Logf("%d/%d requests completed; mean lockstep width %.1f",
		total, requests, float64(width)/float64(total))
}
