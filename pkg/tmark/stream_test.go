package tmark_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmark/internal/serve"
	"tmark/pkg/hin"
	"tmark/pkg/tmark"
)

// newStreamServer is newClientServer plus a model directory, so ingest
// seals versions and diff can resolve them.
func newStreamServer(t *testing.T) *tmark.Client {
	t.Helper()
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	cfg.ICAUpdate = false
	s, err := serve.New(serve.Options{
		Datasets: map[string]*hin.Graph{"toy": clientGraph()},
		Config:   cfg,
		ModelDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return tmark.NewClient(ts.URL)
}

func TestClientIngestDiff(t *testing.T) {
	c := newStreamServer(t)
	ctx := context.Background()

	r1, err := c.Ingest(ctx, "", []tmark.Delta{
		{Op: tmark.OpAdd, From: 0, To: 3, Relation: 0, Weight: 0.5},
	})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if r1.Model != "toy" || r1.Seq != 1 || !r1.Sealed {
		t.Fatalf("first ingest: %+v", r1)
	}
	if !strings.HasPrefix(r1.NewHash, "sha256:") || r1.NewHash == r1.OldHash {
		t.Fatalf("first ingest hashes: %q -> %q", r1.OldHash, r1.NewHash)
	}
	r2, err := c.Ingest(ctx, "toy", []tmark.Delta{
		{Op: tmark.OpUpdate, From: 0, To: 3, Relation: 0, Weight: 2},
	})
	if err != nil {
		t.Fatalf("second Ingest: %v", err)
	}
	if r2.Seq != 2 || r2.OldHash != r1.NewHash {
		t.Fatalf("second ingest: %+v", r2)
	}

	d, err := c.Diff(ctx, r1.NewHash, r2.NewHash)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if d.Nodes != 12 || d.AHash != r1.NewHash || d.BHash != r2.NewHash {
		t.Fatalf("Diff: %+v", d)
	}
	if same, err := c.Diff(ctx, r2.NewHash, r2.NewHash, tmark.WithTop(1)); err != nil {
		t.Fatalf("self Diff: %v", err)
	} else if len(same.Flips) != 0 || len(same.Shifts) != 0 {
		t.Fatalf("self diff not empty: %+v", same)
	}
}

func TestClientIngestErrors(t *testing.T) {
	c := newStreamServer(t)
	ctx := context.Background()

	if _, err := c.Ingest(ctx, "", nil); err == nil {
		t.Fatalf("empty batch accepted")
	}
	var se *tmark.ServiceError
	if _, err := c.Ingest(ctx, "ghost", []tmark.Delta{{Op: tmark.OpAdd, From: 0, To: 1, Relation: 0, Weight: 1}}); !errors.As(err, &se) || se.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := c.Diff(ctx, "ghost", "ghost"); err == nil {
		t.Fatalf("unknown diff refs accepted")
	}
}

// TestClientIngestRetriesWithStableKey pins the idempotency contract:
// Ingest retries transient 503s under the policy, and every attempt of
// one logical call carries the same Idempotency-Key — the server-side
// dedup that makes the retry safe even if an earlier attempt committed.
func TestClientIngestRetriesWithStableKey(t *testing.T) {
	var hits atomic.Int64
	var mu sync.Mutex
	var keys []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"draining","reason":"draining"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := tmark.NewClient(ts.URL)
	c.Retry = &tmark.Retry{MaxAttempts: 3, BaseDelay: time.Millisecond}

	var se *tmark.ServiceError
	_, err := c.Ingest(context.Background(), "", []tmark.Delta{{Op: tmark.OpAdd, From: 0, To: 1, Relation: 0, Weight: 1}})
	if !errors.As(err, &se) || !se.Overloaded() {
		t.Fatalf("Ingest error: %v", err)
	}
	if se.Reason != "draining" {
		t.Fatalf("503 reason = %q, want draining", se.Reason)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("Ingest hit the server %d times, want the policy's 3", got)
	}
	if keys[0] == "" {
		t.Fatal("Ingest sent no Idempotency-Key")
	}
	for i, k := range keys {
		if k != keys[0] {
			t.Fatalf("attempt %d changed the Idempotency-Key: %q vs %q", i+1, k, keys[0])
		}
	}

	// A second logical call must NOT reuse the first call's auto key —
	// identical batches sent twice on purpose are two batches.
	mu.Lock()
	first := keys[0]
	keys = nil
	mu.Unlock()
	_, _ = c.Ingest(context.Background(), "", []tmark.Delta{{Op: tmark.OpAdd, From: 0, To: 1, Relation: 0, Weight: 1}})
	mu.Lock()
	second := keys[0]
	mu.Unlock()
	if second == first {
		t.Fatalf("two Ingest calls shared the auto-generated key %q", first)
	}

	// A pinned key is sent verbatim.
	mu.Lock()
	keys = nil
	mu.Unlock()
	_, _ = c.Ingest(context.Background(), "", []tmark.Delta{{Op: tmark.OpAdd, From: 0, To: 1, Relation: 0, Weight: 1}},
		tmark.WithIdempotencyKey("job-42"))
	mu.Lock()
	pinned := keys[0]
	mu.Unlock()
	if pinned != "job-42" {
		t.Fatalf("pinned Idempotency-Key sent as %q", pinned)
	}
}
