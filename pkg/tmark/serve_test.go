package tmark_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tmark/internal/serve"
	"tmark/pkg/hin"
	"tmark/pkg/tmark"
)

func clientGraph() *hin.Graph {
	g := hin.New("left", "right")
	rel := g.AddRelation("link", false)
	for i := 0; i < 12; i++ {
		id := g.AddNode("", nil)
		if i < 2 {
			g.SetLabels(id, i)
		}
	}
	for i := 0; i < 12; i++ {
		g.AddEdge(rel, i, (i+1)%12)
		g.AddEdge(rel, i, (i+5)%12)
	}
	return g
}

func newClientServer(t *testing.T) (*tmark.Client, *serve.Server) {
	t.Helper()
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	cfg.ICAUpdate = false
	s, err := serve.New(serve.Options{
		Datasets: map[string]*hin.Graph{"toy": clientGraph()},
		Config:   cfg,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return tmark.NewClient(ts.URL), s
}

func TestClientClassifyRankReady(t *testing.T) {
	c, _ := newClientServer(t)
	ctx := context.Background()

	if err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}

	resp, err := c.ClassifyModel(ctx, "", []int{0}, tmark.WithScores())
	if err != nil {
		t.Fatalf("ClassifyModel: %v", err)
	}
	if resp.Model != "toy" || !resp.Converged || len(resp.Scores) != 12 {
		t.Fatalf("ClassifyModel response: model %q converged %v scores %d", resp.Model, resp.Converged, len(resp.Scores))
	}
	sum := 0.0
	for _, s := range resp.Scores {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("scores sum %v, want ≈1", sum)
	}

	rank, err := c.RankModel(ctx, "toy", tmark.WithTop(1))
	if err != nil {
		t.Fatalf("RankModel: %v", err)
	}
	if len(rank.Classes) != 2 || len(rank.Classes[0].Links) != 1 {
		t.Fatalf("RankModel response: %d classes, %d links", len(rank.Classes), len(rank.Classes[0].Links))
	}
}

func TestClientErrors(t *testing.T) {
	c, s := newClientServer(t)
	ctx := context.Background()

	// Client-side validation rejects before any network traffic.
	if _, err := c.ClassifyModel(ctx, "", nil); err == nil {
		t.Error("empty request accepted")
	}

	// A server-side rejection surfaces as a ServiceError with the
	// server's message.
	_, err := c.ClassifyModel(ctx, "nope", []int{0})
	se, ok := err.(*tmark.ServiceError)
	if !ok {
		t.Fatalf("ClassifyModel(unknown model): %v, want *ServiceError", err)
	}
	if se.StatusCode != 404 || se.Overloaded() {
		t.Errorf("ServiceError %+v, want status 404, not overloaded", se)
	}

	// Draining flips readiness to an overloaded ServiceError.
	s.Drain()
	err = c.Ready(ctx)
	se, ok = err.(*tmark.ServiceError)
	if !ok || !se.Overloaded() {
		t.Fatalf("Ready while draining: %v, want overloaded ServiceError", err)
	}
}

// flaky wraps a healthy tmarkd handler behind fail rejections: the
// first fail requests are shed with a 503 + Retry-After, everything
// after reaches the real server — the flapping-server shape a client
// sees during a drain/restart or a quarantined-model rebuild.
func flaky(t *testing.T, fail int, inner http.Handler) (*tmark.Client, *int32) {
	t.Helper()
	var calls int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= int32(fail) {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"flapping"}`))
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := tmark.NewClient(ts.URL)
	c.Retry = &tmark.Retry{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Jitter: 0.5}
	return c, &calls
}

func TestClientRetriesFlappingServer(t *testing.T) {
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	cfg.ICAUpdate = false
	s, err := serve.New(serve.Options{
		Datasets: map[string]*hin.Graph{"toy": clientGraph()},
		Config:   cfg,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(s.Drain)

	c, calls := flaky(t, 3, s.Handler())
	resp, err := c.ClassifyModel(context.Background(), "", []int{0})
	if err != nil {
		t.Fatalf("ClassifyModel through flapping server: %v", err)
	}
	if !resp.Converged {
		t.Errorf("converged=false after retries")
	}
	if got := atomic.LoadInt32(calls); got != 4 {
		t.Errorf("server saw %d requests, want 4 (3 shed + 1 served)", got)
	}
}

func TestClientRetryExhaustionAndNonTransient(t *testing.T) {
	// Permanent overload: the policy's attempts are spent and the last
	// ServiceError comes back with the server's Retry-After hint.
	c, calls := flaky(t, 1000, http.NotFoundHandler())
	_, err := c.ClassifyModel(context.Background(), "", []int{0})
	se := &tmark.ServiceError{}
	if !errors.As(err, &se) || !se.Overloaded() {
		t.Fatalf("exhausted retries: %v, want overloaded ServiceError", err)
	}
	if got := atomic.LoadInt32(calls); got != 5 {
		t.Errorf("server saw %d requests, want MaxAttempts=5", got)
	}

	// A 404 is not transient: exactly one attempt, however many the
	// policy allows.
	c2, calls2 := flaky(t, 0, http.NotFoundHandler())
	_, err = c2.ClassifyModel(context.Background(), "", []int{0})
	if !errors.As(err, &se) || se.StatusCode != http.StatusNotFound {
		t.Fatalf("404: %v, want not-found ServiceError", err)
	}
	if got := atomic.LoadInt32(calls2); got != 1 {
		t.Errorf("server saw %d requests for a 404, want 1 (no retry)", got)
	}
}

func TestRetryDelayHonoursHintAndCap(t *testing.T) {
	r := &tmark.Retry{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	if got := r.Delay(1, 0); got != 10*time.Millisecond {
		t.Errorf("delay(1) = %v, want base 10ms", got)
	}
	if got := r.Delay(3, 0); got != 40*time.Millisecond {
		t.Errorf("delay(3) = %v, want doubled 40ms", got)
	}
	// The server's Retry-After hint floors the backoff…
	if got := r.Delay(1, 60*time.Millisecond); got != 60*time.Millisecond {
		t.Errorf("delay with hint = %v, want the 60ms hint", got)
	}
	// …and MaxDelay caps everything, hint included, so a long drain
	// cannot pin a client.
	if got := r.Delay(1, time.Hour); got != 80*time.Millisecond {
		t.Errorf("delay with huge hint = %v, want the 80ms cap", got)
	}
	if got := r.Delay(30, 0); got != 80*time.Millisecond {
		t.Errorf("delay(30) = %v, want the 80ms cap", got)
	}
}
