package tmark_test

// The retry loop must stay responsive to the caller's context while it
// backs off: a cancelled context interrupts the inter-attempt sleep
// immediately instead of letting a long Retry-After hint pin the
// caller.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tmark/pkg/tmark"
)

func TestClientRetryCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	// Cancel shortly after the first attempt has been answered — while
	// the client is sleeping out the hinted 30s backoff. The drain
	// case: server advertises a long wait, caller gives up first.
	go func() {
		for calls.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	c := tmark.NewClient(ts.URL)
	c.Retry = &tmark.Retry{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Minute}

	start := time.Now()
	_, err := c.ClassifyModel(ctx, "", []int{0})
	elapsed := time.Since(start)

	// The call returns the last real failure (more useful than a bare
	// context error), after exactly one attempt, long before the 30s
	// hint elapses.
	var se *tmark.ServiceError
	if !errors.As(err, &se) || !se.Overloaded() {
		t.Fatalf("err = %v, want the 503 ServiceError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts after cancellation, want 1", got)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled call took %v, want prompt return (the backoff was 30s)", elapsed)
	}
}

func TestClientRetryDeadlineDuringBackoff(t *testing.T) {
	// An always-503 server with a modest hint: the per-call deadline
	// expires mid-backoff and bounds the total attempts.
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)

	c := tmark.NewClient(ts.URL)
	c.Retry = &tmark.Retry{MaxAttempts: 100, BaseDelay: 5 * time.Millisecond, MaxDelay: time.Minute}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.ClassifyModel(ctx, "", []int{0})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatalf("call against an always-503 server succeeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline-bounded call took %v", elapsed)
	}
	// The 1s hint floors every backoff, so the 300ms deadline admits
	// exactly one attempt — not the policy's hundred.
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts inside a 300ms deadline with 1s backoffs, want 1", got)
	}
}
