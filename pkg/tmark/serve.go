package tmark

// The public client side of tmarkd, the warm-model classification
// service (cmd/tmarkd). The wire types are aliases of the server's own
// (internal/serve), so a program embedding the server and a program
// talking to one over HTTP share identical structs. Scores travel
// through encoding/json's shortest-round-trip float formatting: the
// float64 values a Client decodes are bitwise identical to the solver's.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"tmark/internal/serve"
)

// ClassifyRequest is one /v1/classify query: a seed node set plus
// optional hyperparameter overrides.
type ClassifyRequest = serve.ClassifyRequest

// ClassifyResponse is one /v1/classify answer.
type ClassifyResponse = serve.ClassifyResponse

// NodeScore is one entry of a ranked node list.
type NodeScore = serve.NodeScore

// LinkScore is one entry of a link-type ranking.
type LinkScore = serve.LinkScore

// ClassRanking is one class's slice of a /v1/rank answer.
type ClassRanking = serve.ClassRanking

// RankResponse is a /v1/rank answer: per-class link-type rankings.
type RankResponse = serve.RankResponse

// ServiceError is the decoded form of a non-2xx tmarkd answer.
type ServiceError struct {
	StatusCode int    // HTTP status
	Message    string // the server's error string
	// Reason is the machine-readable cause on 503s — "quarantined",
	// "draining" or "overloaded" — and empty on other statuses (or
	// against pre-reason servers).
	Reason     string
	RetryAfter time.Duration // the server's Retry-After hint, 0 when absent
}

func (e *ServiceError) Error() string {
	return fmt.Sprintf("tmarkd: %s (status %d)", e.Message, e.StatusCode)
}

// Overloaded reports whether the error is the server shedding load
// (full admission queue, draining, or a quarantined model rebuilding);
// such requests are retryable against another replica or after backoff.
func (e *ServiceError) Overloaded() bool {
	return e.StatusCode == http.StatusServiceUnavailable
}

// Temporary reports whether retrying the same request can succeed: the
// server shed it (503) or a gateway in front dropped it (502, 504). A
// Client with a Retry policy handles these itself.
func (e *ServiceError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Retry is the client's policy for transient failures: transport errors
// and temporary statuses (503 load shed or drain, 502/504 gateways)
// are retried with exponential backoff plus jitter. When the server
// sends a Retry-After hint — tmarkd stamps one on every 503 — it is
// honoured as the floor of that attempt's delay; MaxDelay caps every
// delay, hint included, so a client aimed at a long drain still fails
// over in bounded time. Every solve is a pure function of the immutable
// warm model, so retrying a /v1/classify POST is safe.
type Retry struct {
	// MaxAttempts bounds the total tries, the first call included
	// (minimum 1; a 1 disables retrying).
	MaxAttempts int
	// BaseDelay is the pre-jitter delay before the first retry; each
	// further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps every delay, Retry-After hints included. 0 means no
	// cap.
	MaxDelay time.Duration
	// Jitter widens each delay by a uniformly random fraction of itself
	// in [0, Jitter) so synchronized clients spread out; 0 disables.
	Jitter float64
}

// DefaultRetry is the recommended client policy: four attempts, 100ms
// doubling backoff with 20% jitter, capped at 5s.
func DefaultRetry() *Retry {
	return &Retry{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second, Jitter: 0.2}
}

// Delay computes the backoff before retry number retry (1-based),
// honouring the server hint as a floor and MaxDelay as the ceiling.
func (r *Retry) Delay(retry int, hint time.Duration) time.Duration {
	d := r.BaseDelay << (retry - 1)
	if d < 0 { // absurd retry counts shift into the sign bit
		d = r.MaxDelay
	}
	if hint > d {
		d = hint
	}
	if r.Jitter > 0 && d > 0 {
		d += time.Duration(rand.Float64() * r.Jitter * float64(d))
	}
	if r.MaxDelay > 0 && d > r.MaxDelay {
		d = r.MaxDelay
	}
	return d
}

// Client talks to one tmarkd instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8321".
	BaseURL string
	// HTTPClient overrides the transport; nil uses http.DefaultClient.
	// Request deadlines and cancellation come from the per-call context
	// (a cancelled /v1/classify retires the query's column server-side
	// within one solver iteration).
	HTTPClient *http.Client
	// Retry enables automatic retry of transient failures; nil performs
	// exactly one attempt per call. See DefaultRetry.
	Retry *Retry
}

// NewClient returns a Client for the server at baseURL with the default
// retry policy.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL, Retry: DefaultRetry()} }

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Ready reports nil when the server is accepting work, and a
// ServiceError (Overloaded() == true while draining) otherwise. A
// readiness probe answers "now", so Ready never retries — callers poll
// it on their own schedule.
func (c *Client) Ready(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return err
	}
	return c.once(hreq, nil)
}

// do runs one logical call through the retry policy: newReq mints a
// fresh request per attempt (bodies are single-use), transient failures
// back off and retry, and anything else — including a cancelled
// context — returns immediately.
func (c *Client) do(ctx context.Context, newReq func() (*http.Request, error), out any) error {
	attempts := 1
	if c.Retry != nil && c.Retry.MaxAttempts > 1 {
		attempts = c.Retry.MaxAttempts
	}
	var err error
	for attempt := 1; ; attempt++ {
		req, rerr := newReq()
		if rerr != nil {
			return rerr
		}
		err = c.once(req, out)
		if err == nil || attempt >= attempts || !transient(err) {
			return err
		}
		var hint time.Duration
		var se *ServiceError
		if errors.As(err, &se) {
			hint = se.RetryAfter
		}
		timer := time.NewTimer(c.Retry.Delay(attempt, hint))
		select {
		case <-ctx.Done():
			timer.Stop()
			return err
		case <-timer.C:
		}
	}
}

// transient reports whether a failed attempt is worth retrying: a
// temporary ServiceError (503/502/504) or a transport error on a live
// context (a refused or dropped connection — the flapping-server case).
func transient(err error) bool {
	var se *ServiceError
	if errors.As(err, &se) {
		return se.Temporary()
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return ue.Err != context.Canceled && ue.Err != context.DeadlineExceeded
	}
	return false
}

// once executes the request and decodes either the expected body into
// out or the server's error envelope into a ServiceError.
func (c *Client) once(req *http.Request, out any) error {
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := http.StatusText(resp.StatusCode)
		var envelope serve.ErrorResponse
		if body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
			if json.Unmarshal(body, &envelope) == nil && envelope.Error != "" {
				msg = envelope.Error
			}
		}
		return &ServiceError{
			StatusCode: resp.StatusCode,
			Message:    msg,
			Reason:     envelope.Reason,
			RetryAfter: retryAfterHint(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("tmarkd: decode response: %w", err)
	}
	return nil
}

// retryAfterHint parses a Retry-After header: delay-seconds or an
// HTTP-date; malformed or absent values yield 0.
func retryAfterHint(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}
