package tmark

// The streaming client surface. Ingest pushes one batched edge
// mutation into a live model via POST /v1/ingest; the server applies
// it incrementally and seals a new content-addressed version, which
// later reads solve. Diff compares two sealed versions via GET
// /v1/diff: which nodes changed class, which link types moved in a
// class's ranking.
//
// An ingest is not naturally idempotent — an add delta accumulates
// weight, so blindly replaying a batch whose first attempt actually
// committed would double-apply it. The Idempotency-Key header closes
// that hole: the server remembers applied keys and answers a resend
// with the originally sealed version. Ingest therefore sends a key on
// every attempt (a caller-pinned one via WithIdempotencyKey, or a
// random per-call key otherwise) and retries transient failures under
// the client's Retry policy exactly like the read calls, honouring the
// server's Retry-After hint.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"

	"tmark/internal/serve"
	"tmark/internal/stream"
)

// Op is the kind of one edge delta.
type Op = stream.Op

const (
	// OpAdd accumulates weight onto an edge, creating it if absent.
	OpAdd = stream.OpAdd
	// OpUpdate replaces the weight of an existing edge.
	OpUpdate = stream.OpUpdate
	// OpRemove deletes an existing edge; it takes no weight.
	OpRemove = stream.OpRemove
)

// Delta is one edge mutation of an ingest batch.
type Delta = stream.Delta

// IngestRequest is one /v1/ingest batch.
type IngestRequest = serve.IngestRequest

// IngestResponse reports what one ingest batch did: the sealed
// version's sequence number and hashes and the touched tensor regions.
// An ingest runs no solve, so it reports none. Duplicate marks an
// answer served from the server's idempotency window rather than a
// fresh apply.
type IngestResponse = serve.IngestResponse

// DiffResponse is one /v1/diff answer.
type DiffResponse = serve.DiffResponse

// Flip is one node whose predicted class differs between two versions.
type Flip = stream.Flip

// RankShift is one relation that moved in a class's link-type ranking
// between two versions.
type RankShift = stream.RankShift

// Ingest applies one batched edge mutation to the named model (""
// selects the server's default) and returns the sealed version.
// Transient failures (503 while draining, overloaded or recovering;
// transport errors) retry under the client's Retry policy; every
// attempt carries the same Idempotency-Key, so an attempt that
// committed server-side before the connection died is answered — not
// re-applied — by the retry (Duplicate set on the response). Only
// WithIdempotencyKey among the options is consulted.
func (c *Client) Ingest(ctx context.Context, model string, deltas []Delta, opts ...Option) (*IngestResponse, error) {
	req := &IngestRequest{Model: model, Deltas: deltas}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	key := applyOptions(opts).idempotencyKey
	if key == "" {
		// A fresh random key scopes idempotency to this call: the retry
		// loop below cannot double-apply, while two separate Ingest calls
		// with identical deltas stay two batches, as they should.
		var raw [16]byte
		if _, err := rand.Read(raw[:]); err != nil {
			return nil, err
		}
		key = "tmark-" + hex.EncodeToString(raw[:])
	}
	var out IngestResponse
	err = c.do(ctx, func() (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/ingest", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("Idempotency-Key", key)
		return hreq, nil
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Diff compares two sealed model versions a and b (each a name,
// name@sha256:… or sha256:… reference) and returns the classification
// flips and link-type rank shifts of moving from a to b. WithTop
// bounds both lists; other options are ignored. A pure read: retried
// under the client's Retry policy.
func (c *Client) Diff(ctx context.Context, a, b string, opts ...Option) (*DiffResponse, error) {
	o := applyOptions(opts)
	q := url.Values{}
	q.Set("a", a)
	q.Set("b", b)
	if o.top > 0 {
		q.Set("top", strconv.Itoa(o.top))
	}
	u := c.BaseURL + "/v1/diff?" + q.Encode()
	var out DiffResponse
	err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}
