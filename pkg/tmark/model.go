package tmark

// The model-reference client surface. ClassifyModel and RankModel
// address models the way the server names them — "dblp",
// "dblp@sha256:…" or a bare "sha256:…" content hash — and take
// functional options instead of positional knobs, so adding a request
// parameter never breaks a caller.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"

	"tmark/internal/serve"
)

// callOptions collects everything an Option can set. One option type
// serves both call shapes; options that a call has no use for are
// simply ignored (WithScores on RankModel, for instance).
type callOptions struct {
	quality  string
	top      int
	scores   bool
	ica      bool
	topLinks int

	alpha, gamma, lambda, epsilon *float64
	maxIterations                 *int

	idempotencyKey string
}

// Option configures one ClassifyModel or RankModel call.
type Option func(*callOptions)

func applyOptions(opts []Option) callOptions {
	var o callOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithQuality selects the solve tier: "exact", "accelerated" or
// "fast". The default (absent this option) is the server's default
// tier; an unknown spelling is rejected server-side with a 400, never
// silently defaulted.
func WithQuality(quality string) Option {
	return func(o *callOptions) { o.quality = quality }
}

// WithTop bounds the primary ranked list of the answer: the top link
// types per class for RankModel, the top scored nodes for
// ClassifyModel. 0 keeps the server default.
func WithTop(n int) Option {
	return func(o *callOptions) { o.top = n }
}

// WithIdempotencyKey pins the Idempotency-Key an Ingest call sends (at
// most 256 bytes). The server remembers the keys of applied batches, so
// a resend under the same key — a client retry, a replayed job — returns
// the originally sealed version instead of applying the batch twice.
// Absent this option, Ingest mints a random key per call, which makes
// its own automatic retries safe; supply an explicit key when retries
// span processes (a work queue redelivering the batch, for instance).
// Ignored by every call except Ingest.
func WithIdempotencyKey(key string) Option {
	return func(o *callOptions) { o.idempotencyKey = key }
}

// WithScores asks ClassifyModel for the full per-node score vector,
// bitwise identical to the solver's floats. Ignored by RankModel.
func WithScores() Option {
	return func(o *callOptions) { o.scores = true }
}

// WithICA enables the per-query self-training reseed, with the query's
// seed set playing the role of the labelled set. Ignored by RankModel.
func WithICA() Option {
	return func(o *callOptions) { o.ica = true }
}

// WithTopLinks bounds ClassifyModel's link-type ranking (default: all
// link types). Ignored by RankModel, whose bound is WithTop.
func WithTopLinks(n int) Option {
	return func(o *callOptions) { o.topLinks = n }
}

// WithAlpha overrides the restart probability α for this call. The
// override selects a different warm model server-side.
func WithAlpha(alpha float64) Option {
	return func(o *callOptions) { o.alpha = &alpha }
}

// WithGamma overrides the feature-channel scale γ for this call.
func WithGamma(gamma float64) Option {
	return func(o *callOptions) { o.gamma = &gamma }
}

// WithLambda overrides the ICA confidence threshold λ for this call.
func WithLambda(lambda float64) Option {
	return func(o *callOptions) { o.lambda = &lambda }
}

// WithEpsilon overrides the convergence threshold ε for this call.
func WithEpsilon(epsilon float64) Option {
	return func(o *callOptions) { o.epsilon = &epsilon }
}

// WithMaxIterations overrides the solve's iteration budget.
func WithMaxIterations(n int) Option {
	return func(o *callOptions) { o.maxIterations = &n }
}

// ClassifyModel runs one seed-set query against the referenced model
// via POST /v1/classify. model is a name, a pinned name@sha256:… or a
// bare sha256:… content hash; "" selects the server's default. The
// response's ModelHash is the content identity of the substrate that
// answered — pin it to keep getting bit-identical results.
func (c *Client) ClassifyModel(ctx context.Context, model string, seeds []int, opts ...Option) (*ClassifyResponse, error) {
	o := applyOptions(opts)
	req := &ClassifyRequest{
		Model:    model,
		Seeds:    seeds,
		Quality:  o.quality,
		Scores:   o.scores,
		ICA:      o.ica,
		TopNodes: o.top,
		TopLinks: o.topLinks,
		Alpha:    o.alpha, Gamma: o.gamma, Lambda: o.lambda,
		Epsilon: o.epsilon, MaxIterations: o.maxIterations,
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out ClassifyResponse
	err = c.do(ctx, func() (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/classify", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		return hreq, nil
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// RankModel fetches the per-class link-type rankings of the referenced
// model from a full warm solve via GET /v1/rank. model follows the
// same reference grammar as ClassifyModel; "" selects the server's
// default. Relevant options: WithTop, WithQuality.
func (c *Client) RankModel(ctx context.Context, model string, opts ...Option) (*RankResponse, error) {
	o := applyOptions(opts)
	q := url.Values{}
	if model != "" {
		q.Set("model", model)
	}
	if o.top > 0 {
		q.Set("top", strconv.Itoa(o.top))
	}
	if o.quality != "" {
		q.Set("quality", o.quality)
	}
	u := c.BaseURL + "/v1/rank"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	var out RankResponse
	err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ModelInfo is one entry of a ListModels answer: a resolvable model's
// name, content hash and serving source.
type ModelInfo = serve.ModelInfo

// ListModels enumerates every model the server can resolve — loaded
// graphs, registry names and untagged blobs — via GET /v1/models.
func (c *Client) ListModels(ctx context.Context) ([]ModelInfo, error) {
	var out serve.ModelsResponse
	err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/models", nil)
	}, &out)
	if err != nil {
		return nil, err
	}
	return out.Models, nil
}
