// Package serve implements tmarkd's HTTP layer: a warm-model cache over
// immutable T-Mark models (the normalized tensors O and R and the feature
// matrix W are fixed per dataset + hyperparameters — only the restart
// vector changes per request) and a request coalescer that batches
// concurrent /v1/classify queries against the same warm model into one
// blocked lockstep solve.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"tmark/internal/tmark"
)

// MaxSeeds bounds the seed list of one request; a query naming more
// seeds than this is rejected before any work happens.
const MaxSeeds = 1 << 20

// ClassifyRequest is the wire form of one /v1/classify query: a seed node
// set (the restart set of eq. 11) plus optional hyperparameter overrides.
// Overridden hyperparameters select a different warm model from the
// cache; requests that name the same model with the same hyperparameters
// share a warm model and can coalesce into one lockstep solve.
type ClassifyRequest struct {
	// Model references the model to query: a name, a pinned
	// name@sha256:… or a bare sha256:… content hash. Names resolve
	// artifact-first (a compiled blob in the server's model directory)
	// with the loaded graph of the same name as fallback. Empty selects
	// the server's default model.
	Model string `json:"model,omitempty"`
	// Seeds are the node indices of the query's restart set.
	Seeds []int `json:"seeds"`
	// ICA enables the per-query self-training reseed (the query's seed
	// set plays the role of the labelled set).
	ICA bool `json:"ica,omitempty"`
	// Scores requests the full per-node score vector in the response.
	Scores bool `json:"scores,omitempty"`
	// TopNodes bounds the ranked node list (default 10 when Scores is
	// unset, 0 otherwise).
	TopNodes int `json:"top_nodes,omitempty"`
	// TopLinks bounds the link-type ranking (default: all link types).
	TopLinks int `json:"top_links,omitempty"`
	// Quality selects the solve tier: "exact" (plain fixed-point
	// iteration), "accelerated" (extrapolated power method, identical
	// predictions in fewer iterations) or "fast" (linearized approximate
	// solve). Empty inherits the server's default tier. Any other value
	// is rejected with 400 — never silently defaulted.
	Quality string `json:"quality,omitempty"`

	// Hyperparameter overrides; nil keeps the server's base value.
	Alpha         *float64 `json:"alpha,omitempty"`
	Gamma         *float64 `json:"gamma,omitempty"`
	Lambda        *float64 `json:"lambda,omitempty"`
	Epsilon       *float64 `json:"epsilon,omitempty"`
	MaxIterations *int     `json:"max_iterations,omitempty"`
}

// DecodeClassifyRequest parses and validates one /v1/classify body. It is
// strict — unknown fields, trailing data, non-finite numbers (which
// encoding/json already rejects) and malformed seed lists all error —
// and it never panics, whatever the input: it is fuzzed.
func DecodeClassifyRequest(r io.Reader) (*ClassifyRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req ClassifyRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: decode request: %w", err)
	}
	// A second document (or any trailing token) means the body was not
	// one JSON object.
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("serve: trailing data after request object")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the request's model-independent invariants; the
// server checks seed indices against the model's node count later.
func (r *ClassifyRequest) Validate() error {
	if len(r.Seeds) == 0 {
		return errors.New("serve: request needs at least one seed node")
	}
	if len(r.Seeds) > MaxSeeds {
		return fmt.Errorf("serve: %d seeds exceeds the limit %d", len(r.Seeds), MaxSeeds)
	}
	for _, s := range r.Seeds {
		if s < 0 {
			return fmt.Errorf("serve: negative seed %d", s)
		}
	}
	if r.TopNodes < 0 || r.TopLinks < 0 {
		return errors.New("serve: top_nodes and top_links must be non-negative")
	}
	for name, p := range map[string]*float64{
		"alpha": r.Alpha, "gamma": r.Gamma, "lambda": r.Lambda, "epsilon": r.Epsilon,
	} {
		if p != nil && (math.IsNaN(*p) || math.IsInf(*p, 0)) {
			return fmt.Errorf("serve: %s must be finite", name)
		}
	}
	if r.MaxIterations != nil && *r.MaxIterations <= 0 {
		return errors.New("serve: max_iterations must be positive")
	}
	if _, err := tmark.ParseQuality(r.Quality); err != nil {
		return err
	}
	return nil
}

// NodeScore is one entry of the ranked node list.
type NodeScore struct {
	Node  int     `json:"node"`
	Name  string  `json:"name,omitempty"`
	Score float64 `json:"score"`
}

// LinkScore is one entry of the link-type ranking: the stationary
// probability z̄_k measuring relation k's importance to the query class.
type LinkScore struct {
	Relation int     `json:"relation"`
	Name     string  `json:"name,omitempty"`
	Score    float64 `json:"score"`
}

// ClassifyResponse is the wire form of one /v1/classify answer. Scores
// are emitted through encoding/json's shortest-round-trip float
// formatting, so the decoded float64 values are bitwise identical to the
// solver's.
type ClassifyResponse struct {
	// Model echoes the model reference that answered (the server's
	// default when the request named none).
	Model string `json:"model,omitempty"`
	// ModelHash is the content identity (sha256:…) of the substrate
	// that answered: the activated artifact's blob hash, or the
	// canonical encoding hash of a raw-built model (the two agree for
	// equal graph + config — compilation is deterministic). Pin it as
	// model@sha256:… to keep getting bit-identical answers.
	ModelHash string `json:"model_hash,omitempty"`
	Seeds     int    `json:"seeds"`
	// Quality echoes the tier that actually solved the query ("exact",
	// "accelerated" or "fast"), after server defaults applied.
	Quality    string  `json:"quality"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Residual   float64 `json:"residual,omitempty"`
	// Stopped carries the cancellation error of a drained or cancelled
	// query; the scores are then the last completed iteration's state —
	// a usable partial solution.
	Stopped string `json:"stopped,omitempty"`
	// Coalesced is the width of the lockstep batch this query rode in
	// (1 = it ran alone).
	Coalesced int         `json:"coalesced"`
	Scores    []float64   `json:"scores,omitempty"`
	TopNodes  []NodeScore `json:"top_nodes,omitempty"`
	Links     []LinkScore `json:"links,omitempty"`
}

// ClassRanking is one class's slice of a /v1/rank answer.
type ClassRanking struct {
	Class     int         `json:"class"`
	Name      string      `json:"name,omitempty"`
	Converged bool        `json:"converged"`
	Links     []LinkScore `json:"links"`
}

// RankResponse is the wire form of a /v1/rank answer: the per-class
// link-type rankings of the model's own labelled classes. Quality is
// the tier that produced the rankings: "exact" (also serving
// quality=accelerated requests — the full solve is cached once per warm
// model, so there is no iteration count to cut) or "fast".
type RankResponse struct {
	Model string `json:"model,omitempty"`
	// ModelHash is the substrate's content identity (see
	// ClassifyResponse.ModelHash).
	ModelHash string         `json:"model_hash,omitempty"`
	Quality   string         `json:"quality"`
	Classes   []ClassRanking `json:"classes"`
}

// ErrorResponse is the JSON body of every non-2xx answer. 503s
// additionally carry a machine-readable Reason so clients can
// distinguish "the model is quarantined" from ordinary load shedding
// without parsing prose.
type ErrorResponse struct {
	Error string `json:"error"`
	// Reason is one of the Reason* constants on 503 answers, empty on
	// every other status.
	Reason string `json:"reason,omitempty"`
}

// The machine-readable 503 reasons.
const (
	// ReasonQuarantined: the target model's ingest engine is poisoned;
	// reads keep serving the last sealed version, mutations are refused
	// until recovery (automatic with a WAL) or restart.
	ReasonQuarantined = "quarantined"
	// ReasonDraining: the server is shutting down gracefully.
	ReasonDraining = "draining"
	// ReasonOverloaded: transient load shedding (full queue, build
	// fault); retry after the Retry-After hint.
	ReasonOverloaded = "overloaded"
)
