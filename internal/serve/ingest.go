package serve

// Streaming ingest. POST /v1/ingest applies one batched edge-delta
// mutation to a live model through its stream.Engine: the batch merges
// into the raw adjacency, O and R are rebuilt from it, the new version
// seals into the artifact registry under a fresh content hash, and the
// stationary solve warm-restarts from the previous (x̄, z̄). The engine
// then commits the version: from that point a name-only request
// resolves to it and is answered from the engine's memory, while
// in-flight requests keep their pinned pre-ingest model.
// GET /v1/diff compares the full solves of two sealed versions: per-node
// classification flips and per-class link-type ranking shifts.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"

	"tmark/internal/stream"
	"tmark/internal/wal"
)

// IngestRequest is the wire form of one /v1/ingest batch: a model name
// (empty selects the server's default) plus the delta list. The model
// must be dataset-backed — an artifact-only name has no source graph to
// mutate.
type IngestRequest struct {
	Model  string         `json:"model,omitempty"`
	Deltas []stream.Delta `json:"deltas"`
}

// DecodeIngestRequest parses and validates one /v1/ingest body. It is
// strict — unknown fields, trailing data and statically invalid deltas
// all error — and it never panics, whatever the input: it is fuzzed.
func DecodeIngestRequest(r io.Reader) (*IngestRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: decode ingest request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("serve: trailing data after ingest request object")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the request's graph-independent invariants; index
// ranges and edge existence are checked against the live adjacency at
// apply time.
func (r *IngestRequest) Validate() error {
	return stream.ValidateDeltas(r.Deltas)
}

// IngestResponse is the wire form of one /v1/ingest answer — the sealed
// version the batch minted. Hashes carry the sha256: prefix like every
// other model identity on the wire; pin new_hash in later /v1/classify
// or /v1/diff calls to address exactly this version.
type IngestResponse struct {
	Model   string `json:"model"`
	Seq     int    `json:"seq"`
	OldHash string `json:"old_hash"`
	NewHash string `json:"new_hash"`
	Deltas  int    `json:"deltas"`
	Changes int    `json:"changes"`
	// TouchedColumns/TouchedTubes count the O columns and R tubes the
	// batch touched. Normalisation is per column and per tube, so every
	// other run kept its previous bytes.
	TouchedColumns int `json:"touched_columns"`
	TouchedTubes   int `json:"touched_tubes"`
	// Sealed reports whether the version was written to the registry
	// (false when the server runs without -model-dir).
	Sealed bool `json:"sealed"`
	// Warm reports whether the re-solve was seeded from the previous
	// stationary state.
	Warm       bool `json:"warm"`
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	// Duplicate reports that the request's Idempotency-Key matched an
	// already-applied batch: nothing was re-applied, and the fields above
	// describe the version the original request sealed.
	Duplicate bool `json:"duplicate,omitempty"`
}

// DiffResponse is the wire form of a /v1/diff answer: the diff plus the
// exact content identities that were compared.
type DiffResponse struct {
	AHash string `json:"a_hash,omitempty"`
	BHash string `json:"b_hash,omitempty"`
	*stream.Diff
}

// engine returns the live ingest engine for name, nil when no ingest
// has targeted it yet.
func (s *Server) engine(name string) *stream.Engine {
	if e, ok := s.streams.Load(name); ok {
		return e.(*stream.Engine)
	}
	return nil
}

// walDirFor is the per-model write-ahead-log directory under
// Options.WALDir. New holds every dataset name to artifact.ValidName, so
// the name is one path element, distinct per model and never . or ..
func (s *Server) walDirFor(name string) string {
	return filepath.Join(s.opts.WALDir, name)
}

// engineFor returns name's ingest engine, creating it on first use. An
// engine needs the loaded source graph (artifact blobs are immutable
// snapshots), so only dataset-backed names can ingest. With
// Options.WALDir set the engine opens its write-ahead log first and
// replays whatever a previous process left in it.
func (s *Server) engineFor(name string) (*stream.Engine, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if e := s.engine(name); e != nil {
		return e, nil
	}
	g, ok := s.opts.Datasets[name]
	if !ok {
		return nil, fmt.Errorf("serve: model %q has no loaded graph to ingest into", name)
	}
	opts := []stream.EngineOption{stream.WithMetrics(s.obsReg)}
	if s.opts.WALDir != "" {
		log, err := wal.Open(s.walDirFor(name), wal.Options{})
		if err != nil {
			return nil, fmt.Errorf("serve: wal for model %q: %w", name, err)
		}
		opts = append(opts, stream.WithWAL(log))
	}
	eng, err := stream.NewEngine(name, g, s.opts.Config, s.registry, opts...)
	if err != nil {
		return nil, err
	}
	s.streams.Store(name, eng)
	return eng, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	s.met.requests.Inc()
	if s.draining.Load() {
		s.met.rejected.Inc()
		s.unavailable(w, "draining", ReasonDraining)
		return
	}
	req, err := DecodeIngestRequest(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	name := req.Model
	if name == "" {
		name = s.opts.Default
	}
	if _, ok := s.opts.Datasets[name]; !ok {
		s.met.errors.Inc()
		writeError(w, http.StatusNotFound, fmt.Sprintf("model %q has no loaded graph to ingest into", name))
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if len(key) > wal.MaxKeyLen {
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("Idempotency-Key of %d bytes exceeds the %d-byte cap", len(key), wal.MaxKeyLen))
		return
	}
	eng, err := s.engineFor(name)
	if err != nil {
		s.met.errors.Inc()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	res, err := eng.ApplyKeyed(r.Context(), key, req.Deltas)
	switch {
	case errors.Is(err, stream.ErrQuarantined):
		// A mid-ingest fault poisoned the engine: the last sealed version
		// keeps serving reads, but mutations are refused. With a WAL the
		// engine already tried (and failed) to heal itself; without one
		// the quarantine holds until restart. Either way, shed as a 503
		// so well-behaved clients back off on the Retry-After hint.
		s.met.quarantines.Inc()
		s.met.rejected.Inc()
		s.unavailable(w, err.Error(), reasonFor(err))
		return
	case err != nil:
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, &IngestResponse{
		Model:          res.Name,
		Seq:            res.Seq,
		OldHash:        "sha256:" + res.OldHash,
		NewHash:        "sha256:" + res.NewHash,
		Deltas:         res.Deltas,
		Changes:        res.Changes,
		TouchedColumns: res.TouchedColumns,
		TouchedTubes:   res.TouchedTubes,
		Sealed:         res.Sealed,
		Warm:           res.Warm,
		Iterations:     res.Iterations,
		Converged:      res.Converged,
		Duplicate:      res.Duplicate,
	})
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.met.requests.Inc()
	if s.draining.Load() {
		s.met.rejected.Inc()
		s.unavailable(w, "draining", ReasonDraining)
		return
	}
	q := r.URL.Query()
	top, err := parseQuery(q, "a", "b", "top")
	refA, refB := q.Get("a"), q.Get("b")
	if err == nil && (refA == "" || refB == "") {
		err = errors.New("a and b model references required")
	}
	if err != nil {
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	_, ea, status, err := s.resolve(refA, nil)
	if err == nil {
		var eb *warmModel
		if _, eb, status, err = s.resolve(refB, nil); err == nil {
			s.serveDiff(w, refA, refB, top, ea, eb)
			return
		}
	}
	s.met.errors.Inc()
	if status == http.StatusServiceUnavailable {
		s.unavailable(w, err.Error(), reasonFor(err))
		return
	}
	writeError(w, status, err.Error())
}

// serveDiff runs (or reuses) the two versions' cached full solves and
// writes the diff.
func (s *Server) serveDiff(w http.ResponseWriter, refA, refB string, top int, ea, eb *warmModel) {
	d, err := stream.DiffResults(refA, refB, ea.model.Graph(), ea.fullResult(), eb.fullResult())
	if err != nil {
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if top > 0 {
		if len(d.Flips) > top {
			d.Flips = d.Flips[:top]
		}
		if len(d.Shifts) > top {
			d.Shifts = d.Shifts[:top]
		}
	}
	writeJSON(w, http.StatusOK, &DiffResponse{
		AHash: ea.contentHash(),
		BHash: eb.contentHash(),
		Diff:  d,
	})
}
