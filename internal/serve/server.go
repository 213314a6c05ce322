package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tmark/internal/artifact"
	"tmark/internal/hin"
	"tmark/internal/obs"
	"tmark/internal/stream"
	"tmark/internal/tmark"
)

// Defaults for the zero values of Options.
const (
	DefaultCacheSize     = 4
	DefaultMaxBatch      = 8
	DefaultQueueDepth    = 64
	DefaultMaxConcurrent = 2
	DefaultMaxBodyBytes  = 1 << 20
	DefaultTopNodes      = 10
	DefaultRetryAfter    = time.Second
)

// Options configures a Server. At least one of Datasets and ModelDir
// must be set.
type Options struct {
	// Datasets maps model names to loaded graphs. Every name must pass
	// artifact.ValidName, the grammar of model reference names; a name
	// is also the model's write-ahead-log directory under WALDir. The
	// graphs must be fully built (a model is constructed from each on
	// first use) and must not be mutated afterwards.
	Datasets map[string]*hin.Graph
	// Default names the model used by requests that name none. It may
	// stay empty when exactly one model is available (one loaded
	// dataset, or — with no datasets — one named artifact reference).
	Default string
	// ModelDir roots the content-addressed artifact registry (see
	// `tmark build`). When set, model references resolve artifact-first:
	// a request's model name that the registry knows activates by
	// reading and verifying the compiled blob (O(ms)) instead of
	// rebuilding from the raw graph; a name the registry does not know,
	// or whose blob fails verification, falls back to the loaded graph
	// of the same name. A pinned reference (name@sha256:…) is answered
	// only by bytes that hash to its pin.
	ModelDir string
	// Config is the base hyperparameter set; the zero value means
	// tmark.DefaultConfig(). Per-request overrides derive new cache keys
	// from it.
	Config tmark.Config
	// DefaultQuality is the solve tier of requests that name none; the
	// zero value (tmark.QualityDefault) means exact. Requests override it
	// per query with "quality".
	DefaultQuality tmark.Quality
	// CacheSize bounds the warm-model LRU cache (default 4).
	CacheSize int
	// MaxBatch bounds the width of one coalesced lockstep solve
	// (default 8).
	MaxBatch int
	// QueueDepth bounds the per-model admission queue; a full queue
	// rejects with 503 (default 64).
	QueueDepth int
	// MaxConcurrent bounds how many batch solves run at once across all
	// warm models (default 2). One model can have that many batches in
	// flight; a batch keeps filling while another batch of its model
	// solves.
	MaxConcurrent int
	// MaxBodyBytes bounds a /v1/classify or /v1/ingest request body
	// (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfter is the backoff hint carried in the Retry-After header
	// of every 503 (load shed, drain, quarantined model); default 1s.
	RetryAfter time.Duration
	// ScrubRegistry runs a registry scrub at startup: blob checksums
	// verify, corrupt blobs quarantine into <ModelDir>/corrupt/, and
	// refs left pointing at missing blobs roll back to the newest intact
	// version. tmarkd turns this on; embedded servers opt in because a
	// scrub mutates the registry directory. Without it, damaged blobs
	// are still caught (and routed to the rebuild fallback) at
	// activation time by the per-open content-hash check.
	ScrubRegistry bool
	// WALDir, when set, gives every ingest engine a write-ahead log
	// under this directory (one subdirectory per model name): each
	// accepted /v1/ingest batch is fsync'd to the log before it applies,
	// a restarted server replays the log so a kill -9 mid-ingest loses
	// nothing, and a quarantined engine heals itself in process instead
	// of staying poisoned until restart.
	WALDir string
	// Registry receives the serving metrics and backs /metrics, /vars
	// and /debug/pprof; nil means obs.Default().
	Registry *obs.Registry
}

// Server is the tmarkd HTTP service: one mux serving the /v1 model
// endpoints, /healthz and /readyz plus the obs metrics and pprof
// endpoints, over a warm-model cache with per-model request coalescers.
type Server struct {
	opts     Options
	registry *artifact.Registry // nil without ModelDir
	obsReg   *obs.Registry
	scrub    *artifact.ScrubReport // startup registry scrub outcome; nil without ModelDir
	cache    *modelCache
	met      *metrics
	mux      *http.ServeMux
	// slots is the server-wide solve semaphore shared by every
	// coalescer (capacity MaxConcurrent); tests pre-fill it to hold
	// batches at a deterministic point.
	slots chan struct{}

	// retryAfter is Options.RetryAfter pre-rendered for the Retry-After
	// header (whole seconds, at least 1).
	retryAfter string

	// streams maps names to their live ingest engines, one per
	// dataset-backed name that has received a /v1/ingest batch (or, with
	// Options.WALDir, per name whose log survived a previous process). A
	// quarantined engine stays in the map: with a WAL it heals itself on
	// the next ingest, without one it stays sticky so later ingests keep
	// reporting the fault. Every request reads the map without a lock;
	// streamMu only serialises engine creation.
	streamMu sync.Mutex
	streams  sync.Map // name -> *stream.Engine

	// drainCtx is the parent of every coalescer's solve context and the
	// context of every /v1/rank solve. Drain cancels it first, which reaches
	// the solves of cached models, of models still building and of models
	// already evicted or quarantined but still answering their queues.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	// admitMu orders classify admission against Drain: a request
	// admitted under the read lock joins admitted before Drain, under
	// the write lock, flips draining, so Drain waits for exactly the
	// classify requests it let in.
	admitMu   sync.RWMutex
	admitted  sync.WaitGroup
	draining  atomic.Bool
	drainOnce sync.Once
}

// metrics is the request-level instrument set of one server.
type metrics struct {
	requests       *obs.Counter
	errors         *obs.Counter
	rejected       *obs.Counter
	canceled       *obs.Counter
	batches        *obs.Counter
	batchedReqs    *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	panics         *obs.Counter
	quarantines    *obs.Counter
	artifactHits   *obs.Counter
	artifactMisses *obs.Counter
	artifactFails  *obs.Counter
	latency        *obs.Latency
	batchTime      *obs.Timer
	// inflight counts the batches solving right now, across every
	// coalescer: the tmarkd_batches_inflight gauge.
	inflight atomic.Int64
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		requests:       reg.Counter("tmarkd_requests_total"),
		errors:         reg.Counter("tmarkd_errors_total"),
		rejected:       reg.Counter("tmarkd_rejected_total"),
		canceled:       reg.Counter("tmarkd_canceled_total"),
		batches:        reg.Counter("tmarkd_batches_total"),
		batchedReqs:    reg.Counter("tmarkd_batched_requests_total"),
		cacheHits:      reg.Counter("tmarkd_cache_hits_total"),
		cacheMisses:    reg.Counter("tmarkd_cache_misses_total"),
		cacheEvictions: reg.Counter("tmarkd_cache_evictions_total"),
		panics:         reg.Counter("tmarkd_panics_recovered_total"),
		quarantines:    reg.Counter("tmarkd_model_quarantines_total"),
		artifactHits:   reg.Counter("tmark_artifact_hit_total"),
		artifactMisses: reg.Counter("tmark_artifact_miss_total"),
		artifactFails:  reg.Counter("tmark_artifact_verify_fail_total"),
		latency:        obs.NewLatency(0),
		batchTime:      reg.Timer("tmarkd_batch_solve"),
	}
}

// observeBatch records one completed lockstep batch: width requests
// solved together in d.
func (m *metrics) observeBatch(width int, d time.Duration) {
	m.batches.Inc()
	m.batchedReqs.Add(int64(width))
	m.batchTime.Observe(d)
}

// New builds a Server over the given options.
func New(opts Options) (*Server, error) {
	if len(opts.Datasets) == 0 && opts.ModelDir == "" {
		return nil, errors.New("serve: no datasets loaded and no model directory")
	}
	for name := range opts.Datasets {
		if !artifact.ValidName(name) {
			return nil, fmt.Errorf("serve: dataset %q is not a valid model name (want at most 128 of [A-Za-z0-9._-], not starting with . or -)", name)
		}
	}
	var registry *artifact.Registry
	var scrub *artifact.ScrubReport
	if opts.ModelDir != "" {
		var err error
		if registry, err = artifact.OpenRegistry(opts.ModelDir); err != nil {
			return nil, err
		}
		// Heal the registry before anything resolves through it: corrupt
		// blobs move aside, dangling refs roll back to intact versions.
		if opts.ScrubRegistry {
			if scrub, err = registry.Scrub(); err != nil {
				return nil, fmt.Errorf("serve: registry scrub: %w", err)
			}
		}
	}
	if opts.Default == "" {
		switch {
		case len(opts.Datasets) == 1:
			for name := range opts.Datasets {
				opts.Default = name
			}
		case len(opts.Datasets) > 1:
			return nil, errors.New("serve: multiple datasets need an explicit default")
		default: // artifact-only serving
			infos, err := registry.List()
			if err != nil {
				return nil, err
			}
			for _, info := range infos {
				if info.Name == "" || artifact.IsShardRefName(info.Name) {
					continue
				}
				if opts.Default != "" {
					return nil, errors.New("serve: multiple artifact models need an explicit default")
				}
				opts.Default = info.Name
			}
			if opts.Default == "" {
				return nil, errors.New("serve: model directory holds no named models")
			}
		}
	}
	if _, ok := opts.Datasets[opts.Default]; !ok {
		ref, err := artifact.ParseRef(opts.Default)
		if err != nil {
			return nil, fmt.Errorf("serve: default model %q not loaded", opts.Default)
		}
		if registry == nil {
			return nil, fmt.Errorf("serve: default model %q not loaded", opts.Default)
		}
		if _, err := registry.Resolve(ref); err != nil {
			return nil, fmt.Errorf("serve: default model %q: %w", opts.Default, err)
		}
	}
	if opts.Config == (tmark.Config{}) {
		opts.Config = tmark.DefaultConfig()
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = DefaultMaxConcurrent
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}

	s := &Server{opts: opts, registry: registry, obsReg: reg, scrub: scrub, met: newMetrics(reg)}
	secs := int(opts.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	s.retryAfter = strconv.Itoa(secs)
	slots := make(chan struct{}, opts.MaxConcurrent)
	s.slots = slots
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.cache = newModelCache(s.drainCtx, opts.CacheSize,
		func(m *tmark.Model) *coalescer {
			return newCoalescer(s.drainCtx, m, opts.MaxBatch, opts.QueueDepth, slots, s.met)
		},
		s.met)

	reg.SetGauge("tmarkd_queue_depth", func() float64 { return float64(s.cache.queueDepth()) })
	reg.SetGauge("tmarkd_batches_inflight", func() float64 { return float64(s.met.inflight.Load()) })
	reg.SetGauge("tmarkd_coalesce_ratio", func() float64 {
		b := s.met.batches.Load()
		if b == 0 {
			return 0
		}
		return float64(s.met.batchedReqs.Load()) / float64(b)
	})
	reg.SetGauge("tmarkd_classify_latency_p50_seconds", func() float64 { return s.met.latency.Quantile(0.50) })
	reg.SetGauge("tmarkd_classify_latency_p99_seconds", func() float64 { return s.met.latency.Quantile(0.99) })
	reg.SetGauge("tmarkd_wal_segment_bytes", func() float64 {
		var total int64
		s.streams.Range(func(_, e any) bool {
			total += e.(*stream.Engine).WALSize()
			return true
		})
		return float64(total)
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/rank", s.handleRank)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/diff", s.handleDiff)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/vars", reg.JSONHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	// A surviving write-ahead log means a previous process died with
	// logged batches; build those engines now so the replayed state
	// serves from the first request (and a replay failure surfaces at
	// startup, not mid-traffic).
	if opts.WALDir != "" {
		for name := range opts.Datasets {
			if entries, err := os.ReadDir(s.walDirFor(name)); err == nil && len(entries) > 0 {
				if _, err := s.engineFor(name); err != nil {
					return nil, fmt.Errorf("serve: wal replay for model %q: %w", name, err)
				}
			}
		}
	}
	return s, nil
}

// ScrubReport returns the startup registry scrub's outcome, nil when
// the server runs without a model directory.
func (s *Server) ScrubReport() *artifact.ScrubReport { return s.scrub }

// Handler returns the server's mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether Drain has started. Once it reports true,
// every classify and /v1/rank solve is already cancelled — on cached
// models, on models still building and on models that left the cache
// but still answer their queues — so no solve runs on a live context.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops serving: /readyz flips to 503, new queries are
// rejected, and every in-flight or queued solve is cancelled so each
// pending request completes (with a usable partial result) within one
// solver iteration. The cancellation happens before Draining flips.
// Drain blocks until every admitted classify request has its answer
// and every cached model's coalescer has stopped. That wait covers
// only server-side work (a model build, then one cancelled solve): a
// classify request is admitted after its body is read and leaves the
// gate before its response is written, so a stalled client cannot hold
// Drain up. Shut the HTTP listener down afterwards, under a deadline,
// so the responses flush to their clients.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.drainCancel()
		s.admitMu.Lock()
		s.draining.Store(true)
		s.admitMu.Unlock()
		s.admitted.Wait()
		s.cache.stopAll()
	})
}

// admit runs fn as one admitted classify request, or reports false
// without running it when the server is draining. Drain waits for every
// fn it let in, so fn must hold only server-side work: never a read of
// the request body or a write of the response. The request is counted
// under the same lock, so once tmarkd_requests_total has counted a
// request it is either admitted or was refused by a drain already under
// way.
func (s *Server) admit(fn func()) bool {
	s.admitMu.RLock()
	s.met.requests.Inc()
	if s.draining.Load() {
		s.admitMu.RUnlock()
		return false
	}
	s.admitted.Add(1)
	s.admitMu.RUnlock()
	defer s.admitted.Done()
	fn()
	return true
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// unavailable sheds one request: a 503 carrying the server's
// Retry-After hint plus a machine-readable reason in the JSON body, so
// well-behaved clients (pkg/tmark honours the header) back off instead
// of hammering an overloaded, draining or recovering server — and can
// tell those three apart without parsing prose.
func (s *Server) unavailable(w http.ResponseWriter, msg, reason string) {
	w.Header().Set("Retry-After", s.retryAfter)
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: msg, Reason: reason})
}

// reasonFor classifies a shed error for the 503 body's reason field.
func reasonFor(err error) string {
	switch {
	case errors.Is(err, stream.ErrQuarantined):
		return ReasonQuarantined
	case errors.Is(err, ErrDraining):
		return ReasonDraining
	default:
		return ReasonOverloaded
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, "draining", ReasonDraining)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// resolve maps a request's model reference + overrides onto a warm
// model, sourced by source's rules.
func (s *Server) resolve(name string, req *ClassifyRequest) (string, *warmModel, int, error) {
	if name == "" {
		name = s.opts.Default
	}
	cfg := s.opts.Config
	if req != nil {
		if req.Alpha != nil {
			cfg.Alpha = *req.Alpha
		}
		if req.Gamma != nil {
			cfg.Gamma = *req.Gamma
		}
		if req.Lambda != nil {
			cfg.Lambda = *req.Lambda
		}
		if req.Epsilon != nil {
			cfg.Epsilon = *req.Epsilon
		}
		if req.MaxIterations != nil {
			cfg.MaxIterations = *req.MaxIterations
		}
		if err := cfg.Validate(); err != nil {
			return name, nil, http.StatusBadRequest, err
		}
	}
	key, build, status, err := s.source(name, cfg)
	if err != nil {
		return name, nil, status, err
	}
	e, err := s.cache.get(key, build)
	if err != nil {
		// A faulted (panicked) build is transient by construction — the
		// entry was dropped, so a later request rebuilds from scratch —
		// and therefore sheds as a retryable 503 rather than a 500.
		if errors.Is(err, ErrModelFault) {
			return name, nil, http.StatusServiceUnavailable, err
		}
		return name, nil, http.StatusInternalServerError, err
	}
	if req != nil {
		for _, seed := range req.Seeds {
			if seed >= e.model.Graph().N() {
				return name, nil, http.StatusBadRequest,
					fmt.Errorf("seed %d out of range: model %q has %d nodes", seed, name, e.model.Graph().N())
			}
		}
	}
	return name, e, http.StatusOK, nil
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	req, err := DecodeClassifyRequest(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		s.met.requests.Inc()
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Validate() vetted the spelling; resolve the tier against the
	// server's default so the coalescer — and the response echo — see a
	// concrete quality. Tiers mix freely inside one coalesced batch.
	quality, _ := tmark.ParseQuality(req.Quality)
	if quality == tmark.QualityDefault {
		quality = s.opts.DefaultQuality
	}
	if quality == tmark.QualityDefault {
		quality = tmark.QualityExact
	}

	var (
		name   string
		e      *warmModel
		status int
		res    tmark.ColumnResult
		width  int
	)
	if !s.admit(func() {
		name, e, status, err = s.resolve(req.Model, req)
		if err != nil {
			return
		}
		start := time.Now()
		res, width, err = e.coal.do(r.Context(), tmark.ColumnQuery{Seeds: req.Seeds, ICA: req.ICA, Quality: quality})
		s.met.latency.Observe(time.Since(start))
	}) {
		s.met.rejected.Inc()
		s.unavailable(w, "draining", ReasonDraining)
		return
	}
	if e == nil { // resolve failed
		s.met.errors.Inc()
		if status == http.StatusServiceUnavailable {
			s.unavailable(w, err.Error(), reasonFor(err))
			return
		}
		writeError(w, status, err.Error())
		return
	}
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining), errors.Is(err, ErrModelFault):
		s.met.rejected.Inc()
		s.unavailable(w, err.Error(), reasonFor(err))
		return
	case err != nil:
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.Context().Err() != nil {
		// The client is gone; its column already retired mid-batch.
		s.met.canceled.Inc()
		return
	}

	g := e.model.Graph()
	resp := &ClassifyResponse{
		Model:      name,
		ModelHash:  e.contentHash(),
		Seeds:      res.Seeds,
		Quality:    quality.String(),
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Coalesced:  width,
	}
	if len(res.Trace) > 0 {
		resp.Residual = res.Trace[len(res.Trace)-1]
	}
	if res.Stopped != nil {
		resp.Stopped = res.Stopped.Error()
	}
	if req.Scores {
		resp.Scores = res.X
	}
	topNodes := req.TopNodes
	if topNodes == 0 && !req.Scores {
		topNodes = DefaultTopNodes
	}
	resp.TopNodes = topNodeScores(g, res.X, topNodes)
	resp.Links = linkScores(g, res.Z, req.TopLinks)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
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
	top, err := parseQuery(q, "model", "top", "quality")
	if err != nil {
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	quality, err := tmark.ParseQuality(q.Get("quality"))
	if err != nil {
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if quality == tmark.QualityDefault {
		quality = s.opts.DefaultQuality
	}
	name, e, status, err := s.resolve(q.Get("model"), nil)
	if err != nil {
		s.met.errors.Inc()
		if status == http.StatusServiceUnavailable {
			s.unavailable(w, err.Error(), reasonFor(err))
			return
		}
		writeError(w, status, err.Error())
		return
	}
	g := e.model.Graph()
	// The full multi-class solve backing /v1/rank is computed at most once
	// per warm model and cached, so the accelerated tier has nothing to
	// win here: it serves the same cached reference solve as exact. Only
	// the fast tier gets its own (cheaper) cached solve.
	var full *tmark.Result
	effective := "exact"
	if quality == tmark.QualityFast {
		full = e.fastResult()
		effective = "fast"
	} else {
		full = e.fullResult()
	}
	resp := &RankResponse{Model: name, ModelHash: e.contentHash(), Quality: effective}
	for c := 0; c < full.Q(); c++ {
		cr := full.Classes[c]
		resp.Classes = append(resp.Classes, ClassRanking{
			Class:     c,
			Name:      g.Classes[c],
			Converged: cr.Converged,
			Links:     linkScores(g, cr.Z, top),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseQuery vets a GET endpoint's query string and returns its top
// parameter. Every key must be one of keys: an unknown key is refused
// like an unknown classify field, so a misspelt or retired parameter
// fails loudly instead of falling back to a default. top, when present,
// must be a non-negative decimal integer and nothing else; absent, it
// is 0.
func parseQuery(q url.Values, keys ...string) (int, error) {
	for key := range q {
		if !slices.Contains(keys, key) {
			want := strings.Join(keys[:len(keys)-1], ", ") + " or " + keys[len(keys)-1]
			return 0, fmt.Errorf("unknown query parameter %q: want %s", key, want)
		}
	}
	v := q.Get("top")
	if v == "" {
		return 0, nil
	}
	top, err := strconv.Atoi(v)
	if err != nil || top < 0 {
		return 0, errors.New("top must be a non-negative integer")
	}
	return top, nil
}

// topNodeScores ranks the nodes by score, descending, ties broken by
// lower index and NaN last (tmark.TopRanked, as Result.NodeRanking),
// truncated to top.
func topNodeScores(g *hin.Graph, x []float64, top int) []NodeScore {
	idx := tmark.TopRanked(x, top)
	if idx == nil {
		return nil
	}
	out := make([]NodeScore, len(idx))
	for i, k := range idx {
		out[i] = NodeScore{Node: k, Name: g.Nodes[k].Name, Score: x[k]}
	}
	return out
}

// linkScores ranks the link types by stationary probability in the
// order of topNodeScores (as Result.LinkRanking). top <= 0 keeps all of
// them.
func linkScores(g *hin.Graph, z []float64, top int) []LinkScore {
	if top <= 0 {
		top = len(z)
	}
	idx := tmark.TopRanked(z, top)
	if idx == nil {
		return nil
	}
	out := make([]LinkScore, len(idx))
	for i, k := range idx {
		out[i] = LinkScore{Relation: k, Name: g.Relations[k].Name, Score: z[k]}
	}
	return out
}

// ListenAndServe runs the server on addr until ctx is cancelled, then
// drains and shuts the listener down. It is the wiring used by cmd/tmarkd
// and the integration tests.
func (s *Server) ListenAndServe(ctx context.Context, addr string, shutdownTimeout time.Duration) error {
	httpSrv := &http.Server{Addr: addr, Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.Drain()
	shCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	return httpSrv.Shutdown(shCtx)
}
