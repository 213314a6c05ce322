// Command tmarkd serves T-Mark classification over HTTP: datasets are
// loaded once at startup, models are built lazily and kept warm in an
// LRU cache, and concurrent /v1/classify requests against the same
// model are coalesced into one lockstep batch solve.
//
// Usage:
//
//	tmarkd [-addr :8321] [-dataset name=spec]... [-default name] [-model-dir DIR]
//	       [-alpha 0.8] [-gamma 0.6] [-lambda 0.7] [-epsilon 1e-8]
//	       [-maxiter 100] [-no-ica] [-topk K] [-workers N] [-seed N]
//	       [-cache 4] [-max-batch 8] [-queue 64] [-max-concurrent 2]
//	       [-max-body 1048576] [-drain-timeout 30s] [-retry-after 1s]
//
// Each -dataset flag loads one network under a name, which must be a
// valid model name (at most 128 of [A-Za-z0-9._-], not starting with .
// or -). The spec is either a file path — .json (hin.Graph JSON codec),
// .csv (from,to,relation edge list) or .coo (sparse-coordinate tensor
// text) — or the name of a built-in synthetic generator: example, dblp,
// movies, nus, acm or ring (seeded by -seed). With no -dataset and no -model-dir flag the
// synthetic DBLP network is served. -default selects the model used by
// requests that name none; it may stay empty when exactly one model is
// available. Duplicate -dataset names fail fast at flag parsing.
//
// -model-dir points at the content-addressed artifact registry written
// by `tmark build`. A request's model name that the registry knows is
// served by reading the compiled artifact into memory and verifying it
// — cold start in milliseconds instead of a full tensor normalisation —
// with the loaded graph of the same name as rebuild fallback if the
// blob fails its checksum. With -model-dir and no -dataset flags
// tmarkd serves the registry's models alone.
//
// Endpoints: POST /v1/classify (seed labels in, per-node scores and
// link rankings out), GET /v1/rank?model=&top=&quality= (full-solve
// link-type ranking; any other query key is a 400), GET /v1/models
// (every resolvable model and its content hash), POST /v1/ingest
// (batched edge deltas applied incrementally; each batch seals a new
// model version, solved only when a request reads it, with the old
// versions still servable by pinned hash), GET /v1/diff?a=&b=
// (classification flips and link-type rank shifts between two sealed
// versions). Infra: /healthz (liveness), /readyz (503 while draining),
// and the observability set /metrics, /vars and /debug/pprof/.
//
// On SIGTERM or SIGINT the server stops admitting work (readyz flips to
// 503 so load balancers fail over), cancels in-flight solves — each
// returns within one solver iteration with a usable partial result —
// and shuts the listener down within -drain-timeout. Every 503 (load
// shed, drain, quarantined model) carries a Retry-After backoff hint
// (-retry-after). A drained /v1/rank full solve answers with its partial
// result; the next process solves it again from scratch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"tmark/internal/dataset"
	"tmark/internal/hin"
	"tmark/internal/serve"
	"tmark/internal/tmark"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "tmarkd: %v\n", err)
		os.Exit(1)
	}
}

// datasetSpec is one parsed -dataset flag.
type datasetSpec struct{ name, spec string }

// datasetList collects repeated -dataset name=spec flags.
type datasetList []datasetSpec

func (d *datasetList) String() string {
	parts := make([]string, len(*d))
	for i, s := range *d {
		parts[i] = s.name + "=" + s.spec
	}
	return strings.Join(parts, ",")
}

func (d *datasetList) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" || spec == "" {
		return fmt.Errorf("want name=path or name=builtin, got %q", v)
	}
	for _, s := range *d {
		if s.name == name {
			return fmt.Errorf("dataset %q declared twice", name)
		}
	}
	*d = append(*d, datasetSpec{name, spec})
	return nil
}

// run is main minus process concerns: it parses args, loads datasets,
// and serves until ctx is cancelled. Split out so tests can drive the
// whole wiring in-process.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("tmarkd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sets datasetList
	fs.Var(&sets, "dataset", "load a network as name=path (.json/.csv/.coo) or name=builtin (repeatable)")
	var (
		addr     = fs.String("addr", ":8321", "listen address")
		def      = fs.String("default", "", "dataset served when a request names none")
		seed     = fs.Int64("seed", 1, "seed for the built-in synthetic generators")
		alpha    = fs.Float64("alpha", 0.8, "restart probability α")
		gamma    = fs.Float64("gamma", 0.6, "feature-channel scale γ")
		lambda   = fs.Float64("lambda", 0.7, "ICA confidence threshold λ")
		epsilon  = fs.Float64("epsilon", 1e-8, "convergence threshold ε")
		maxiter  = fs.Int("maxiter", 100, "maximum iterations per solve")
		noICA    = fs.Bool("no-ica", false, "disable the ICA label update (TensorRrCc mode)")
		topK     = fs.Int("topk", 0, "sparsify the feature channel to top-K neighbours (0 = dense)")
		workers  = fs.Int("workers", 0, "compute workers per solve (0 = GOMAXPROCS)")
		cache    = fs.Int("cache", serve.DefaultCacheSize, "warm models kept in the LRU cache")
		maxBatch = fs.Int("max-batch", serve.DefaultMaxBatch, "maximum queries coalesced into one lockstep solve")
		queue    = fs.Int("queue", serve.DefaultQueueDepth, "admission queue depth per model (full queue → 503)")
		maxConc  = fs.Int("max-concurrent", serve.DefaultMaxConcurrent, "batch solves running at once across all models; one model can have this many in flight")
		maxBody  = fs.Int64("max-body", serve.DefaultMaxBodyBytes, "maximum /v1/classify and /v1/ingest request body bytes")
		drain    = fs.Duration("drain-timeout", 30*time.Second, "shutdown deadline after SIGTERM/SIGINT")
		modelDir = fs.String("model-dir", "", "artifact registry directory: models compiled by `tmark build` activate from their verified blobs instead of rebuilding")
		walDir   = fs.String("wal-dir", "", "write-ahead log directory for /v1/ingest: batches are fsync'd before applying and replayed after a crash")
		noScrub  = fs.Bool("no-scrub", false, "skip the startup registry scrub (with -model-dir)")
		retryDur = fs.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After backoff hint stamped on 503 responses")
		quality  = fs.String("default-quality", "", "solve tier of requests that name none: exact, accelerated or fast (default exact)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	defQuality, err := tmark.ParseQuality(*quality)
	if err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if len(sets) == 0 && *modelDir == "" {
		sets = datasetList{{"dblp", "dblp"}}
	}

	datasets := make(map[string]*hin.Graph, len(sets))
	for _, s := range sets {
		g, err := dataset.LoadSpec(s.spec, *seed)
		if err != nil {
			return fmt.Errorf("dataset %s: %w", s.name, err)
		}
		datasets[s.name] = g
		fmt.Fprintf(stderr, "tmarkd: loaded %s (%s): %s\n", s.name, s.spec, g.Stats())
	}

	if *walDir != "" {
		// Fail fast on an unusable directory: it would otherwise reject
		// every ingest.
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			return fmt.Errorf("wal dir: %w", err)
		}
	}
	srv, err := serve.New(serve.Options{
		Datasets: datasets,
		Default:  *def,
		ModelDir: *modelDir,
		Config: tmark.Config{
			Alpha: *alpha, Gamma: *gamma, Lambda: *lambda,
			Epsilon: *epsilon, MaxIterations: *maxiter,
			ICAUpdate: !*noICA, FeatureTopK: *topK,
			Workers: *workers,
		},
		DefaultQuality: defQuality,
		CacheSize:      *cache,
		MaxBatch:       *maxBatch,
		QueueDepth:     *queue,
		MaxConcurrent:  *maxConc,
		MaxBodyBytes:   *maxBody,
		RetryAfter:     *retryDur,
		WALDir:         *walDir,
		ScrubRegistry:  !*noScrub,
	})
	if err != nil {
		return err
	}
	if rep := srv.ScrubReport(); rep != nil && rep.Dirty() {
		fmt.Fprintf(stderr, "tmarkd: registry %s\n", rep)
	}
	names := make([]string, 0, len(datasets))
	for name := range datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stderr, "tmarkd: serving %s on %s\n", strings.Join(names, ", "), *addr)
	return srv.ListenAndServe(ctx, *addr, *drain)
}
