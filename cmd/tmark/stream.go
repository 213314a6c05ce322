package main

// `tmark ingest` is the offline twin of tmarkd's POST /v1/ingest: it
// loads a network, applies one batched edge-delta mutation through the
// streaming engine — merging it into the raw adjacency and rebuilding
// O and R from that — seals the resulting model version into the
// registry, and prints the new name@sha256:… reference. Like the
// daemon, it solves nothing: `tmark diff` or a tmarkd read solves the
// sealed version.
//
// Usage:
//
//	tmark ingest -data SPEC -deltas FILE -model-dir DIR [-name NAME]
//	             [-alpha 0.8] [-gamma 0.6] [-lambda 0.7] [-epsilon 1e-8]
//	             [-maxiter 100] [-no-ica] [-topk K] [-seed N] [-workers N]
//
// FILE holds one JSON array of deltas:
//
//	[{"op":"add","from":0,"to":14,"relation":2,"weight":1}, …]
//
// ops are "add" (accumulate, creating the edge if absent), "update"
// (replace an existing edge's weight) and "remove" (delete; no weight).
//
// `tmark diff` compares two sealed model versions: per-node
// classification flips and per-class link-type ranking shifts between
// the full solves of A and B. Solves run with one worker so the output
// is deterministic and golden-testable.
//
// Usage:
//
//	tmark diff -model-dir DIR [-top K] [-json] A B
//
// A and B are artifact references (name, name@sha256:… or sha256:…)
// resolving in -model-dir — typically two versions sealed by ingest.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"tmark/internal/artifact"
	"tmark/internal/dataset"
	"tmark/internal/hin"
	"tmark/internal/stream"
	itmark "tmark/internal/tmark"
	"tmark/internal/wal"
)

func runIngest(args []string) {
	fs := flag.NewFlagSet("tmark ingest", flag.ExitOnError)
	var (
		data     = fs.String("data", "", "network to mutate: a .json/.csv/.coo file or a built-in generator name (required)")
		deltas   = fs.String("deltas", "", "JSON file holding one array of edge deltas (required)")
		modelDir = fs.String("model-dir", "", "artifact registry the sealed versions land in (required)")
		name     = fs.String("name", "", "reference name to tag with the new version (default: the spec's base name)")
		seed     = fs.Int64("seed", 1, "seed for the built-in synthetic generators")
		alpha    = fs.Float64("alpha", 0.8, "restart probability α")
		gamma    = fs.Float64("gamma", 0.6, "feature-channel scale γ")
		lambda   = fs.Float64("lambda", 0.7, "ICA confidence threshold λ")
		epsilon  = fs.Float64("epsilon", 1e-8, "convergence threshold ε")
		maxiter  = fs.Int("maxiter", 100, "maximum iterations per solve")
		noICA    = fs.Bool("no-ica", false, "disable the ICA label update (TensorRrCc mode)")
		topK     = fs.Int("topk", 0, "sparsify the feature channel to top-K neighbours (0 = dense)")
		workers  = fs.Int("workers", 0, "compute workers (0 = GOMAXPROCS)")
		walDir   = fs.String("wal-dir", "", "write-ahead log directory: the batch is fsync'd before applying, and any log left by a crashed run replays first")
	)
	_ = fs.Parse(args)
	if *data == "" || *deltas == "" || *modelDir == "" {
		fs.Usage()
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		log.Fatalf("ingest: unexpected arguments: %v", fs.Args())
	}
	batch, err := loadDeltas(*deltas)
	if err != nil {
		log.Fatalf("ingest: %v", err)
	}
	g, err := dataset.LoadSpec(*data, *seed)
	if err != nil {
		log.Fatalf("ingest: load %s: %v", *data, err)
	}
	cfg := itmark.Config{
		Alpha: *alpha, Gamma: *gamma, Lambda: *lambda,
		Epsilon: *epsilon, MaxIterations: *maxiter,
		ICAUpdate: !*noICA, FeatureTopK: *topK,
		Workers: *workers,
	}
	reg, err := artifact.OpenRegistry(*modelDir)
	if err != nil {
		log.Fatalf("ingest: %v", err)
	}
	tag := *name
	if tag == "" {
		tag = strings.TrimSuffix(filepath.Base(*data), filepath.Ext(*data))
	}
	if !artifact.ValidName(tag) {
		log.Fatalf("ingest: %q is not a valid model name (use -name; want [A-Za-z0-9._-], not starting with . or -)", tag)
	}
	var engOpts []stream.EngineOption
	if *walDir != "" {
		l, err := wal.Open(*walDir, wal.Options{})
		if err != nil {
			log.Fatalf("ingest: %v", err)
		}
		engOpts = append(engOpts, stream.WithWAL(l))
	}
	eng, err := stream.NewEngine(tag, g, cfg, reg, engOpts...)
	if err != nil {
		log.Fatalf("ingest: %v", err)
	}
	res, err := eng.Apply(context.Background(), batch)
	if err != nil {
		log.Fatalf("ingest: apply: %v", err)
	}
	fmt.Fprintf(os.Stderr, "applied %d deltas (%d coordinates): touched %d columns, %d tubes\n",
		res.Deltas, res.Changes, res.TouchedColumns, res.TouchedTubes)
	fmt.Fprintf(os.Stderr, "sealed seq %d: sha256:%s -> sha256:%s\n", res.Seq, res.OldHash[:12], res.NewHash[:12])
	// The reference is the command's output: pin it in requests or diffs.
	fmt.Println(artifact.Ref{Name: tag, Hash: res.NewHash}.String())
}

// loadDeltas reads one JSON array of edge deltas, strictly: unknown
// fields and trailing data error, like the HTTP decoder.
func loadDeltas(path string) ([]stream.Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var batch []stream.Delta
	if err := dec.Decode(&batch); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%s: trailing data after the delta array", path)
	}
	if err := stream.ValidateDeltas(batch); err != nil {
		return nil, err
	}
	return batch, nil
}

func runDiff(args []string) {
	fs := flag.NewFlagSet("tmark diff", flag.ExitOnError)
	var (
		modelDir = fs.String("model-dir", "", "artifact registry holding the two versions (required)")
		top      = fs.Int("top", 0, "bound the flips and rank shifts reported (0 = all)")
		asJSON   = fs.Bool("json", false, "emit the diff as JSON instead of text")
	)
	_ = fs.Parse(args)
	if *modelDir == "" || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: tmark diff -model-dir DIR [-top K] [-json] A B")
		fs.PrintDefaults()
		os.Exit(2)
	}
	reg, err := artifact.OpenRegistry(*modelDir)
	if err != nil {
		log.Fatalf("diff: %v", err)
	}
	d, err := diffRefs(reg, fs.Arg(0), fs.Arg(1))
	if err != nil {
		log.Fatalf("diff: %v", err)
	}
	if *top > 0 {
		if len(d.Flips) > *top {
			d.Flips = d.Flips[:*top]
		}
		if len(d.Shifts) > *top {
			d.Shifts = d.Shifts[:*top]
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			log.Fatalf("diff: encode: %v", err)
		}
		return
	}
	if err := d.Render(os.Stdout); err != nil {
		log.Fatalf("diff: write: %v", err)
	}
}

// diffRefs opens, activates and fully solves two sealed versions and
// diffs their predictions and link-type rankings. Both solves run with
// the stored config but one worker; the answer is the same at any
// worker count.
func diffRefs(reg *artifact.Registry, refA, refB string) (*stream.Diff, error) {
	ra, err := solveRef(reg, refA)
	if err != nil {
		return nil, err
	}
	rb, err := solveRef(reg, refB)
	if err != nil {
		return nil, err
	}
	return stream.DiffResults(refA, refB, ra.graph, ra.res, rb.res)
}

type solvedRef struct {
	graph *hin.Graph
	res   *itmark.Result
}

// solveRef activates one reference and runs its full solve.
func solveRef(reg *artifact.Registry, refStr string) (*solvedRef, error) {
	ref, err := artifact.ParseRef(refStr)
	if err != nil {
		return nil, err
	}
	a, _, err := reg.OpenRef(ref)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", refStr, err)
	}
	cfg := a.BuiltConfig
	cfg.Workers = 1
	m, err := a.Activate(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", refStr, err)
	}
	return &solvedRef{graph: m.Graph(), res: m.Run()}, nil
}
