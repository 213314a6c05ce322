package main

// `tmark build` compiles a network into a content-addressed TMARKAR1
// model artifact: the full normalisation (adjacency-tensor counting
// sorts, the cosine feature matrix) runs once here, and every later
// tmarkd start — or `tmark build` of the identical input — reuses the
// blob by hash. Compilation is deterministic, so the printed
// name@sha256:… reference is a reproducible identity, not a timestamp.
//
// Usage:
//
//	tmark build -data SPEC [-model-dir DIR] [-name NAME] [-o FILE]
//	            [-alpha 0.8] [-gamma 0.6] [-lambda 0.7] [-epsilon 1e-8]
//	            [-maxiter 100] [-no-ica] [-topk K] [-seed N] [-workers N]
//
// SPEC is the shared dataset grammar: a .json/.csv/.coo file or a
// built-in generator name (example, dblp, movies, nus, acm, ring). With
// -model-dir the artifact lands in the registry (blobs/<hash>.tmar) and
// NAME — defaulting to the spec's base name — is tagged to it; serve
// that registry with `tmarkd -model-dir DIR`. With -o the raw artifact
// is (also) written to FILE. The resolved reference prints to stdout.

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"tmark/internal/artifact"
	"tmark/internal/dataset"
	itmark "tmark/internal/tmark"
)

func runBuild(args []string) {
	fs := flag.NewFlagSet("tmark build", flag.ExitOnError)
	var (
		data     = fs.String("data", "", "network to compile: a .json/.csv/.coo file or a built-in generator name (required)")
		modelDir = fs.String("model-dir", "", "artifact registry to store the model in (the directory tmarkd serves with -model-dir)")
		name     = fs.String("name", "", "reference name to tag in the registry (default: the spec's base name)")
		out      = fs.String("o", "", "also write the raw artifact bytes to this file")
		seed     = fs.Int64("seed", 1, "seed for the built-in synthetic generators")
		alpha    = fs.Float64("alpha", 0.8, "restart probability α")
		gamma    = fs.Float64("gamma", 0.6, "feature-channel scale γ")
		lambda   = fs.Float64("lambda", 0.7, "ICA confidence threshold λ")
		epsilon  = fs.Float64("epsilon", 1e-8, "convergence threshold ε")
		maxiter  = fs.Int("maxiter", 100, "maximum iterations per solve")
		noICA    = fs.Bool("no-ica", false, "disable the ICA label update (TensorRrCc mode)")
		topK     = fs.Int("topk", 0, "sparsify the feature channel to top-K neighbours (0 = dense)")
		workers  = fs.Int("workers", 0, "compute workers for the build (0 = GOMAXPROCS; does not change the artifact)")
	)
	_ = fs.Parse(args)
	if *data == "" {
		fs.Usage()
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		log.Fatalf("build: unexpected arguments: %v", fs.Args())
	}
	if *modelDir == "" && *out == "" {
		log.Fatal("build: nowhere to put the artifact (set -model-dir and/or -o)")
	}

	g, err := dataset.LoadSpec(*data, *seed)
	if err != nil {
		log.Fatalf("build: load %s: %v", *data, err)
	}
	cfg := itmark.Config{
		Alpha: *alpha, Gamma: *gamma, Lambda: *lambda,
		Epsilon: *epsilon, MaxIterations: *maxiter,
		ICAUpdate: !*noICA, FeatureTopK: *topK,
		Workers: *workers,
	}
	blob, hash, err := artifact.Compile(g, cfg)
	if err != nil {
		log.Fatalf("build: compile %s: %v", *data, err)
	}
	fmt.Fprintf(os.Stderr, "compiled %s (%s): %d bytes, config %016x\n",
		*data, g.Stats(), len(blob), itmark.HashConfig(cfg))

	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			log.Fatalf("build: write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	ref := artifact.Ref{Hash: hash}
	if *modelDir != "" {
		reg, err := artifact.OpenRegistry(*modelDir)
		if err != nil {
			log.Fatalf("build: %v", err)
		}
		if _, err := reg.Put(blob); err != nil {
			log.Fatalf("build: store blob: %v", err)
		}
		tag := *name
		if tag == "" {
			tag = strings.TrimSuffix(filepath.Base(*data), filepath.Ext(*data))
		}
		if !artifact.ValidName(tag) {
			log.Fatalf("build: %q is not a valid model name (use -name; want [A-Za-z0-9._-], not starting with . or -)", tag)
		}
		if err := reg.Tag(tag, hash); err != nil {
			log.Fatalf("build: tag %s: %v", tag, err)
		}
		ref.Name = tag
		fmt.Fprintf(os.Stderr, "stored in %s\n", *modelDir)
	}
	// The reference is the command's output: pin it in requests or CI.
	fmt.Println(ref.String())
}
