// Package tmark is the public interface to the T-Mark algorithm: tensor-
// based Markov chain collective classification and link ranking for
// heterogeneous information networks, as published by Han, Chen, Tan, Ng
// and Wu. It re-exports the implementation in internal/tmark.
//
// Classify a network built with package hin:
//
//	model, err := tmark.New(g, tmark.DefaultConfig())
//	if err != nil { ... }
//	res := model.Run()
//	classes := res.Predict()          // argmax class per node
//	ranking := res.LinkRanking(0)     // link types ranked for class 0
//
// The Config fields follow the paper: Alpha is the restart probability of
// the labelled seeds, Gamma balances the feature-similarity channel
// against the relational tensor, Lambda is the ICA confidence threshold,
// and ICAUpdate toggles between T-Mark (true) and its TensorRrCc
// predecessor (false). RunWarm continues from a previous solution when
// labels change incrementally.
//
// # Concurrency
//
// Config.Workers bounds the compute concurrency: the hot-loop kernels
// (tensor contractions and the feature-matrix product) and the cosine
// construction are sharded across a pool of that many workers. 0 uses
// GOMAXPROCS, 1 runs fully serial; results are bitwise the same at
// every value. WithWorkers overrides the configured count for a single
// run.
//
// Independently of the worker pool, every iterative solve — Run,
// RunWarm, RunClass and SolveColumns — runs one lockstep engine that
// advances all of its classes or query columns at once through blocked
// (SpMM-style) kernels, so every tensor entry is streamed once per
// iteration rather than once per class. The sequential per-class
// reference solver lives in the internal/tmark tests as the oracle the
// engine is checked against, bit for bit.
//
// # Cancellation and telemetry
//
// RunContext and RunWarmContext accept a context.Context checked between
// iterations, so a run stops within one iteration of cancellation or a
// deadline and returns a partial — but fully usable — Result whose
// Stopped field holds the context error and whose Reason field records
// why the run ended:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	var st tmark.RunStats
//	res := model.RunContext(ctx, tmark.WithStats(&st),
//		tmark.WithProgress(func(class, iter int, rho float64) { ... }))
//	if res.Stopped != nil { ... } // deadline or cancellation; Predict still works
//	fmt.Print(st.String())        // per-kernel wall-time split, pool activity
//
// WithStats fills a RunStats with the run's wall time, per-class
// iteration counts and residual traces, and the wall-time split across
// the compute kernels (the two tensor contractions, the feature-matrix
// product and the ICA reseed). Collection never changes numeric results
// and a disabled collector costs only nil-check branches.
package tmark

import (
	"io"

	ihin "tmark/internal/hin"
	itmark "tmark/internal/tmark"
)

// Config holds the algorithm's hyper-parameters.
type Config = itmark.Config

// Model is a solver bound to one network.
type Model = itmark.Model

// Result bundles the per-class stationary solutions.
type Result = itmark.Result

// ClassResult is one class's stationary solution.
type ClassResult = itmark.ClassResult

// RelationScore pairs a relation (or node) index with its score.
type RelationScore = itmark.RelationScore

// Explanation attributes one node's score for one class to its
// neighbourhood, feature channel and seed restart.
type Explanation = itmark.Explanation

// RunOption configures a single RunContext / RunWarmContext call.
type RunOption = itmark.RunOption

// Quality selects a solve tier: exact fixed-point iteration, the
// extrapolated power method (identical predictions, fewer iterations)
// or the linearized approximate tier.
type Quality = itmark.Quality

// The solve tiers. QualityDefault inherits the run's WithAcceleration /
// WithApproximate options.
const (
	QualityDefault     = itmark.QualityDefault
	QualityExact       = itmark.QualityExact
	QualityAccelerated = itmark.QualityAccelerated
	QualityFast        = itmark.QualityFast
)

// ParseQuality maps the wire spelling ("exact", "accelerated", "fast",
// or "" for the default) to its tier; anything else is an error.
func ParseQuality(s string) (Quality, error) { return itmark.ParseQuality(s) }

// RunStats is the telemetry record of one run; pass via WithStats.
type RunStats = itmark.RunStats

// ClassStats summarises one class's iteration history within a run.
type ClassStats = itmark.ClassStats

// KernelStats is the per-kernel slice of a run's wall time.
type KernelStats = itmark.KernelStats

// Kernel identifies one of the solver's compute kernels.
type Kernel = itmark.Kernel

// Reason records why a run ended (see the Reason* constants).
type Reason = itmark.Reason

// Reasons a run can end with, reported in Result.Reason.
const (
	ReasonUnknown       = itmark.ReasonUnknown
	ReasonConverged     = itmark.ReasonConverged
	ReasonMaxIterations = itmark.ReasonMaxIterations
	ReasonCanceled      = itmark.ReasonCanceled
	ReasonDeadline      = itmark.ReasonDeadline
)

// DefaultConfig returns the paper's default hyper-parameters.
func DefaultConfig() Config { return itmark.DefaultConfig() }

// New builds a model for the graph; labelled nodes are the training seeds.
func New(g *ihin.Graph, cfg Config) (*Model, error) { return itmark.New(g, cfg) }

// WithStats makes the run fill s with telemetry (wall time, per-kernel
// split, per-class iteration traces, pool activity, allocation delta).
func WithStats(s *RunStats) RunOption { return itmark.WithStats(s) }

// WithProgress invokes fn after every (class, iteration) step with the
// residual rho; cancelling the run's context from fn stops the run
// within one iteration.
func WithProgress(fn func(class, iter int, rho float64)) RunOption {
	return itmark.WithProgress(fn)
}

// WithWorkers overrides Config.Workers for this run; n <= 0 keeps the
// configured value.
func WithWorkers(n int) RunOption { return itmark.WithWorkers(n) }

// WithAcceleration turns the extrapolated power method on for this run:
// periodically a jump candidate is extrapolated from the iterate history
// and vetted through one ordinary iteration pass (finite, mass-
// conserving, residual strictly decreasing); a rejected candidate falls
// back to plain iteration from the last committed state, so answers
// keep the exact tier's guarantees while converged in fewer iterations.
func WithAcceleration(on bool) RunOption { return itmark.WithAcceleration(on) }

// WithApproximate selects the linearized fast tier for this run: the
// relation distribution is frozen at uniform, collapsing the tensor
// fixed point into one sparse linear solve per class. Approximate — see
// the internal documentation for the accuracy bound.
func WithApproximate(on bool) RunOption { return itmark.WithApproximate(on) }

// ReadResultJSON decodes a Result written by Result.WriteJSON.
func ReadResultJSON(rd io.Reader) (*Result, error) { return itmark.ReadResultJSON(rd) }

// LoadResultFile reads a Result saved with Result.SaveFile.
func LoadResultFile(path string) (*Result, error) { return itmark.LoadResultFile(path) }
