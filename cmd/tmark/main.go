// Command tmark classifies the unlabelled nodes of a HIN and ranks its
// link types per class with the T-Mark algorithm.
//
// Usage:
//
//	tmark -in network.json [-csv] [-alpha 0.8] [-gamma 0.6] [-lambda 0.7]
//	      [-epsilon 1e-8] [-maxiter 100] [-no-ica] [-topk K] [-top 10]
//	      [-explain node] [-json] [-save result.json] [-warm result.json]
//	      [-tune] [-workers N] [-timeout 30s] [-stats] [-metrics-addr :9090]
//
// The input is a graph in the JSON format written by cmd/datagen or
// hin.Graph.SaveFile; with -csv it is a from,to,relation[,weight] edge
// list instead (labels must then already be in the file, so CSV inputs
// are mostly useful with -rank-only style inspection). Labelled nodes are
// the training seeds; the tool prints the predicted class per unlabelled
// node and the top link types per class. -explain prints the channel
// decomposition of one node's scores; -json switches the report to a
// machine-readable document.
//
// Observability: -stats prints the run's per-kernel wall-time breakdown
// to stderr; -metrics-addr serves the process metrics registry at
// /metrics (Prometheus text format), /vars (JSON) and the pprof
// endpoints under /debug/pprof/. -timeout bounds the solve, and an
// interrupt (Ctrl-C) cancels it; either way the partial result obtained
// so far is still reported.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/signal"

	"tmark/pkg/hin"
	"tmark/pkg/obs"
	"tmark/pkg/tmark"
	"tmark/pkg/tune"
)

type report struct {
	Stats       string             `json:"stats"`
	Irreducible bool               `json:"irreducible"`
	Converged   bool               `json:"converged"`
	Iterations  int                `json:"iterations"`
	Stopped     string             `json:"stopped,omitempty"`
	Predictions []prediction       `json:"predictions"`
	LinkRanking map[string][]score `json:"linkRanking"`
}

type prediction struct {
	Node       int     `json:"node"`
	Name       string  `json:"name,omitempty"`
	Class      string  `json:"class"`
	Confidence float64 `json:"confidence"`
}

type score struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tmark: ")
	// Subcommands dispatch before the classic flag surface so
	// `tmark -in …` keeps working unchanged.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "build":
			runBuild(os.Args[2:])
			return
		case "ingest":
			runIngest(os.Args[2:])
			return
		case "diff":
			runDiff(os.Args[2:])
			return
		}
	}
	var (
		in          = flag.String("in", "", "input network (required)")
		csvIn       = flag.Bool("csv", false, "input is a from,to,relation[,weight] CSV edge list")
		alpha       = flag.Float64("alpha", 0.8, "restart probability α")
		gamma       = flag.Float64("gamma", 0.6, "feature-channel scale γ")
		lambda      = flag.Float64("lambda", 0.7, "ICA confidence threshold λ")
		epsilon     = flag.Float64("epsilon", 1e-8, "convergence threshold ε")
		maxiter     = flag.Int("maxiter", 100, "maximum iterations per class")
		noICA       = flag.Bool("no-ica", false, "disable the ICA label update (TensorRrCc mode)")
		topK        = flag.Int("topk", 0, "sparsify the feature channel to top-K neighbours (0 = dense)")
		top         = flag.Int("top", 10, "link types to print per class")
		explain     = flag.Int("explain", -1, "print the channel decomposition for this node")
		asJSON      = flag.Bool("json", false, "emit a JSON report instead of text")
		save        = flag.String("save", "", "persist the solved result (stationary vectors) to this file")
		warm        = flag.String("warm", "", "warm-start from a result previously written with -save")
		auto        = flag.Bool("tune", false, "select alpha/gamma by cross-validation over the labelled nodes before solving")
		workers     = flag.Int("workers", 0, "compute workers (0 = GOMAXPROCS, 1 = serial)")
		timeout     = flag.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
		stats       = flag.Bool("stats", false, "print the run's per-kernel time breakdown to stderr")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /vars and /debug/pprof on this address")
		quality     = flag.String("quality", "", "solve tier: exact (default), accelerated (same predictions, fewer iterations) or fast (linearized approximation)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *metricsAddr != "" {
		addr, shutdown, err := obs.Serve(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", addr)
		defer shutdown(context.Background())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	g, err := load(*in, *csvIn)
	if err != nil {
		log.Fatalf("load %s: %v", *in, err)
	}

	cfg := tmark.Config{
		Alpha: *alpha, Gamma: *gamma, Lambda: *lambda,
		Epsilon: *epsilon, MaxIterations: *maxiter,
		ICAUpdate: !*noICA, FeatureTopK: *topK,
		Workers: *workers,
	}
	if *auto {
		tr, err := tune.Tune(g, cfg, tune.DefaultGrid(), 3, rand.New(rand.NewSource(1)))
		if err != nil {
			log.Fatalf("tune: %v", err)
		}
		cfg = tr.Best
		fmt.Fprintf(os.Stderr, "tuned: alpha=%.2f gamma=%.2f (cv accuracy %.3f over %d folds)\n",
			cfg.Alpha, cfg.Gamma, tr.Points[0].Accuracy, tr.Folds)
	}
	model, err := tmark.New(g, cfg)
	if err != nil {
		log.Fatalf("build model: %v", err)
	}
	var opts []tmark.RunOption
	var runStats tmark.RunStats
	if *stats {
		opts = append(opts, tmark.WithStats(&runStats))
	}
	switch tier, err := tmark.ParseQuality(*quality); {
	case err != nil:
		log.Fatal(err)
	case tier == tmark.QualityAccelerated:
		opts = append(opts, tmark.WithAcceleration(true))
	case tier == tmark.QualityFast:
		opts = append(opts, tmark.WithApproximate(true))
	}
	var res *tmark.Result
	if *warm != "" {
		prev, err := tmark.LoadResultFile(*warm)
		if err != nil {
			log.Fatalf("load warm start: %v", err)
		}
		res = model.RunWarmContext(ctx, prev, opts...)
	} else {
		res = model.RunContext(ctx, opts...)
	}
	if res.Stopped != nil {
		fmt.Fprintf(os.Stderr, "run stopped early (%s): %v; reporting partial result\n", res.Reason, res.Stopped)
	}
	if *stats {
		fmt.Fprint(os.Stderr, runStats.String())
	}
	if *save != "" {
		if err := res.SaveFile(*save); err != nil {
			log.Fatalf("save result: %v", err)
		}
		fmt.Fprintf(os.Stderr, "saved result to %s\n", *save)
	}

	if *explain >= 0 {
		if *explain >= g.N() {
			log.Fatalf("explain: node %d out of range %d", *explain, g.N())
		}
		for c := range g.Classes {
			if _, err := fmt.Fprintln(os.Stdout, model.Explain(res, *explain, c)); err != nil {
				log.Fatalf("write report: %v", err)
			}
		}
		return
	}

	rep := buildReport(g, model, res, *top)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatalf("encode: %v", err)
		}
		return
	}
	// A full pipe or closed stdout must fail the run: the report IS the
	// program's output, and `tmark ... > /full/disk` exiting 0 with a
	// truncated report is silent data loss.
	if err := printReport(os.Stdout, g, rep); err != nil {
		log.Fatalf("write report: %v", err)
	}
}

// errWriter latches the first write error so a report printer can write
// unconditionally and check once at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

func load(path string, csvIn bool) (*hin.Graph, error) {
	if !csvIn {
		return hin.LoadFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hin.ReadEdgeCSV(f)
}

func buildReport(g *hin.Graph, model *tmark.Model, res *tmark.Result, top int) *report {
	rep := &report{
		Stats:       g.Stats().String(),
		Irreducible: model.Irreducible(),
		Converged:   res.Converged(),
		Iterations:  res.MaxIterations(),
		LinkRanking: map[string][]score{},
	}
	if res.Stopped != nil {
		rep.Stopped = res.Reason.String()
	}
	pred := res.Predict()
	probs := res.LiftedProbabilities()
	for i := 0; i < g.N(); i++ {
		if g.Labeled(i) {
			continue
		}
		rep.Predictions = append(rep.Predictions, prediction{
			Node: i, Name: g.Nodes[i].Name,
			Class:      g.Classes[pred[i]],
			Confidence: probs.At(i, pred[i]),
		})
	}
	for c, class := range g.Classes {
		ranked := res.LinkRanking(c)
		limit := top
		if limit > len(ranked) {
			limit = len(ranked)
		}
		var scores []score
		for _, rs := range ranked[:limit] {
			scores = append(scores, score{Name: g.Relations[rs.Relation].Name, Score: rs.Score})
		}
		rep.LinkRanking[class] = scores
	}
	return rep
}

func printReport(w io.Writer, g *hin.Graph, rep *report) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "network: %s\n", rep.Stats)
	if !rep.Irreducible {
		fmt.Fprintln(ew, "note: adjacency tensor is reducible; uniqueness guarantees weakened")
	}
	if rep.Stopped != "" {
		fmt.Fprintf(ew, "note: run stopped early (%s); predictions are partial\n", rep.Stopped)
	}
	if !rep.Converged {
		fmt.Fprintf(ew, "note: not all classes converged within %d iterations\n", rep.Iterations)
	}
	fmt.Fprintln(ew, "\npredictions for unlabelled nodes:")
	for p, pr := range rep.Predictions {
		if p >= 50 {
			fmt.Fprintf(ew, "  … %d more\n", len(rep.Predictions)-p)
			break
		}
		name := pr.Name
		if name == "" {
			name = fmt.Sprintf("node %d", pr.Node)
		}
		fmt.Fprintf(ew, "  %-30s → %-20s (confidence %.3f)\n", name, pr.Class, pr.Confidence)
	}
	fmt.Fprintln(ew, "\nlink-type relevance per class:")
	for _, class := range g.Classes {
		fmt.Fprintf(ew, "  %s:\n", class)
		for _, s := range rep.LinkRanking[class] {
			fmt.Fprintf(ew, "    %-24s %.4f\n", s.Name, s.Score)
		}
	}
	return ew.err
}
