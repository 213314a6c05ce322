package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"tmark/internal/dataset"
	"tmark/internal/hin"
	"tmark/internal/tmark"
)

// solve-collective: one caller runs full multi-class T-Mark solves with
// ICA (Algorithm 1: eqs. 10, 8 and 12) back to back on a synthetic
// network of 4 classes × 1000 nodes and 8 link types × 48 000 edges,
// 20 % labelled (the seed picks which). No serve, stream or artifact
// code runs.
const (
	synthClasses       = 4
	synthNodesPerClass = 1000
	synthEdgesPerType  = 48000
	synthLabelFraction = 0.2
	// minAccuracy is the accuracy every solve must reach on the
	// unlabelled 80 % against the generator's classes.
	minAccuracy = 0.9
	// speedupSolves is how many solves each side of the par.speedup_x
	// replay runs.
	speedupSolves = 3
)

// synthHomophily is the share of same-class edges per link type: a few
// informative types and several noisy ones, as in the paper's networks.
var synthHomophily = []float64{0.8, 0.7, 0.6, 0.5, 0.45, 0.4, 0.35, 0.3}

// synthGraph is the workload's network with a seeded labelled subset:
// the nodes and links come from networkSeed, and seed picks which
// synthLabelFraction of each class keep their labels.
func synthGraph(seed int64) (*hin.Graph, error) {
	cfg := dataset.SynthConfig{
		Seed:          networkSeed,
		NodesPerClass: synthNodesPerClass,
		Vocab:         140,
		TokensPerNode: 18,
		FeatureFocus:  0.3,
		LabelFraction: 1,
	}
	for c := 0; c < synthClasses; c++ {
		cfg.Classes = append(cfg.Classes, fmt.Sprintf("class-%d", c))
	}
	for k, h := range synthHomophily {
		cfg.Relations = append(cfg.Relations, dataset.RelationSpec{Name: fmt.Sprintf("type-%d", k), Homophily: h, Edges: synthEdgesPerType})
	}
	g, err := dataset.Synth(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	keep := int(synthLabelFraction * synthNodesPerClass)
	g.Nodes = append([]hin.Node(nil), g.Nodes...)
	for c := 0; c < synthClasses; c++ {
		for _, i := range rng.Perm(synthNodesPerClass)[keep:] {
			g.Nodes[c*synthNodesPerClass+i].Labels = nil
		}
	}
	return g, nil
}

type solveWorkload struct {
	g     *hin.Graph
	cfg   tmark.Config
	model *tmark.Model
	first *tmark.Result // the first solve of the last phase: every later one must equal it
	iters float64       // mean per-class iterations of the first solve
	acc   float64       // the first solve's accuracy on the unlabelled nodes
}

func (w *solveWorkload) prepare(seed int64, _ int) error {
	g, err := synthGraph(seed)
	if err != nil {
		return err
	}
	w.g, w.cfg = g, benchConfig()
	return nil
}

// setup times tmark.New: the adjacency tensor, O and R normalisation
// and the top-K cosine feature transition.
func (w *solveWorkload) setup() (time.Duration, error) {
	w.model = nil
	start := time.Now()
	m, err := tmark.New(w.g, w.cfg)
	if err != nil {
		return 0, err
	}
	w.model = m
	return time.Since(start), nil
}

func (w *solveWorkload) measure(seconds int, tr *tracer) (*phase, error) {
	// Warm-up: one untimed solve.
	w.model.RunContext(context.Background())
	w.first = nil
	p := &phase{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	for op := int64(0); time.Now().Before(deadline); op++ {
		var res *tmark.Result
		at := time.Since(start)
		d := tr.do("tmark.run", 0, op, func() { res = w.model.RunContext(context.Background()) })
		p.ops.add(at, d, w.checkSolve(res))
	}
	p.wall = time.Since(start)
	p.info = map[string]any{"solves": p.ops.attempted(), "iterations_per_class": w.iters, "accuracy_unlabelled": w.acc}
	return p, nil
}

// checkSolve vets one solve: it must run to convergence, and its
// predictions and link rankings must equal the phase's first solve's,
// which must reach minAccuracy on the unlabelled nodes.
func (w *solveWorkload) checkSolve(res *tmark.Result) error {
	if res.Stopped != nil || !res.Converged() {
		return fmt.Errorf("solve did not converge (reason %v)", res.Reason)
	}
	if w.first == nil {
		if w.acc = hiddenAccuracy(w.g, res.Predict()); w.acc < minAccuracy {
			return fmt.Errorf("accuracy %.4f on the unlabelled nodes, below %.2f", w.acc, minAccuracy)
		}
		w.first = res
		total := 0
		for _, c := range res.Classes {
			total += c.Iterations
		}
		w.iters = float64(total) / float64(len(res.Classes))
		return nil
	}
	want, got := w.first.Predict(), res.Predict()
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("node %d predicted %d, first solve predicted %d", i, got[i], want[i])
		}
	}
	for c := range res.Classes {
		a, b := w.first.LinkRanking(c), res.LinkRanking(c)
		for k := range a {
			if a[k].Relation != b[k].Relation {
				return fmt.Errorf("class %d link rank %d is type %d, first solve had %d", c, k, b[k].Relation, a[k].Relation)
			}
		}
	}
	return nil
}

// hiddenAccuracy scores predictions on the unlabelled nodes against the
// generator's classes (nodes are laid out class-major).
func hiddenAccuracy(g *hin.Graph, pred []int) float64 {
	right, total := 0, 0
	for i, p := range pred {
		if g.Labeled(i) {
			continue
		}
		total++
		if p == i/synthNodesPerClass {
			right++
		}
	}
	return float64(right) / float64(max(total, 1))
}

// check has nothing left to do: every solve was checked as it finished.
func (w *solveWorkload) check(*phase) ([]opFailure, error) { return nil, nil }

func (w *solveWorkload) layers(p *phase, tr *tracer) (map[string]float64, error) {
	out := zeroLayers()
	out["tmark.iterations"] = w.iters
	out["tmark.ms_per_iteration"] = p.ops.summarize(0).P50Ms / float64(max(w.first.MaxIterations(), 1))
	var def, one []float64
	for i := 0; i < speedupSolves; i++ {
		def = append(def, float64(tr.do("tmark.run", 0, int64(-1-i), func() { w.model.RunContext(context.Background()) })))
		one = append(one, float64(tr.do("tmark.run_workers1", 0, int64(-1-i), func() {
			w.model.RunContext(context.Background(), tmark.WithWorkers(1))
		})))
	}
	out["par.speedup_x"] = median(one) / median(def)
	blobs, err := mappedBlobs()
	if err != nil {
		return nil, err
	}
	out["artifact.mapped_blobs"] = float64(blobs)
	for k, v := range kernelReplays(w.model.Substrate(), synthClasses, tr) {
		out[k] = v
	}
	for k, v := range buildReplays(w.g, w.cfg, tr) {
		out[k] = v
	}
	return out, nil
}

func (w *solveWorkload) close() { w.model = nil }
