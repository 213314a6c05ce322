// Package main's benchmarks regenerate every table and figure of the
// paper's evaluation (Section 6) via internal/experiments, one benchmark
// per artifact, plus ablation benches for the design choices DESIGN.md
// calls out. Each iteration performs the complete experiment at the quick
// scale; run `go run ./cmd/experiments -full` for the paper-scale
// protocol.
package main

import (
	"math/rand"
	"testing"

	"tmark/internal/baselines"
	"tmark/internal/dataset"
	"tmark/internal/eval"
	"tmark/internal/experiments"
	"tmark/internal/hin"
	"tmark/internal/markov"
	"tmark/internal/tensor"
	"tmark/internal/tmark"
)

// benchOptions keeps the sweep benchmarks affordable: one trial, three
// labelled fractions, reduced dataset scale.
func benchOptions() experiments.Options {
	opt := experiments.Quick(1)
	opt.Trials = 1
	opt.Fractions = []float64{0.1, 0.5, 0.9}
	return opt
}

func BenchmarkWorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		we := experiments.RunWorkedExample()
		if !we.Correct {
			b.Fatal("worked example misclassified")
		}
	}
}

func BenchmarkTable2ConferenceRanking(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if t := experiments.RunTable2(opt); len(t.Ranked) != 4 {
			b.Fatal("bad table 2")
		}
	}
}

func BenchmarkTable3DBLPAccuracy(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if t := experiments.RunTable3(opt); t.Mean(0.1, "T-Mark") <= 0 {
			b.Fatal("bad table 3")
		}
	}
}

func BenchmarkTable4MoviesAccuracy(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if t := experiments.RunTable4(opt); t.Mean(0.1, "EMR") <= 0 {
			b.Fatal("bad table 4")
		}
	}
}

func BenchmarkTable5DirectorRanking(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if t := experiments.RunTable5(opt); len(t.Ranked) != 5 {
			b.Fatal("bad table 5")
		}
	}
}

func BenchmarkTables6and7TagSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t6, t7 := experiments.RunTables6and7()
		if len(t6.Tags) != 41 || len(t7.Tags) != 41 {
			b.Fatal("bad tag lists")
		}
	}
}

func BenchmarkTable8TagsetComparison(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		cmp := experiments.RunTable8(opt)
		if cmp.Tagset1[0].Mean <= cmp.Tagset2[0].Mean {
			b.Fatal("tagset gap inverted")
		}
	}
}

func BenchmarkTables9and10TagRanking(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t9, t10 := experiments.RunTables9and10(opt)
		if len(t9.Ranked[0]) != 12 || len(t10.Ranked[0]) != 12 {
			b.Fatal("bad tag rankings")
		}
	}
}

func BenchmarkTable11ACMMacroF1(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if t := experiments.RunTable11(opt); t.Mean(0.1, "T-Mark") <= 0 {
			b.Fatal("bad table 11")
		}
	}
}

func BenchmarkFigure5LinkImportance(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if li := experiments.RunFigure5(opt); li.MeanImportance("concept") <= 0 {
			b.Fatal("bad figure 5")
		}
	}
}

func BenchmarkFigure6AlphaSweepDBLP(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFigure6(opt); len(s.Accuracy) != len(experiments.AlphaValues) {
			b.Fatal("bad figure 6")
		}
	}
}

func BenchmarkFigure7AlphaSweepNUS(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFigure7(opt); len(s.Accuracy) != len(experiments.AlphaValues) {
			b.Fatal("bad figure 7")
		}
	}
}

func BenchmarkFigure8GammaSweepDBLP(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFigure8(opt); len(s.Accuracy) != len(experiments.GammaValues) {
			b.Fatal("bad figure 8")
		}
	}
}

func BenchmarkFigure9GammaSweepNUS(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFigure9(opt); len(s.Accuracy) != len(experiments.GammaValues) {
			b.Fatal("bad figure 9")
		}
	}
}

func BenchmarkFigure10Convergence(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if cc := experiments.RunFigure10(opt); len(cc.Datasets) != 4 {
			b.Fatal("bad figure 10")
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// benchDBLPProblem builds one masked DBLP split shared by the ablations.
func benchDBLPProblem() (*problem, error) {
	cfg := dataset.DefaultDBLPConfig(1)
	cfg.AuthorsPerArea = 60
	full := dataset.DBLP(cfg)
	rng := rand.New(rand.NewSource(2))
	split := eval.StratifiedSplit(full, 0.3, rng)
	masked, truth := eval.MaskLabels(full, split)
	return &problem{masked: masked, truth: eval.PrimaryTruth(truth), test: split.Test}, nil
}

type problem struct {
	masked *hin.Graph
	truth  []int
	test   []bool
}

// BenchmarkAblationICA compares T-Mark against TensorRrCc (ICA label
// update on/off); the reported metric is accuracy ×1000.
func BenchmarkAblationICA(b *testing.B) {
	p, err := benchDBLPProblem()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		ica  bool
	}{{"tmark", true}, {"tensorrrcc", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				m := &baselines.TMark{Config: tmark.DefaultConfig(), ICA: mode.ica}
				scores, err := m.Scores(p.masked, rand.New(rand.NewSource(3)))
				if err != nil {
					b.Fatal(err)
				}
				acc = eval.Accuracy(baselines.Predict(scores), p.truth, p.test)
			}
			b.ReportMetric(acc*1000, "accuracy_x1000")
		})
	}
}

// BenchmarkAblationDangling compares the sparse contraction (implicit
// uniform dangling columns) against the dense reference that walks every
// cell.
func BenchmarkAblationDangling(b *testing.B) {
	g := dataset.DBLP(dataset.DefaultDBLPConfig(1))
	a := g.AdjacencyTensor()
	o := tensor.NewNodeTransition(a)
	x := make([]float64, a.N())
	z := make([]float64, a.M())
	for i := range x {
		x[i] = 1 / float64(len(x))
	}
	for k := range z {
		z[k] = 1 / float64(len(z))
	}
	dst := make([]float64, a.N())
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o.Apply(x, z, dst)
		}
	})
	b.Run("dense-reference", func(b *testing.B) {
		if testing.Short() {
			b.Skip("quadratic reference")
		}
		for i := 0; i < b.N; i++ {
			_ = tensor.DenseApplyO(o, x, z)
		}
	})
}

// BenchmarkContractionSparseVsDense measures the core O(D) contraction on
// growing networks, confirming the complexity analysis of Section 4.5.
func BenchmarkContractionSparseVsDense(b *testing.B) {
	for _, scale := range []int{50, 100, 200} {
		cfg := dataset.DefaultDBLPConfig(1)
		cfg.AuthorsPerArea = scale
		g := dataset.DBLP(cfg)
		a := g.AdjacencyTensor()
		o := tensor.NewNodeTransition(a)
		r := tensor.NewRelationTransition(a)
		x := make([]float64, a.N())
		z := make([]float64, a.M())
		for i := range x {
			x[i] = 1 / float64(len(x))
		}
		for k := range z {
			z[k] = 1 / float64(len(z))
		}
		dstX := make([]float64, a.N())
		dstZ := make([]float64, a.M())
		b.Run(benchName("authorsPerArea", scale), func(b *testing.B) {
			b.ReportMetric(float64(a.NNZ()), "nnz")
			for i := 0; i < b.N; i++ {
				o.Apply(x, z, dstX)
				r.Apply(x, dstZ)
			}
		})
	}
}

// BenchmarkAblationFeatureChannel compares dense W, sparse top-K W and no
// feature channel at all (γ=0).
func BenchmarkAblationFeatureChannel(b *testing.B) {
	p, err := benchDBLPProblem()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		gamma float64
		topK  int
	}{
		{"dense-w", 0.6, 0},
		{"topk-w", 0.6, 20},
		{"no-features", 0, 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := tmark.DefaultConfig()
				cfg.Gamma = mode.gamma
				cfg.FeatureTopK = mode.topK
				m := &baselines.TMark{Config: cfg, ICA: true}
				scores, err := m.Scores(p.masked, rand.New(rand.NewSource(3)))
				if err != nil {
					b.Fatal(err)
				}
				acc = eval.Accuracy(baselines.Predict(scores), p.truth, p.test)
			}
			b.ReportMetric(acc*1000, "accuracy_x1000")
		})
	}
}

// BenchmarkFeatureTransitionConstruction isolates the cost of building W.
func BenchmarkFeatureTransitionConstruction(b *testing.B) {
	g := dataset.DBLP(dataset.DefaultDBLPConfig(1))
	features := g.FeatureMatrix()
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			markov.FeatureTransition(features)
		}
	})
	b.Run("top20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			markov.SparseFeatureTransitionCSR(features, 20)
		}
	})
}

func benchName(prefix string, n int) string {
	return prefix + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for n > 0 {
		pos--
		buf[pos] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[pos:])
}
