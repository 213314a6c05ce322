package tmark

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tmark/internal/vec"
)

// A parallel solve must equal the fully serial solve bit for bit: no
// kernel's float order depends on the worker count.
func TestRunParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 20+rng.Intn(30), 1+rng.Intn(3), 2+rng.Intn(3))
		for _, ica := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.ICAUpdate = ica
			cfg.Gamma = 0.5
			cfg.Workers = 1
			serial, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := serial.Run()

			cfg.Workers = 4
			parallel, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsBitwise(t, fmt.Sprintf("trial %d ica=%v", trial, ica), parallel.Run(), want)
		}
	}
}

// Repeated parallel runs must agree bit for bit: which worker runs a
// row block or chunk depends on scheduling, the float order only on the
// tensor.
func TestRunParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	g := randomGraph(rng, 40, 2, 3)
	cfg := DefaultConfig()
	cfg.Workers = 4
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Run()
	for trial := 0; trial < 5; trial++ {
		res := m.Run()
		for c := range first.Classes {
			if d := vec.Diff1(first.Classes[c].X, res.Classes[c].X); d != 0 {
				t.Fatalf("trial %d class %d: X not deterministic (diff %v)", trial, c, d)
			}
			if d := vec.Diff1(first.Classes[c].Z, res.Classes[c].Z); d != 0 {
				t.Fatalf("trial %d class %d: Z not deterministic (diff %v)", trial, c, d)
			}
		}
	}
}

// RunWarm must follow the same parallel machinery as Run.
func TestRunWarmParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := randomGraph(rng, 30, 2, 2)
	cfg := DefaultConfig()
	cfg.Workers = 1
	ms, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := ms.Run()
	want := ms.RunWarm(prev)

	cfg.Workers = 3
	mp, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitwise(t, "warm", mp.RunWarm(prev), want)
}

// A Model must stay safe for concurrent Run calls: each run owns its pool
// and scratch. Run under -race this doubles as the race check for the
// whole solver stack.
func TestConcurrentParallelRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomGraph(rng, 30, 2, 3)
	cfg := DefaultConfig()
	cfg.Workers = 2
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Run()
	done := make(chan *Result, 4)
	for i := 0; i < 4; i++ {
		go func() { done <- m.Run() }()
	}
	for i := 0; i < 4; i++ {
		res := <-done
		for c := range base.Classes {
			if d := vec.Diff1(base.Classes[c].X, res.Classes[c].X); d != 0 {
				t.Errorf("concurrent run %d class %d drifted by %v", i, c, d)
			}
		}
	}
}

// rChunkEntries is the entry count of one R chunk in internal/tensor
// (relationChunk): a network whose R stores more folds several partials.
const rChunkEntries = 16384

// multiChunkShape is a network whose R spans several chunks and whose O
// spans 19 row blocks, with a top-K feature channel.
var multiChunkShape = hinShape{name: "multi-chunk", n: 1200, m: 4, q: 3, edges: 6, sources: 1, components: 1, gamma: 0.6, topK: 8}

// Every answer is the same at every worker count (Theorem 3 gives each
// class one stationary point; the solver's bits must not depend on the
// pool either): Run with and without ICA, RunWarm from a capped solve,
// and SolveColumns at widths 1–9 over a mix of exact, accelerated and
// fast queries must equal their Workers-1 answers bit for bit at 2, 3
// and 8 workers, on the vector and the scalar kernels, on every random
// network shape and on one whose R spans several chunks.
func TestAnswersIndependentOfWorkerCount(t *testing.T) {
	ctx := context.Background()
	queries := make([]ColumnQuery, 9)
	for i := range queries {
		queries[i] = ColumnQuery{
			Seeds:   []int{i, i + 9, i + 18 + i%4},
			ICA:     i%2 == 0,
			Quality: []Quality{QualityExact, QualityAccelerated, QualityFast}[i%3],
		}
	}
	shapes := append(append([]hinShape(nil), hinShapes...), multiChunkShape)
	for si, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			g := randomHIN(rand.New(rand.NewSource(int64(300+si))), shape)
			cfg := DefaultConfig()
			cfg.Gamma = shape.gamma
			cfg.FeatureTopK = shape.topK
			cfg.Epsilon = 1e-12
			cfg.MaxIterations = 60
			for _, ica := range []bool{true, false} {
				cfg.ICAUpdate = ica
				m := mustModel(t, g, cfg)
				if shape.name == multiChunkShape.name && m.r.NNZ() <= 2*rChunkEntries {
					t.Fatalf("R stores %d entries, want more than two chunks", m.r.NNZ())
				}
				capCfg := cfg
				capCfg.MaxIterations = 4
				prev := mustModel(t, g, capCfg).Run()
				for _, scalar := range []bool{false, true} {
					answers := func(workers int) (run, warm *Result, cols [][]ColumnResult) {
						opts := []RunOption{WithWorkers(workers), WithScalarKernels(scalar)}
						run = m.RunContext(ctx, opts...)
						warm = m.RunWarmContext(ctx, prev, opts...)
						for w := 1; w <= len(queries); w++ {
							out, err := m.SolveColumns(ctx, queries[:w], opts...)
							if err != nil {
								t.Fatalf("width %d: %v", w, err)
							}
							cols = append(cols, out)
						}
						return run, warm, cols
					}
					wantRun, wantWarm, wantCols := answers(1)
					for _, workers := range []int{2, 3, 8} {
						label := fmt.Sprintf("ica=%v scalar=%v workers=%d", ica, scalar, workers)
						run, warm, cols := answers(workers)
						assertResultsBitwise(t, label+" run", run, wantRun)
						assertResultsBitwise(t, label+" warm", warm, wantWarm)
						for w := range cols {
							for i := range cols[w] {
								assertColumnBitwise(t, fmt.Sprintf("%s width %d column %d", label, w+1, i), &cols[w][i], &wantCols[w][i])
							}
						}
					}
				}
			}
		})
	}
}
