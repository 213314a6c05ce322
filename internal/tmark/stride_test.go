package tmark

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"tmark/internal/cpuid"
	"tmark/internal/fault"
	"tmark/internal/vec"
)

// kernelCall is one firing of a blocked kernel's fault point: the
// stride of the block it was handed and whether the AVX2 body ran.
type kernelCall struct {
	point  fault.Point
	stride int
	vector bool
}

// watchKernelCalls records every O, R and CSR product call until the
// returned stop, which yields the calls in firing order.
func watchKernelCalls() (stop func() []kernelCall) {
	var (
		mu    sync.Mutex
		calls []kernelCall
	)
	var removes []func()
	for _, pt := range []fault.Point{fault.TensorNodeBatch, fault.TensorRelationBatch, fault.SparseMulBatch} {
		removes = append(removes, fault.Inject(pt, func(args ...any) {
			mu.Lock()
			calls = append(calls, kernelCall{pt, args[1].(int), args[2].(bool)})
			mu.Unlock()
		}))
	}
	return func() []kernelCall {
		for _, r := range removes {
			r()
		}
		mu.Lock()
		defer mu.Unlock()
		return calls
	}
}

// mixedQueries returns w queries with distinct seed sets whose tiers
// cycle exact, accelerated, fast; every exact one reseeds (ICA).
func mixedQueries(w int) []ColumnQuery {
	qs := make([]ColumnQuery, w)
	for i := range qs {
		q := ColumnQuery{Seeds: []int{i, i + 11, i + 23 + i%5}}
		switch i % 3 {
		case 0:
			q.Quality, q.ICA = QualityExact, true
		case 1:
			q.Quality = QualityAccelerated
		case 2:
			q.Quality = QualityFast
		}
		qs[i] = q
	}
	return qs
}

// The solver owns the lane stride: every blocked kernel call of a solve
// whose blocks start with at most 8 columns is handed a block at stride
// 4 or 8, and on AVX2 hosts runs the vector body there — across the
// class runs (ICA on and off, accelerated, fast), the warm run, RunClass
// and SolveColumns at widths 1–9 with mixed tiers, serial and pooled.
// Columns retire mid-solve, so each block also steps down its strides.
func TestSolverOwnsLaneStride(t *testing.T) {
	t.Cleanup(fault.Reset)
	g := benchGraph(100)
	for _, workers := range []int{1, 2} {
		cfgs := map[bool]Config{}
		for _, ica := range []bool{true, false} {
			cfg := ckConfig(ica, workers)
			cfg.FeatureTopK = 8
			cfgs[ica] = cfg
		}
		m := mustModel(t, g, cfgs[true])
		plain := mustModel(t, g, cfgs[false])
		prev := m.Run()
		solves := []struct {
			name string
			run  func()
		}{
			{"run", func() { m.Run() }},
			{"run-no-ica", func() { plain.Run() }},
			{"run-accelerated", func() { m.RunContext(context.Background(), WithAcceleration(true)) }},
			{"run-approximate", func() { m.RunContext(context.Background(), WithApproximate(true)) }},
			{"run-warm", func() { m.RunWarm(prev) }},
			{"run-class", func() { m.RunClass(1) }},
		}
		for w := 1; w <= 9; w++ {
			qs := mixedQueries(w)
			solves = append(solves, struct {
				name string
				run  func()
			}{fmt.Sprintf("columns-%d", w), func() {
				if _, err := m.SolveColumns(context.Background(), qs); err != nil {
					t.Fatal(err)
				}
			}})
		}
		for _, sv := range solves {
			label := fmt.Sprintf("workers=%d %s", workers, sv.name)
			stop := watchKernelCalls()
			sv.run()
			calls := stop()
			fired := map[fault.Point]int{}
			for i, c := range calls {
				fired[c.point]++
				if c.stride != 4 && c.stride != 8 {
					t.Fatalf("%s: call %d (%s) handed stride %d, want 4 or 8", label, i, c.point, c.stride)
				}
				if c.vector != cpuid.AVX2 {
					t.Fatalf("%s: call %d (%s) at stride %d ran vector=%v on an AVX2=%v host",
						label, i, c.point, c.stride, c.vector, cpuid.AVX2)
				}
			}
			wantPoints := []fault.Point{fault.TensorNodeBatch, fault.TensorRelationBatch, fault.SparseMulBatch}
			if sv.name == "run-approximate" {
				wantPoints = []fault.Point{fault.SparseMulBatch} // P and W only
			}
			for _, pt := range wantPoints {
				if fired[pt] == 0 {
					t.Fatalf("%s: %s never fired", label, pt)
				}
			}
		}
	}
}

// At the start and after every retirement, in the engine and in the
// fast block, the blocks are laid out at the stride of the active
// columns and every lane from the active count up to the stride holds
// +0, in the node block and in the second block (the engine's z, the
// fast block's restart vectors). Columns retire at different sweeps, so
// the blocks step down from stride 8 to 4 and shrink inside stride 4.
func TestPadLanesHoldZero(t *testing.T) {
	t.Cleanup(fault.Reset)
	g := benchGraph(100)
	n, mm := g.N(), g.M()
	var (
		mu     sync.Mutex
		fired  = map[string]int{}
		failed string
	)
	remove := fault.Inject(fault.SolverLayout, func(args ...any) {
		active, stride := args[0].(int), args[1].(int)
		x, y := args[2].([]float64), args[3].([]float64)
		block := "engine"
		if len(y) == n*stride {
			block = "fast"
		}
		mu.Lock()
		defer mu.Unlock()
		if 0 < active && active < stride {
			fired[block]++
		}
		switch {
		case stride != vec.Stride(active):
			failed = fmt.Sprintf("%s: stride %d for %d active columns", block, stride, active)
		case len(x) != n*stride || len(y) != n*stride && len(y) != mm*stride:
			failed = fmt.Sprintf("%s: blocks of %d and %d cells at stride %d", block, len(x), len(y), stride)
		}
		for _, b := range [][]float64{x, y} {
			for p, v := range b {
				if p%stride >= active && math.Float64bits(v) != 0 {
					failed = fmt.Sprintf("%s: lane %d of row %d = %v with %d active at stride %d",
						block, p%stride, p/stride, v, active, stride)
				}
			}
		}
	})
	defer remove()
	for _, workers := range []int{1, 2} {
		cfg := ckConfig(false, workers)
		cfg.FeatureTopK = 8
		m := mustModel(t, g, cfg)
		m.Run()
		m.RunContext(context.Background(), WithApproximate(true))
		// Seven exact columns start the engine at stride 8; six fast
		// ones start the fast block there.
		exact, fast := mixedQueries(7), mixedQueries(9)
		for i := range exact {
			exact[i].Quality = QualityExact
		}
		for i := range fast {
			if i%3 == 1 {
				fast[i].Quality = QualityFast
			}
		}
		for _, qs := range [][]ColumnQuery{mixedQueries(3), exact, fast} {
			if _, err := m.SolveColumns(context.Background(), qs); err != nil {
				t.Fatal(err)
			}
		}
		if failed != "" {
			t.Fatalf("workers=%d: %s", workers, failed)
		}
	}
	if fired["engine"] == 0 || fired["fast"] == 0 {
		t.Fatalf("layouts with pad lanes: %v, want some in both blocks", fired)
	}
}
