package tmark

import (
	"context"
	"fmt"
	"testing"

	"tmark/internal/obs"
	"tmark/internal/sparse"
	"tmark/internal/vec"
)

// kernelCount is one kernel's Calls, Items and Cols in a RunStats.
type kernelCount struct{ calls, items, cols int64 }

func (k *kernelCount) add(calls, items, cols int) {
	k.calls += int64(calls)
	k.items += int64(items)
	k.cols += int64(cols)
}

// countEngine adds the kernel counts of one lockstep block whose column
// c iterated iters[c] times: one O, W and R call per pass over the
// operator's stored entries, applied to the columns active in that pass,
// and from the third pass on one reseed over the columns that reseed —
// every one under the class coupling, else the active ones.
func countEngine(want *[obs.NumKernels]kernelCount, m *Model, iters []int, reseeds []bool, coupled bool) {
	for t := 1; ; t++ {
		active, k := 0, 0
		for c, it := range iters {
			if it >= t {
				active++
			}
			if reseeds[c] && (coupled || it >= t) {
				k++
			}
		}
		if active == 0 {
			return
		}
		want[obs.KernelO].add(1, m.o.NNZ(), active)
		want[obs.KernelW].add(1, featureItems(m), active)
		want[obs.KernelR].add(1, m.r.NNZ(), active)
		if t > 2 && k > 0 {
			want[obs.KernelReseed].add(1, k*m.graph.N(), k)
		}
	}
}

// featureItems is the stored-entry count of W's product.
func featureItems(m *Model) int {
	switch w := m.w.(type) {
	case *sparse.Matrix:
		return w.NNZ()
	case *vec.Matrix:
		return w.Rows * w.Cols
	}
	return 0
}

// Under WithStats every kernel call counts once, over the operator's
// stored entries, applied to the columns active in that call — never
// the lanes its block is laid out at. The expected counts are derived
// from each run's own iteration counts: the lockstep passes of Run (ICA
// on and off) and RunWarm, and of SolveColumns at widths 1, 3 and 8
// with one fast column, whose sweeps count over the collapsed P and
// whose z is one R call. Serial and pooled, dense and top-K W.
func TestRunStatsCountActiveColumns(t *testing.T) {
	g := benchGraph(100)
	for _, topK := range []int{0, 8} {
		for _, workers := range []int{1, 2} {
			for _, ica := range []bool{true, false} {
				cfg := ckConfig(ica, workers)
				cfg.FeatureTopK = topK
				m := mustModel(t, g, cfg)
				capped := cfg
				capped.MaxIterations = 3
				prev := mustModel(t, g, capped).Run()
				label := fmt.Sprintf("topK=%d workers=%d ica=%v", topK, workers, ica)

				runs := map[string]func(*RunStats) *Result{
					"run":      func(st *RunStats) *Result { return m.RunContext(context.Background(), WithStats(st)) },
					"run-warm": func(st *RunStats) *Result { return m.RunWarmContext(context.Background(), prev, WithStats(st)) },
				}
				for _, name := range []string{"run", "run-warm"} {
					var st RunStats
					res := runs[name](&st)
					iters := make([]int, len(res.Classes))
					reseeds := make([]bool, len(res.Classes))
					for c, cr := range res.Classes {
						iters[c], reseeds[c] = cr.Iterations, ica
					}
					var want [obs.NumKernels]kernelCount
					countEngine(&want, m, iters, reseeds, true)
					checkKernelCounts(t, label+" "+name, &st, want)
				}

				sys, err := m.linearSystem()
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 3, 8} {
					qs := make([]ColumnQuery, w)
					for i := range qs {
						qs[i] = ColumnQuery{Seeds: []int{i, i + 17}, ICA: ica && i%2 == 1, Quality: QualityExact}
					}
					qs[0].Quality = QualityFast
					var st RunStats
					out, err := m.SolveColumns(context.Background(), qs, WithStats(&st))
					if err != nil {
						t.Fatal(err)
					}
					var want [obs.NumKernels]kernelCount
					sweeps := out[0].Iterations
					want[obs.KernelO].add(sweeps, sweeps*sys.NNZ(), sweeps)
					want[obs.KernelW].add(sweeps, sweeps*featureItems(m), sweeps)
					want[obs.KernelR].add(1, m.r.NNZ(), 1)
					iters := make([]int, w-1)
					reseeds := make([]bool, w-1)
					for i := range iters {
						iters[i], reseeds[i] = out[i+1].Iterations, qs[i+1].ICA
					}
					countEngine(&want, m, iters, reseeds, false)
					checkKernelCounts(t, fmt.Sprintf("%s columns-%d", label, w), &st, want)
				}
			}
		}
	}
}

// checkKernelCounts compares every kernel's Calls, Items and Cols in st
// with want, and logs them so two builds' counts can be compared.
func checkKernelCounts(t *testing.T, label string, st *RunStats, want [obs.NumKernels]kernelCount) {
	t.Helper()
	for k := obs.Kernel(0); k < obs.NumKernels; k++ {
		ks := st.Kernels[k]
		got := kernelCount{ks.Calls, ks.Items, ks.Cols}
		t.Logf("%s %s: %d calls, %d items, %d cols", label, k, got.calls, got.items, got.cols)
		if got != want[k] {
			t.Errorf("%s %s: %d calls, %d items, %d cols; want %d, %d, %d",
				label, k, got.calls, got.items, got.cols, want[k].calls, want[k].items, want[k].cols)
		}
	}
}
