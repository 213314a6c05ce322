package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tmark/internal/cpuid"
	"tmark/internal/fault"
	"tmark/internal/par"
	"tmark/internal/sparse"
)

// kernelBodies records, per fault point, whether each firing kernel
// call ran the vector bodies (the third fault argument).
type kernelBodies map[fault.Point][]bool

func (k kernelBodies) watch(points ...fault.Point) (remove func()) {
	var removes []func()
	for _, pt := range points {
		removes = append(removes, fault.Inject(pt, func(args ...any) {
			k[pt] = append(k[pt], args[2].(bool))
		}))
	}
	return func() {
		for _, r := range removes {
			r()
		}
	}
}

// Scratch.NoASM must select the scalar bodies for the O and R
// contractions and for the CSR feature product W, serial and pooled, at
// every width: a demoted call reports the scalar body at its fault
// point and is bitwise equal to the scalar reference (the global
// scalar selection for O and R, the single-vector MulVec for W). The
// undemoted calls report the vector body at the strides 4 and 8 on
// hosts with AVX2, so the check cannot pass by never running it.
func TestNoASMDemotionMatchesScalar(t *testing.T) {
	t.Cleanup(fault.Reset)
	rng := rand.New(rand.NewSource(404))
	a := randomTensor(rng, 48, 3, 500)
	o := NewNodeTransition(a)
	r := NewRelationTransition(a)
	var entries []sparse.Triplet
	for e := 0; e < 300; e++ {
		if row := rng.Intn(o.N()); row%6 != 0 { // every sixth row empty
			entries = append(entries, sparse.Triplet{Row: row, Col: rng.Intn(o.N()), Value: rng.Float64()})
		}
	}
	w := sparse.FromTriplets(o.N(), o.N(), entries)
	for _, workers := range []int{1, 2, 3} {
		p := par.New(workers)
		for b := 1; b <= maxWidth; b++ {
			label := fmt.Sprintf("workers %d b=%d", workers, b)
			x := negZeros(randomBlock(rng, o.N(), b))
			z := negZeros(randomBlock(rng, o.M(), b))

			// Reference: global scalar selection.
			old := useBatchASM
			useBatchASM = false
			wantN := make([]float64, o.N()*b)
			o.ApplyBatchParallel(p, NewNodeBatchScratch(o, workers, b), x, z, wantN, b)
			wantR := make([]float64, r.M()*b)
			r.ApplyBatchParallel(p, NewRelationBatchScratch(r, workers, b), x, wantR, b)
			useBatchASM = old
			wantW := make([]float64, o.N()*b)
			for c := 0; c < b; c++ {
				col := make([]float64, o.N())
				w.MulVec(column(x, o.N(), b, c), col)
				for i, v := range col {
					wantW[i*b+c] = v
				}
			}

			for _, noASM := range []bool{false, true} {
				bodies := kernelBodies{}
				remove := bodies.watch(fault.TensorNodeBatch, fault.TensorRelationBatch, fault.SparseMulBatch)
				sn := NewNodeBatchScratch(o, workers, b)
				sn.NoASM = noASM
				gotN := make([]float64, o.N()*b)
				o.ApplyBatchParallel(p, sn, x, z, gotN, b)
				sr := NewRelationBatchScratch(r, workers, b)
				sr.NoASM = noASM
				gotR := make([]float64, r.M()*b)
				r.ApplyBatchParallel(p, sr, x, gotR, b)
				sw := sparse.NewMulBatchScratch(workers)
				sw.NoASM = noASM
				gotW := make([]float64, o.N()*b)
				w.MulVecBatchParallel(p, sw, x, gotW, b)
				remove()

				l := fmt.Sprintf("%s noASM=%v", label, noASM)
				sameBits(t, l+" node", gotN, wantN)
				sameBits(t, l+" relation", gotR, wantR)
				sameBits(t, l+" feature", gotW, wantW)
				wantVector := cpuid.AVX2 && !noASM && (b == 4 || b == 8)
				for _, pt := range []fault.Point{fault.TensorNodeBatch, fault.TensorRelationBatch, fault.SparseMulBatch} {
					if got := bodies[pt]; len(got) != 1 || got[0] != wantVector {
						t.Fatalf("%s: %s ran vector bodies %v, want [%v]", l, pt, got, wantVector)
					}
				}
			}
		}
		p.Close()
	}
}

// The kernel fault points must hand the hook the real destination block,
// so a chaos test can poison exactly one iteration's output, on a vector
// stride and a scalar one.
func TestKernelFaultPointCorruptsOutput(t *testing.T) {
	t.Cleanup(fault.Reset)
	rng := rand.New(rand.NewSource(405))
	a := randomTensor(rng, 30, 2, 200)
	o := NewNodeTransition(a)
	for _, b := range []int{4, 3} { // the vector body, then the scalar one
		x := randomBlock(rng, o.N(), b)
		z := randomBlock(rng, o.M(), b)
		s := NewNodeBatchScratch(o, 1, b)
		dst := make([]float64, o.N()*b)

		fired := 0
		remove := fault.Inject(fault.TensorNodeBatch, func(args ...any) {
			fired++
			block := args[0].([]float64)
			if cols := args[1].(int); cols != b {
				t.Fatalf("fault point cols = %d, want %d", cols, b)
			}
			if len(block) != o.N()*b {
				t.Fatalf("fault point block %d cells, want %d", len(block), o.N()*b)
			}
			block[0] = math.NaN()
		})

		o.ApplyBatch(s, x, z, dst, b)
		remove()
		if fired != 1 {
			t.Fatalf("b=%d: fault point fired %d times, want 1", b, fired)
		}
		if !math.IsNaN(dst[0]) {
			t.Fatalf("b=%d: hook mutation did not reach dst: dst[0] = %v", b, dst[0])
		}
	}
}
