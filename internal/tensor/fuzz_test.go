package tensor

import (
	"fmt"
	"testing"

	"tmark/internal/par"
)

// decodeApplyInput turns fuzz bytes into a tensor and a blocked call:
// byte 0 picks n in [1, 140] (up to three O row blocks), byte 1 m in
// [1, 4], byte 2 the width b in [1, 9], byte 3 the worker count in
// [1, 3] (its top bit demotes the call to the scalar bodies) and byte 4
// the entry count in [0, 64]. Each entry reads four bytes — i, j, k and
// a weight in [1, 17) — duplicates summing in Finalize. Then x (n×b) and
// z (m×b) read one byte per cell, missing bytes reading as 0, and each
// column is normalised onto the simplex; an all-zero column reads as
// uniform.
func decodeApplyInput(data []byte) (a *Tensor, x, z []float64, b, workers int, noASM bool) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n, m := 1+int(at(0))%140, 1+int(at(1))%4
	b, workers, noASM = 1+int(at(2))%9, 1+int(at(3)&0x7f)%3, at(3)&0x80 != 0
	entries := int(at(4)) % 65
	a = New(n, m)
	pos := 5
	for e := 0; e < entries; e++ {
		a.Add(int(at(pos))%n, int(at(pos+1))%n, int(at(pos+2))%m, 1+float64(at(pos+3))/16)
		pos += 4
	}
	a.Finalize()
	block := func(rows int) []float64 {
		v := make([]float64, rows*b)
		for q := range v {
			v[q] = float64(at(pos))
			pos++
		}
		for c := 0; c < b; c++ {
			var sum float64
			for i := 0; i < rows; i++ {
				sum += v[i*b+c]
			}
			for i := 0; i < rows; i++ {
				if sum == 0 {
					v[i*b+c] = 1 / float64(rows)
				} else {
					v[i*b+c] /= sum
				}
			}
		}
		return v
	}
	x = block(n)
	z = block(m)
	return a, x, z, b, workers, noASM
}

// denseFuzzN is the largest n whose columns FuzzApplyBatch also checks
// against the quadratic dense references.
const denseFuzzN = 12

// FuzzApplyBatch checks both blocked contractions on arbitrary small
// tensors: every column of ApplyBatch and of ApplyBatchParallel is
// bitwise the single-vector Apply, on the vector or the scalar bodies,
// and for n ≤ denseFuzzN lies within 1e-9 of the dense references.
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{5, 2, 3, 1, 0})                        // empty: every column and tube dangling
	f.Add([]byte{3, 1, 4, 2, 1, 0, 1, 0, 7, 9, 1, 200}) // a single entry
	// n = 3, m = 2, b = 8 on 2 workers and the scalar bodies; entry
	// (i, j, (i+j) mod 2) for every i, j stores every (i, j) tube and
	// every (j, k) column.
	full := []byte{2, 1, 7, 0x81, 9}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			full = append(full, byte(i), byte(j), byte(i+j), byte(40*i+j))
		}
	}
	f.Add(append(full, 5, 0, 9, 1, 250, 3, 3, 3, 7))
	// n = 140, m = 3, b = 5 on 3 workers: entries in all three row
	// blocks, the last one partial.
	spread := []byte{139, 2, 4, 2, 12}
	for e := 0; e < 12; e++ {
		spread = append(spread, byte(e*12), byte(139-e*11), byte(e), byte(e*20))
	}
	f.Add(spread)
	pools := []*par.Pool{par.New(1), par.New(2), par.New(3)}
	f.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, x, z, b, workers, noASM := decodeApplyInput(data)
		o, r := NewNodeTransition(a), NewRelationTransition(a)
		n, m, p := o.N(), o.M(), pools[workers-1]
		so, soP := NewNodeBatchScratch(o, 1, b), NewNodeBatchScratch(o, workers, b)
		sr, srP := NewRelationBatchScratch(r, 1, b), NewRelationBatchScratch(r, workers, b)
		so.NoASM, soP.NoASM, sr.NoASM, srP.NoASM = noASM, noASM, noASM, noASM
		dst, dstP := make([]float64, n*b), make([]float64, n*b)
		dstZ, dstZP := make([]float64, m*b), make([]float64, m*b)
		o.ApplyBatch(so, x, z, dst, b)
		o.ApplyBatchParallel(p, soP, x, z, dstP, b)
		r.ApplyBatch(sr, x, dstZ, b)
		r.ApplyBatchParallel(p, srP, x, dstZP, b)
		for c := 0; c < b; c++ {
			label := fmt.Sprintf("n=%d m=%d nnz=%d b=%d workers=%d noASM=%v col %d", n, m, a.NNZ(), b, workers, noASM, c)
			xc, zc := column(x, n, b, c), column(z, m, b, c)
			want := make([]float64, n)
			o.Apply(xc, zc, want)
			sameBits(t, label+" O serial", column(dst, n, b, c), want)
			sameBits(t, label+" O pooled", column(dstP, n, b, c), want)
			wantZ := make([]float64, m)
			r.Apply(xc, wantZ)
			sameBits(t, label+" R serial", column(dstZ, m, b, c), wantZ)
			sameBits(t, label+" R pooled", column(dstZP, m, b, c), wantZ)
			if n > denseFuzzN {
				continue
			}
			if d := maxAbsDiff(want, DenseApplyO(o, xc, zc)); !(d <= 1e-9) {
				t.Fatalf("%s: O is %v from the dense reference", label, d)
			}
			if d := maxAbsDiff(wantZ, DenseApplyR(r, xc)); !(d <= 1e-9) {
				t.Fatalf("%s: R is %v from the dense reference", label, d)
			}
		}
	})
}
