package vec

// Column operations on blocked multi-vector storage. The batched solver
// keeps q per-class vectors interleaved in one node-major block: entry
// (i, c) of an n×b block lives at i*stride+c, so one pass over the block
// touches every class's value for a node consecutively. Each helper
// visits the rows of one column in ascending index order — exactly the
// order of its single-vector counterpart in vec.go — so a column of a
// block and a standalone vector accumulate bitwise-identical floats.

import (
	"fmt"
	"math"
)

// ScatterCol copies src into column col of the blocked dst:
// dst[i*stride+col] = src[i].
func ScatterCol(src Vector, dst []float64, col, stride int) {
	checkBlock("ScatterCol", len(src), len(dst), col, stride)
	for i, v := range src {
		dst[i*stride+col] = v
	}
}

// GatherCol copies column col of the blocked src into dst:
// dst[i] = src[i*stride+col].
func GatherCol(src []float64, col, stride int, dst Vector) {
	checkBlock("GatherCol", len(dst), len(src), col, stride)
	for i := range dst {
		dst[i] = src[i*stride+col]
	}
}

// AxpyCol computes column col of dst += alpha*x, mirroring Axpy on one
// column of the block.
func AxpyCol(alpha float64, x Vector, dst []float64, col, stride int) {
	checkBlock("AxpyCol", len(x), len(dst), col, stride)
	for i, v := range x {
		dst[i*stride+col] += alpha * v
	}
}

// SumCol returns the sum of column col, adding rows in ascending order
// like Sum.
func SumCol(v []float64, col, stride int) float64 {
	var s float64
	for p := col; p < len(v); p += stride {
		s += v[p]
	}
	return s
}

// Diff1Col returns the L1 distance between column col of the equally
// blocked a and b, mirroring Diff1's row order.
func Diff1Col(a, b []float64, col, stride int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Diff1Col length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for p := col; p < len(a); p += stride {
		s += math.Abs(a[p] - b[p])
	}
	return s
}

// Normalize1Col rescales column col in place so it sums to one, with
// Normalize1's zero/NaN/Inf guard: a bad sum leaves the column untouched
// and reports false. The arithmetic (one 1/s, then a multiply per row)
// matches Normalize1 exactly.
func Normalize1Col(v []float64, col, stride int) bool {
	_, ok := Normalize1ColMass(v, col, stride)
	return ok
}

// Normalize1ColMass is Normalize1Col returning the pre-normalisation
// column mass alongside the verdict — the solver's numerical-health
// guards read the mass the projection already computed, so the probe
// costs nothing extra. The arithmetic is identical to Normalize1Col.
func Normalize1ColMass(v []float64, col, stride int) (float64, bool) {
	s := SumCol(v, col, stride)
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return s, false
	}
	inv := 1 / s
	for p := col; p < len(v); p += stride {
		v[p] *= inv
	}
	return s, true
}

// Stride returns the block stride the solver lays b active columns out
// at: 4 for 1–4 columns, 8 for 5–8, and b itself above 8 (0 for none).
// Lanes b..stride−1 of every row (a lane is one column slot of a row)
// hold +0. This is the one layout rule of the blocked kernels: O, R and
// the CSR product have AVX2 bodies at exactly the strides 4 and 8, one
// or two 256-bit registers per row (VectorStride), so every call of a
// solve of at most 8 columns runs them, and no kernel pads or masks the
// block it is handed. A zero lane stays +0 through every kernel (each
// output cell starts at +0 and only adds products of that lane), and no
// kernel combines lanes, so the pad lanes change no real column's bits.
func Stride(b int) int {
	switch {
	case b > 8:
		return b
	case b > 4:
		return 8
	case b > 0:
		return 4
	}
	return 0
}

// VectorStride reports whether the blocked kernels have a vector body at
// stride b: one of the strides Stride gives 1–8 columns.
func VectorStride(b int) bool { return b > 0 && b <= 8 && Stride(b) == b }

// CompactCols left-packs the columns listed in keep (strictly ascending)
// of an n-row block at stride oldStride into stride newStride, where
// len(keep) ≤ newStride ≤ oldStride, and sets lanes
// len(keep)..newStride−1 of every row to +0. The move is in-place safe:
// for every row the destination offset i*newStride+nc never exceeds the
// source offset i*oldStride+keep[nc], so ascending iteration never
// overwrites unread data, and a row's cleared lanes lie below every
// later row's source.
func CompactCols(v []float64, rows, oldStride int, keep []int, newStride int) {
	if len(keep) > newStride || newStride > oldStride {
		panic(fmt.Sprintf("vec: CompactCols of %d columns from stride %d to %d", len(keep), oldStride, newStride))
	}
	for i := 0; i < rows; i++ {
		src, dst := v[i*oldStride:], v[i*newStride:(i+1)*newStride]
		for nc, oc := range keep {
			dst[nc] = src[oc]
		}
		clear(dst[len(keep):])
	}
}

// checkBlock validates that a blocked operand with the given length can
// hold rows×stride entries addressed at column col.
func checkBlock(op string, rows, blockLen, col, stride int) {
	if col < 0 || col >= stride || rows*stride > blockLen {
		panic(fmt.Sprintf("vec: %s column %d stride %d over %d rows exceeds block of %d",
			op, col, stride, rows, blockLen))
	}
}
