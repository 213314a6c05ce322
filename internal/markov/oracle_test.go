package markov

import (
	"sort"

	"tmark/internal/vec"
)

// The reference feature-channel builders: the pairwise definitions the
// column-at-a-time production builds must reproduce bit for bit. They
// materialise the dense n×n cosine matrix with a triangular loop of
// vec.Dot calls, threshold a sorted copy of every column, then normalise
// the columns in place.

// oracleCosineMatrix returns the n-by-n matrix of clamped pairwise cosine
// similarities; cell (i, j) with i < j is computed once and mirrored.
func oracleCosineMatrix(features [][]float64) *vec.Matrix {
	n := len(features)
	m := vec.NewMatrix(n, n)
	norms := make([]float64, n)
	for i, f := range features {
		norms[i] = vec.Norm2(f)
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
		if norms[i] == 0 {
			m.Set(i, i, 0)
		}
		for j := i + 1; j < n; j++ {
			var c float64
			if norms[i] != 0 && norms[j] != 0 {
				c = vec.Dot(features[i], features[j]) / (norms[i] * norms[j])
				if c < 0 {
					c = 0
				}
			}
			m.Set(i, j, c)
			m.Set(j, i, c)
		}
	}
	return m
}

// oracleNormalize turns a cosine matrix into a feature channel: each
// column keeps the entries at least its topK-th largest value (topK <= 0
// or topK >= n keeps everything), then is normalised, a zero column made
// uniform. c is not modified.
func oracleNormalize(c *vec.Matrix, topK int) *vec.Matrix {
	w := c.Clone()
	if topK > 0 && topK < w.Rows {
		col := make([]float64, w.Rows)
		for j := 0; j < w.Cols; j++ {
			for i := 0; i < w.Rows; i++ {
				col[i] = w.At(i, j)
			}
			threshold := oracleKthLargest(col, topK)
			for i := 0; i < w.Rows; i++ {
				if w.At(i, j) < threshold {
					w.Set(i, j, 0)
				}
			}
		}
	}
	w.NormalizeColumns(true)
	return w
}

// oracleKthLargest returns the k-th largest value of xs (1-based, k
// clamped to [1, len(xs)]) from a descending sort of a copy, NaN last.
func oracleKthLargest(xs []float64, k int) float64 {
	k = max(1, min(k, len(xs)))
	cp := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(cp)))
	return cp[k-1]
}
