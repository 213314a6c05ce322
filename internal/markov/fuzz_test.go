package markov

import (
	"math"
	"testing"

	"tmark/internal/par"
	"tmark/internal/sparse"
)

// decodeFeatures turns fuzz bytes into a feature matrix and a topK: the
// first byte picks n in [1, 48], the second d in [1, 12], the third topK
// in [1, n+3]; each later byte is one value, read row by row, missing
// bytes reading as zero. Values come from a small set so that exact ties
// are common: half the bytes map to +0, one to −0, the rest to integers
// over 8 in [−7.875, 7.875].
func decodeFeatures(data []byte) ([][]float64, int) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n, d := 1+int(at(0))%48, 1+int(at(1))%12
	topK := 1 + int(at(2))%(n+3)
	f := make([][]float64, n)
	for i := range f {
		f[i] = make([]float64, d)
		for k := range f[i] {
			switch b := at(3 + i*d + k); {
			case b < 128:
				// zero
			case b == 128:
				f[i][k] = math.Copysign(0, -1)
			default:
				f[i][k] = float64(int(b)-192) / 8
			}
		}
	}
	return f, topK
}

// FuzzFeatureTransition checks both channels against the pairwise
// oracle, bit for bit and on a pool of 2, and that every column of W
// sums to 1.
func FuzzFeatureTransition(f *testing.F) {
	f.Add([]byte{3, 2, 1, 200, 0, 0, 220, 210, 230})
	f.Add([]byte{0, 0, 0, 255})
	f.Add([]byte{47, 11, 16})
	f.Add([]byte{9, 1, 2, 129, 129, 130, 128, 0, 250, 129, 160, 255})
	pool := par.New(2)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		features, topK := decodeFeatures(data)
		n := len(features)
		cos := oracleCosineMatrix(features)
		dense := FeatureTransition(features)
		requireSameDense(t, "dense", dense, oracleNormalize(cos, 0))
		requireSameDense(t, "dense workers=2", FeatureTransitionPar(features, pool), dense)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += dense.At(i, j)
			}
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("dense column %d sums to %v", j, s)
			}
		}
		csr := SparseFeatureTransitionCSR(features, topK)
		requireSameCSR(t, "top-K", csr, sparse.FromDense(oracleNormalize(cos, topK), 0))
		requireSameCSR(t, "top-K workers=2", SparseFeatureTransitionCSRPar(features, topK, pool), csr)
		for j, s := range csr.ColumnSums() {
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("top-K column %d sums to %v (topK=%d)", j, s, topK)
			}
		}
	})
}
