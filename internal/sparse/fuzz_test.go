package sparse

import (
	"fmt"
	"math"
	"testing"

	"tmark/internal/par"
)

// decodeMulInput turns fuzz bytes into a CSR matrix and a byte stream
// for its x blocks: byte 0 picks rows in [1, 64], byte 1 cols in
// [1, 64] and byte 2 the triplet count in [0, 96]. Each triplet reads
// three bytes — row, col and a value int8/8, so zero values are dropped
// and negative ones kept — and byte 3's low bits repeat every k-th
// triplet, so duplicates sum in FromTriplets. Rows no triplet names stay
// empty. The rest of the bytes feed the x cells.
func decodeMulInput(data []byte) (m *Matrix, rest []byte) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	rows, cols, count := 1+int(at(0))%64, 1+int(at(1))%64, int(at(2))%97
	every := 1 + int(at(3))%8
	var ts []Triplet
	pos := 4
	for e := 0; e < count; e++ {
		t := Triplet{Row: int(at(pos)) % rows, Col: int(at(pos+1)) % cols, Value: float64(int8(at(pos+2))) / 8}
		ts = append(ts, t)
		if e%every == 0 {
			ts = append(ts, t)
		}
		pos += 3
	}
	if pos < len(data) {
		rest = data[pos:]
	}
	return FromTriplets(rows, cols, ts), rest
}

// xBlock fills a cols×b block from the bytes, cycling through them: a
// cell reads int8/4, with 0x80 read as −0 and no bytes as +0.
func xBlock(rest []byte, cols, b int) []float64 {
	x := make([]float64, cols*b)
	if len(rest) == 0 {
		return x
	}
	for q := range x {
		switch v := int8(rest[q%len(rest)]); v {
		case math.MinInt8:
			x[q] = math.Copysign(0, -1)
		default:
			x[q] = float64(v) / 4
		}
	}
	return x
}

// FuzzMulVecBatch checks the blocked CSR product on arbitrary small
// matrices with empty rows and duplicate triplets, at every stride from
// 1 to 9: every column of MulVecBatch and of MulVecBatchParallel on 2
// and 3 shards is bitwise MulVec on that column alone, on the scalar
// body and, on AVX2 hosts at the strides 4 and 8, on the vector body.
func FuzzMulVecBatch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})                                         // 1×1, no entries
	f.Add([]byte{9, 4, 3, 0, 2, 1, 16, 2, 1, 240, 7, 3, 8, 128, 4})   // every triplet twice; one pair of (2, 1) sums cancel
	f.Add([]byte{40, 30, 60, 2, 5, 5, 9, 39, 29, 200, 0, 0, 1, 7, 3}) // 41×31 with two stored rows
	pools := map[int]*par.Pool{2: par.New(2), 3: par.New(3)}
	f.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, rest := decodeMulInput(data)
		rows, cols := m.rows, m.cols
		for b := 1; b <= 9; b++ {
			x := xBlock(rest, cols, b)
			want := make([][]float64, b)
			for c := range want {
				xc := make([]float64, cols)
				for j := range xc {
					xc[j] = x[j*b+c]
				}
				want[c] = make([]float64, rows)
				m.MulVec(xc, want[c])
			}
			check := func(label string, got []float64) {
				t.Helper()
				for c, wc := range want {
					for i, v := range wc {
						if math.Float64bits(got[i*b+c]) != math.Float64bits(v) {
							t.Fatalf("%dx%d nnz=%d b=%d %s: row %d col %d = %v, want %v",
								rows, cols, m.NNZ(), b, label, i, c, got[i*b+c], v)
						}
					}
				}
			}
			for _, noASM := range []bool{false, true} {
				dst := make([]float64, rows*b)
				m.mulVecBatch(x, dst, b, noASM)
				check(fmt.Sprintf("serial noASM=%v", noASM), dst)
				for shards, p := range pools {
					s := NewMulBatchScratch(shards)
					s.NoASM = noASM
					dst := make([]float64, rows*b)
					m.MulVecBatchParallel(p, s, x, dst, b)
					check(fmt.Sprintf("%d shards noASM=%v", shards, noASM), dst)
				}
			}
		}
	})
}
