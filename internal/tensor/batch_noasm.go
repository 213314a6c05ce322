//go:build !amd64

package tensor

// Non-amd64 builds always take the pure-Go kernel bodies (useBatchASM
// is false there); the stubs are never reached.

func cooScatterAVX4(dst, a, bb *float64, di, ai, bi *int32, p *float64, n int) {
	panic("tensor: AVX2 kernel on non-amd64 build")
}

func cooScatterAVX8(dst, a, bb *float64, di, ai, bi *int32, p *float64, n int) {
	panic("tensor: AVX2 kernel on non-amd64 build")
}
