//go:build !amd64

package sparse

// Non-amd64 builds always take the pure-Go body (useBatchASM is false
// there); the stubs are never reached.

func mulRowsAVX4(rowPtr, colIdx *int32, values, x, dst *float64, rows int) {
	panic("sparse: AVX2 kernel on non-amd64 build")
}

func mulRowsAVX8(rowPtr, colIdx *int32, values, x, dst *float64, rows int) {
	panic("sparse: AVX2 kernel on non-amd64 build")
}
