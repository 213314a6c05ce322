package sparse

// AVX2 bodies of the blocked CSR product at the strides 4 and 8. Each
// keeps the current row's accumulator in one (b = 4) or two (b = 8)
// 256-bit registers: it starts at +0 and adds v·x for the row's entries
// in stored order, which is exactly the scalar loop's arithmetic per
// column (VMULPD then VADDPD, no FMA contraction), so the vector bodies
// are bitwise equal to the scalar one. Every x row is one full 32- or
// 64-byte load, and each dst row is stored once, after its last entry.

// mulRowsAVX4 computes rows rows of the product at stride 4: rowPtr
// points at the first row's offset and dst at its output row.
//
//go:noescape
func mulRowsAVX4(rowPtr, colIdx *int32, values, x, dst *float64, rows int)

// mulRowsAVX8 is mulRowsAVX4 at stride 8.
//
//go:noescape
func mulRowsAVX8(rowPtr, colIdx *int32, values, x, dst *float64, rows int)
