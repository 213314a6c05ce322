package sparse

// AVX2 bodies of the blocked CSR product. Each keeps the current row's
// accumulator in one (b ≤ 4) or two (b ≤ 8) 256-bit registers: it starts
// at +0 and adds v·x for the row's entries in stored order, which is
// exactly the scalar loop's arithmetic per column (VMULPD then VADDPD,
// no FMA contraction), so the vector bodies are bitwise equal to the
// scalar one. Odd widths load the last (partial) x-row lane and store
// the last dst lane under a lane mask, so no lane outside the b columns
// is read or written; the row is stored once, after its last entry.

// mulRowsAVX4 computes rows rows of the product at b ≤ 4 columns:
// rowPtr points at the first row's offset, dst at its output row, and
// mask at four int64 lane masks with the sign bit set in lanes < b.
//
//go:noescape
func mulRowsAVX4(rowPtr, colIdx *int32, values, x, dst *float64, rows, b int, mask *int64)

// mulRowsAVX8 is mulRowsAVX4 for 4 < b ≤ 8: lanes 0–3 are full, and mask
// covers lanes 4..b-1.
//
//go:noescape
func mulRowsAVX8(rowPtr, colIdx *int32, values, x, dst *float64, rows, b int, mask *int64)
