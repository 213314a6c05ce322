package tensor

// AVX2 bodies of the blocked contraction inner loop for the strides 4
// and 8, the strides the solver lays out 1–8 columns at (vec.Stride). A
// row is exactly one (b = 4) or two (b = 8) 256-bit registers, so the
// scalar body of cooScatterBatch maps 1:1 onto VMULPD/VADDPD: each lane
// performs the same IEEE-754 double multiply/add as the scalar `*`/`+`
// on that column, in the same per-column order (no FMA contraction), so
// the vector kernels are bitwise identical to the scalar one and every
// equivalence test covers both. The b-row run cache lives in a vector
// register with the same reload-on-index-change rule as the scalar
// loop.

// cooScatterAVX4 is the cols = 4 body of cooScatterBatch over n entries:
// dst[di·4+c] += p·a[ai·4+c]·bb[bi·4+c], entries in order, bb row cached.
//
//go:noescape
func cooScatterAVX4(dst, a, bb *float64, di, ai, bi *int32, p *float64, n int)

// cooScatterAVX8 is the cols = 8 body of cooScatterBatch.
//
//go:noescape
func cooScatterAVX8(dst, a, bb *float64, di, ai, bi *int32, p *float64, n int)
