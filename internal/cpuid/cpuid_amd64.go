package cpuid

// hasAVX2 runs the CPUID/XGETBV probe behind AVX2.
func hasAVX2() bool
