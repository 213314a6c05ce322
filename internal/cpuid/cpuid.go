// Package cpuid reports the instruction-set extensions the hand-written
// kernels need. The amd64 baseline (GOAMD64 v1) does not guarantee
// AVX2, so every package with AVX2 kernel bodies gates them on AVX2,
// which is probed once at startup and shared by all of them.
package cpuid

// AVX2 reports whether the CPU and the OS support the AVX2 kernels:
// CPUID leaf 7 AVX2, leaf 1 OSXSAVE and AVX, and XCR0 with the XMM and
// YMM state enabled. It is always false on other architectures.
var AVX2 = hasAVX2()
