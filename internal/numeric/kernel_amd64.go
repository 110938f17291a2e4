package numeric

// init points SolveWide and the serial kernel's chunks at the AVX2 passes
// (kernel_amd64.s) when the CPU has them: the one time the CPU is asked.
// See the package doc for why they keep Solve's bits and the factor's.
func init() {
	if hasAVX2() {
		sub8Pass, dot8Pass = sub8AVX2, dot8AVX2
		sub8x4Pass, sub8mPass = sub8x4AVX2, sub8mAVX2
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: CPUID leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1
// and 2 (XMM and YMM state), and CPUID leaf 7 EBX bit 5 (AVX2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the state components the OS saves.
func xgetbv() (eax uint32)

// sub8Asm and dot8Asm run sub8 and dot8 until the first row index i with
// i < 0 or i >= len(x)/8, which they leave undone, and return its place
// in rs (len(rs) when there is none). sub8Asm has then applied the rows
// before it; dot8Asm has not written a.
//
//go:noescape
func sub8Asm(x []float64, rs []int32, vs []float64, a *[8]float64) int

//go:noescape
func dot8Asm(x []float64, rs []int32, vs []float64, a *[8]float64) int

// sub8AVX2 is sub8 in AVX2; a bad row index panics in sub8, as it does
// when sub8 runs alone.
func sub8AVX2(x []float64, rs []int32, vs []float64, a *[8]float64) {
	vs = vs[:len(rs)]
	if q := sub8Asm(x, rs, vs, a); q < len(rs) {
		sub8(x, rs[q:q+1], vs[q:q+1], a)
	}
}

// dot8AVX2 is dot8 in AVX2; a bad row index panics in dot8.
func dot8AVX2(x []float64, rs []int32, vs []float64, a *[8]float64) {
	vs = vs[:len(rs)]
	if q := dot8Asm(x, rs, vs, a); q < len(rs) {
		dot8(x, rs[q:q+1], vs[q:q+1], a)
	}
}

// sub8x4Asm and sub8mAsm run sub8x4 and sub8m as sub8Asm runs sub8: up to
// the first bad row index, whose place in rs they return.
//
//go:noescape
func sub8x4Asm(x []float64, rs []int32, v0, v1, v2, v3 []float64, a *[4][8]float64, mask uint8) int

//go:noescape
func sub8mAsm(x []float64, rs []int32, vs []float64, a *[8]float64, mask uint8) int

// sub8x4AVX2 is sub8x4 in AVX2; a bad row index panics in sub8x4.
func sub8x4AVX2(x []float64, rs []int32, v0, v1, v2, v3 []float64, a *[4][8]float64, mask uint8) {
	v0, v1, v2, v3 = v0[:len(rs)], v1[:len(rs)], v2[:len(rs)], v3[:len(rs)]
	if q := sub8x4Asm(x, rs, v0, v1, v2, v3, a, mask); q < len(rs) {
		sub8x4(x, rs[q:q+1], v0[q:q+1], v1[q:q+1], v2[q:q+1], v3[q:q+1], a, mask)
	}
}

// sub8mAVX2 is sub8m in AVX2; a bad row index panics in sub8m.
func sub8mAVX2(x []float64, rs []int32, vs []float64, a *[8]float64, mask uint8) {
	vs = vs[:len(rs)]
	if q := sub8mAsm(x, rs, vs, a, mask); q < len(rs) {
		sub8m(x, rs[q:q+1], vs[q:q+1], a, mask)
	}
}
