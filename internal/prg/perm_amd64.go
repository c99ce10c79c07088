package prg

// haveKernel reports AES-NI (CPUID.1:ECX bit 25) and SSE4.1 (bit 19),
// which the kernel's loads use.
var haveKernel = cpuidECX()&(1<<25|1<<19) == 1<<25|1<<19

// cpuidECX returns ECX of CPUID leaf 1.
func cpuidECX() uint32

// expandKey writes the eleven AES-128 round keys of key to rk.
//
//go:noescape
func expandKey(key *[16]byte, rk *[11 * 16]byte)

// encryptKernel encrypts l[:n] in place under the round keys rk: one lane
// for n = 1, two for n = 2, four for n up to 4, all eight otherwise.
//
//go:noescape
func encryptKernel(rk *[11 * 16]byte, l *Lanes, n int)

// padKernel derives the pads of r.groups 8-lane groups of a pad run whose
// first OT has index first, XORing them into dst (see Deriver.kernelRun).
//
//go:noescape
func padKernel(rk *[11 * 16]byte, r *padRun, rows, masks, dst *byte, first uint64)
