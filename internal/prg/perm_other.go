//go:build !amd64

package prg

// haveKernel is false off amd64: every Perm takes the portable path.
const haveKernel = false

func expandKey(*[16]byte, *[11 * 16]byte) { panic("prg: no AES kernel on this architecture") }

func encryptKernel(*[11 * 16]byte, *Lanes, int) { panic("prg: no AES kernel on this architecture") }

func padKernel(*[11 * 16]byte, *padRun, *byte, *byte, *byte, uint64) {
	panic("prg: no AES kernel on this architecture")
}
