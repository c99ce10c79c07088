package core

import (
	"testing"

	"abnn2/internal/nn"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

// Direct tests of the engine's layout helpers (covered indirectly by the
// end-to-end tests, but the index arithmetic deserves pointed checks).

func TestFoldBatch(t *testing.T) {
	// Y: 2 x (2 samples * 3 positions); sample k occupies cols [k*3,(k+1)*3).
	y := &ring.Mat{Rows: 2, Cols: 6, Data: ring.Vec{
		// row 0: s0(p0,p1,p2), s1(p0,p1,p2)
		1, 2, 3, 10, 20, 30,
		// row 1
		4, 5, 6, 40, 50, 60,
	}}
	f := foldBatch(y, 2)
	if f.Rows != 6 || f.Cols != 2 {
		t.Fatalf("folded shape %dx%d", f.Rows, f.Cols)
	}
	// Feature (o=1, p=2) of sample 1 = Y[1][1*3+2] = 60.
	if f.At(1*3+2, 1) != 60 {
		t.Fatalf("fold misplaced: %v", f.Data)
	}
	if f.At(0, 0) != 1 || f.At(5, 0) != 6 || f.At(3, 1) != 40 {
		t.Fatalf("fold wrong: %v", f.Data)
	}
	// P = 1 passthrough.
	same := &ring.Mat{Rows: 2, Cols: 3, Data: ring.Vec{1, 2, 3, 4, 5, 6}}
	if foldBatch(same, 3) != same {
		t.Fatal("P=1 fold should be identity")
	}
}

func TestShareColsConv(t *testing.T) {
	conv := &nn.ConvSpec{Ci: 1, H: 2, W: 2, Kh: 2, Kw: 2, Stride: 1, Pad: 0}
	l := nn.Shape{In: 4, Out: 1, Conv: conv}
	// Two samples, features [a b c d] per sample.
	share := &ring.Mat{Rows: 4, Cols: 2, Data: ring.Vec{
		1, 5,
		2, 6,
		3, 7,
		4, 8,
	}}
	out := shareCols(l, share)
	// n = 4, P = 1: out is 4 x 2 with sample-major columns.
	if out.Rows != 4 || out.Cols != 2 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
	for r := 0; r < 4; r++ {
		if out.At(r, 0) != ring.Elem(r+1) || out.At(r, 1) != ring.Elem(r+5) {
			t.Fatalf("col expansion wrong at row %d: %v", r, out.Data)
		}
	}
	// FC passthrough.
	fc := nn.Shape{In: 4, Out: 2}
	if shareCols(fc, share) != share {
		t.Fatal("FC shareCols should be identity")
	}
}

func TestPoolWindowsFlat(t *testing.T) {
	conv := &nn.ConvSpec{Ci: 1, H: 5, W: 5, Kh: 2, Kw: 2, Stride: 1, Pad: 1} // out 4x4... check: (5+2-2)/1+1=6? No: (5+2*1-2)/1+1 = 6.
	_ = conv
	spec := nn.Shape{
		In: 16, Out: 1,
		Conv: &nn.ConvSpec{Ci: 1, H: 5, W: 5, Kh: 2, Kw: 2, Stride: 1, Pad: 0}, // out 4x4
		Pool: &nn.PoolSpec{K: 2},
	}
	batch := 2
	wins := poolWindowsFlat(spec, batch)
	// 1 channel, 4x4 grid, 2x2 pool -> 4 windows per sample * 2 samples.
	if len(wins) != 8 {
		t.Fatalf("window count %d", len(wins))
	}
	// Window 0 = per-sample window 0, sample 0: per-sample indices
	// {0,1,4,5} mapped to flat r*batch + 0.
	want0 := []int{0, 2, 8, 10}
	for i, idx := range wins[0] {
		if idx != want0[i] {
			t.Fatalf("window 0 = %v, want %v", wins[0], want0)
		}
	}
	// Window 1 = same per-sample window, sample 1: +1 on each.
	for i, idx := range wins[1] {
		if idx != want0[i]+1 {
			t.Fatalf("window 1 = %v", wins[1])
		}
	}
	// Every flat index [0, 16*2) appears exactly once.
	seen := map[int]bool{}
	for _, w := range wins {
		for _, idx := range w {
			if seen[idx] {
				t.Fatalf("index %d duplicated", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 32 {
		t.Fatalf("covered %d of 32 inputs", len(seen))
	}
}

func TestSampleMajor(t *testing.T) {
	m := &ring.Mat{Rows: 2, Cols: 3, Data: ring.Vec{
		1, 2, 3, // feature 0 across samples
		4, 5, 6, // feature 1
	}}
	got := sampleMajor(m)
	want := ring.Vec{1, 4, 2, 5, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sampleMajor = %v, want %v", got, want)
		}
	}
}

// payloadOffsetsPerChunk is the per-chunk layout the triplet loops used
// before payloadLayout, frozen: the chunk+1 prefix offsets of each OT's
// ciphertext block inside one payload flight, for the chunk starting at
// global OT index base.
func payloadOffsetsPerChunk(p Params, base, chunk int, padBytes int) []int {
	gamma := p.Scheme.Gamma()
	offs := make([]int, chunk+1)
	for local := 0; local < chunk; local++ {
		n := p.Scheme.FragmentN((base+local)%gamma) - 1 // candidate 0 is the pad itself
		offs[local+1] = offs[local] + n*padBytes
	}
	return offs
}

// TestPayloadLayoutMatchesPerChunkOffsets: the once-per-layer layout puts
// every OT of every chunk where the per-chunk offsets did, for every
// scheme the conformance sweeps can draw — binary, ternary, and each
// signed and unsigned partition of 1 to 8 bits into fragments — at a
// one-batch and a multi-batch pad size, over chunks whose start is not a multiple of γ and a short last
// chunk.
func TestPayloadLayoutMatchesPerChunkOffsets(t *testing.T) {
	schemes := []quant.Scheme{quant.Binary(), quant.Ternary()}
	var partitions func(eta int, widths []uint)
	partitions = func(eta int, widths []uint) {
		if eta == 0 {
			for _, signed := range []bool{false, true} {
				schemes = append(schemes, quant.NewBitScheme(signed, append([]uint(nil), widths...)...))
			}
			return
		}
		for w := 1; w <= eta; w++ {
			partitions(eta-w, append(widths, uint(w)))
		}
	}
	for eta := 1; eta <= 8; eta++ {
		partitions(eta, nil)
	}
	const total = 3*chunkOTs + 1000
	for _, sc := range schemes {
		p := Params{Scheme: sc}
		for _, padBytes := range []int{4, 3 * 8} {
			l := newPayloadLayout(sc, padBytes)
			for ot := 0; ot < total; ot += chunkOTs {
				chunk := min(chunkOTs, total-ot)
				want := payloadOffsetsPerChunk(p, ot, chunk, padBytes)
				for local := 0; local <= chunk; local++ {
					if got := l.at(ot+local) - l.at(ot); got != want[local] {
						t.Fatalf("%s pad %d: OT %d of the chunk at %d is at %d, want %d", sc.Name(), padBytes, local, ot, got, want[local])
					}
				}
			}
		}
	}
}
