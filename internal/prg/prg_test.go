package prg

import (
	"bytes"
	"testing"
	"testing/quick"

	"abnn2/internal/ring"
)

func TestDeterminism(t *testing.T) {
	a := New(SeedFromInt(7))
	b := New(SeedFromInt(7))
	if !bytes.Equal(a.Bytes(100), b.Bytes(100)) {
		t.Fatal("same seed produced different streams")
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a := New(SeedFromInt(1))
	b := New(SeedFromInt(2))
	if bytes.Equal(a.Bytes(32), b.Bytes(32)) {
		t.Fatal("different seeds produced identical 32-byte prefixes")
	}
}

func TestStreamAdvances(t *testing.T) {
	g := New(SeedFromInt(3))
	x, y := g.Bytes(16), g.Bytes(16)
	if bytes.Equal(x, y) {
		t.Fatal("consecutive reads identical")
	}
}

func TestFillMatchesBytes(t *testing.T) {
	a := New(SeedFromInt(4))
	b := New(SeedFromInt(4))
	buf := make([]byte, 48)
	// Pre-dirty the buffer: Fill must overwrite, not XOR into, old content.
	for i := range buf {
		buf[i] = 0xAA
	}
	a.Fill(buf)
	if !bytes.Equal(buf, b.Bytes(48)) {
		t.Fatal("Fill diverged from Bytes")
	}
}

func TestElemReduced(t *testing.T) {
	r := ring.New(12)
	g := New(SeedFromInt(5))
	for i := 0; i < 1000; i++ {
		if e := g.Elem(r); e > r.Mask() {
			t.Fatalf("element %d out of ring", e)
		}
	}
}

func TestVecAndMatShapes(t *testing.T) {
	r := ring.New(32)
	g := New(SeedFromInt(6))
	if v := g.Vec(r, 17); len(v) != 17 {
		t.Fatalf("Vec len %d", len(v))
	}
	m := g.Mat(r, 3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.Data) != 15 {
		t.Fatalf("Mat shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	g := New(SeedFromInt(8))
	counts := make([]int, 5)
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := g.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		// Expected 10000 each; allow 5% deviation.
		if c < 9500 || c > 10500 {
			t.Errorf("bucket %d count %d, suspiciously non-uniform", i, c)
		}
	}
}

func TestIntnPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(SeedFromInt(9)).Intn(0)
}

func TestChildIndependence(t *testing.T) {
	g1 := New(SeedFromInt(10))
	g2 := New(SeedFromInt(10))
	c1 := g1.Child("a")
	c2 := g2.Child("a")
	if !bytes.Equal(c1.Bytes(32), c2.Bytes(32)) {
		t.Fatal("children of identical parents with same tag differ")
	}
	g3 := New(SeedFromInt(10))
	c3 := g3.Child("b")
	if bytes.Equal(New(SeedFromInt(10)).Child("a").Bytes(32), c3.Bytes(32)) {
		t.Fatal("different tags produced identical children")
	}
}

func TestOracleDomainSeparation(t *testing.T) {
	o1 := NewOracle("ot")
	o2 := NewOracle("gc")
	data := []byte("payload")
	if bytes.Equal(o1.Hash(1, 2, 3, data, 16), o2.Hash(1, 2, 3, data, 16)) {
		t.Fatal("different labels collide")
	}
	if bytes.Equal(o1.Hash(1, 2, 3, data, 16), o1.Hash(1, 2, 4, data, 16)) {
		t.Fatal("different tweaks collide")
	}
	if bytes.Equal(o1.Hash(1, 2, 3, data, 16), o1.Hash(1, 9, 3, data, 16)) {
		t.Fatal("different indices collide")
	}
	if bytes.Equal(o1.Hash(1, 2, 3, data, 16), o1.Hash(5, 2, 3, data, 16)) {
		t.Fatal("different sessions collide")
	}
}

func TestOracleDeterministicAndExtensible(t *testing.T) {
	o := NewOracle("x")
	a := o.Hash(1, 2, 3, []byte("d"), 100)
	b := o.Hash(1, 2, 3, []byte("d"), 100)
	if !bytes.Equal(a, b) {
		t.Fatal("oracle not deterministic")
	}
	if len(a) != 100 {
		t.Fatalf("oracle output len %d", len(a))
	}
	// Prefix property: a shorter query is a prefix of a longer one with the
	// same inputs (counter-mode extension).
	short := o.Hash(1, 2, 3, []byte("d"), 32)
	if !bytes.Equal(a[:32], short) {
		t.Fatal("extension not prefix-consistent")
	}
}

func TestOracleBlockMatchesHash(t *testing.T) {
	o := NewOracle("y")
	blk := o.Block(1, 2, 3, []byte("data"))
	h := o.Hash(1, 2, 3, []byte("data"), ROWidth)
	if !bytes.Equal(blk[:], h) {
		t.Fatal("Block and Hash disagree")
	}
}

func TestFastOracleDeterministic(t *testing.T) {
	o := NewFastOracle("t")
	a := o.Hash(1, 2, 3, []byte("hello world data"), 48)
	b := o.Hash(1, 2, 3, []byte("hello world data"), 48)
	if !bytes.Equal(a, b) {
		t.Fatal("FastOracle not deterministic")
	}
	if len(a) != 48 {
		t.Fatalf("output length %d", len(a))
	}
}

func TestFastOracleSeparation(t *testing.T) {
	o := NewFastOracle("t")
	o2 := NewFastOracle("u")
	data := []byte("0123456789abcdef") // exactly one block
	base := o.Hash(1, 2, 3, data, 16)
	diffs := [][]byte{
		o.Hash(9, 2, 3, data, 16),
		o.Hash(1, 9, 3, data, 16),
		o.Hash(1, 2, 9, data, 16),
		o.Hash(1, 2, 3, []byte("0123456789abcdeX"), 16),
		o.Hash(1, 2, 3, data[:15], 16), // shorter data must differ
		o2.Hash(1, 2, 3, data, 16),     // different label
	}
	for i, d := range diffs {
		if bytes.Equal(base, d) {
			t.Errorf("variant %d collided with base query", i)
		}
	}
}

// TestFastOraclePrefixConsistent: a shorter output is a prefix of a
// longer one of the same shape — within n <= 16 (a truncated chaining
// value) and within n > 16 (counter-mode expansion) — while the header's
// short bit makes the two shapes of one query unrelated: the 16 bytes
// that are a short output are never the start of a long one.
func TestFastOraclePrefixConsistent(t *testing.T) {
	o := NewFastOracle("t")
	block := o.Hash(1, 2, 3, []byte("x"), 16)
	long := o.Hash(1, 2, 3, []byte("x"), 100)
	for _, n := range []int{1, 4, 8, 15} {
		if !bytes.Equal(block[:n], o.Hash(1, 2, 3, []byte("x"), n)) {
			t.Errorf("n=%d is not a prefix of n=16", n)
		}
	}
	for _, n := range []int{17, 32, 99} {
		if !bytes.Equal(long[:n], o.Hash(1, 2, 3, []byte("x"), n)) {
			t.Errorf("n=%d is not a prefix of n=100", n)
		}
	}
	if bytes.Equal(block, long[:16]) || bytes.Equal(block[:8], long[:8]) {
		t.Error("short and long outputs of one query share a prefix")
	}
}

func TestFastOracleConcurrent(t *testing.T) {
	o := NewFastOracle("t")
	want := o.Hash(5, 6, 7, []byte("abc"), 32)
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ok := true
			for i := 0; i < 200; i++ {
				if !bytes.Equal(o.Hash(5, 6, 7, []byte("abc"), 32), want) {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent FastOracle calls diverged")
		}
	}
}

func TestXORBytes(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{255, 0, 3}
	dst := make([]byte, 3)
	XORBytes(dst, a, b)
	if !bytes.Equal(dst, []byte{254, 2, 0}) {
		t.Fatalf("XORBytes = %v", dst)
	}
	// Property: x ^ x = 0, x ^ 0 = x.
	f := func(x []byte) bool {
		z := make([]byte, len(x))
		XORBytes(z, x, x)
		for _, v := range z {
			if v != 0 {
				return false
			}
		}
		zero := make([]byte, len(x))
		XORBytes(z, x, zero)
		return bytes.Equal(z, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXORBytesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	XORBytes(make([]byte, 2), make([]byte, 2), make([]byte, 3))
}
