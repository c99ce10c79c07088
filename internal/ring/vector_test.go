package ring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, r Ring, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = rng.Uint64() & r.Mask()
	}
	return v
}

func randMat(rng *rand.Rand, r Ring, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Uint64() & r.Mask()
	}
	return m
}

func TestVecAddSubRoundTrip(t *testing.T) {
	r := New(32)
	rng := rand.New(rand.NewSource(2))
	a, b := randVec(rng, r, 100), randVec(rng, r, 100)
	if !r.EqualVec(r.SubVec(r.AddVec(a, b), b), a) {
		t.Fatal("(a+b)-b != a")
	}
}

func TestMulMatAssociativity(t *testing.T) {
	r := New(16)
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, r, 3, 4)
	b := randMat(rng, r, 4, 5)
	c := randMat(rng, r, 5, 2)
	left := r.MulMat(r.MulMat(a, b), c)
	right := r.MulMat(a, r.MulMat(b, c))
	if !r.EqualMat(left, right) {
		t.Fatal("(ab)c != a(bc)")
	}
}

func TestMulMatDistributesOverAdd(t *testing.T) {
	r := New(32)
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, r, 4, 6)
	b := randMat(rng, r, 6, 3)
	c := randMat(rng, r, 6, 3)
	left := r.MulMat(a, r.AddMat(b, c))
	right := r.AddMat(r.MulMat(a, b), r.MulMat(a, c))
	if !r.EqualMat(left, right) {
		t.Fatal("a(b+c) != ab+ac")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	r := New(32)
	cases := []func(){
		func() { r.AddVec(Vec{1}, Vec{1, 2}) },
		func() { r.MulMat(NewMat(2, 3), NewMat(2, 3)) },
		func() { r.AddMat(NewMat(2, 3), NewMat(3, 2)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEncodeDecodeVec(t *testing.T) {
	for _, bits := range []uint{8, 12, 32, 64} {
		r := New(bits)
		rng := rand.New(rand.NewSource(int64(bits)))
		v := randVec(rng, r, 33)
		buf := r.AppendVec(nil, v)
		if len(buf) != r.VecBytes(33) {
			t.Fatalf("bits=%d wire size %d want %d", bits, len(buf), r.VecBytes(33))
		}
		got, rest, err := r.DecodeVec(buf, 33)
		if err != nil {
			t.Fatalf("bits=%d decode: %v", bits, err)
		}
		if len(rest) != 0 {
			t.Fatalf("bits=%d %d trailing bytes", bits, len(rest))
		}
		if !r.EqualVec(got, v) {
			t.Fatalf("bits=%d roundtrip mismatch", bits)
		}
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	r := New(32)
	if _, _, err := r.DecodeElem([]byte{1, 2}); err == nil {
		t.Error("DecodeElem accepted short buffer")
	}
	if _, _, err := r.DecodeVec(make([]byte, 7), 2); err == nil {
		t.Error("DecodeVec accepted short buffer")
	}
}

// Property: serialization round-trips for arbitrary elements.
func TestEncodeRoundTripProperty(t *testing.T) {
	r := New(48)
	f := func(x uint64) bool {
		x = r.Reduce(x)
		got, rest, err := r.DecodeElem(r.AppendElem(nil, x))
		return err == nil && len(rest) == 0 && got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatRowIsView(t *testing.T) {
	m := NewMat(2, 3)
	m.Row(1)[2] = 9
	if m.At(1, 2) != 9 {
		t.Fatal("Row did not return a view")
	}
	c := m.Clone()
	c.Set(1, 2, 7)
	if m.At(1, 2) != 9 {
		t.Fatal("Clone shares storage")
	}
}

func TestVectorHelpers(t *testing.T) {
	r := New(8)
	a := Vec{1, 2, 3}
	r.AddVecInPlace(a, Vec{10, 20, 250})
	if !r.EqualVec(a, Vec{11, 22, 253&0xff + 0}) {
		t.Fatalf("AddVecInPlace = %v", a)
	}
	if r.EqualVec(Vec{1}, Vec{1, 2}) {
		t.Fatal("EqualVec length mismatch reported equal")
	}
	if r.MulConst(3, 100) != 44 { // 300 mod 256
		t.Fatal("MulConst wrong")
	}
	if r.Bits() != 8 {
		t.Fatal("Bits wrong")
	}
	buf := []byte{0x2A, 0, 0, 0, 0, 0, 0, 0}
	if r.FromBytesFull(buf) != 42 {
		t.Fatal("FromBytesFull wrong")
	}
}
