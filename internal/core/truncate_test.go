package core

import (
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/ring"
)

// Probabilistic truncation is correct up to +-1 except with probability
// about |value| / 2^(l-1) per element (the share-wrap event, SecureML
// Theorem 1). The tests therefore assert a failure *rate*, with
// deterministic seeds.

func TestTruncShareWithinOne(t *testing.T) {
	rg := ring.New(32)
	rng := prg.New(prg.SeedFromInt(1))
	const tbits = 8
	const trials = 5000
	failures := 0
	for i := 0; i < trials; i++ {
		// Values of ~20 bits: expected wrap rate 2^(21-32) ~ 0.05%.
		z := rg.FromSigned(int64(rng.Intn(1<<20)) - (1 << 19))
		z0 := rng.Elem(rg)
		z1 := rg.Sub(z, z0)
		got := rg.Signed(rg.Add(TruncShare0(rg, z0, tbits), TruncShare1(rg, z1, tbits)))
		want := rg.Signed(z) >> tbits
		if d := got - want; d < -1 || d > 1 {
			failures++
		}
	}
	// Allow up to 10x the expected wrap rate before declaring a bug.
	if failures > 25 {
		t.Fatalf("%d/%d truncations off by more than 1 (expect ~2.5)", failures, trials)
	}
}

// Requantized shares reconstruct to the exact reference within one unit
// at the wrap rate above.
func TestRequantRate(t *testing.T) {
	rg := ring.New(32)
	rng := prg.New(prg.SeedFromInt(3))
	const c, tb = 39, 14
	const trials = 4000
	failures := 0
	for i := 0; i < trials; i++ {
		// |z| < 2^14 so |z*c| < 2^20: wrap rate ~ 2^-11.
		z := rg.FromSigned(int64(rng.Intn(1<<14)) - (1 << 13))
		z0 := rng.Elem(rg)
		z1 := rg.Sub(z, z0)
		got := rg.Signed(rg.Add(RequantShare0(rg, z0, c, tb), RequantShare1(rg, z1, c, tb)))
		want := rg.Signed(truncExact(rg, z, c, tb))
		if d := got - want; d < -1 || d > 1 {
			failures++
		}
	}
	if failures > 20 {
		t.Fatalf("%d/%d requantizations off by more than 1 (expect ~2)", failures, trials)
	}
}

// The +-1 slack must actually be the common case, not a fluke: exact
// agreement or off-by-one should cover essentially everything.
func TestTruncZeroSharesExact(t *testing.T) {
	rg := ring.New(32)
	// With z1 = 0, truncation is exact division of the representative.
	for _, v := range []int64{0, 1, 255, 256, 1 << 20} {
		z := rg.FromSigned(v)
		got := rg.Signed(rg.Add(TruncShare0(rg, z, 8), TruncShare1(rg, 0, 8)))
		if got != v>>8 {
			t.Fatalf("trunc(%d) with zero share = %d, want %d", v, got, v>>8)
		}
	}
}

// truncExact is the plaintext reference floor(signed(z) * c / 2^t)
// embedded back in the ring; the secure result differs from it by at most
// one unit per truncation (w.h.p.).
func truncExact(rg ring.Ring, z ring.Elem, c uint64, t uint) ring.Elem {
	v := rg.Signed(rg.MulConst(c, z))
	return rg.FromSigned(v >> t) // arithmetic shift = floor division
}

func TestTruncExactKnown(t *testing.T) {
	rg := ring.New(32)
	// 1000 * 39 / 2^14 = floor(39000/16384) = 2.
	if got := rg.Signed(truncExact(rg, rg.FromSigned(1000), 39, 14)); got != 2 {
		t.Fatalf("truncExact = %d, want 2", got)
	}
	// Negative: floor(-39000/16384) = -3.
	if got := rg.Signed(truncExact(rg, rg.FromSigned(-1000), 39, 14)); got != -3 {
		t.Fatalf("truncExact(neg) = %d, want -3", got)
	}
}

func TestTrunc64Rate(t *testing.T) {
	rg := ring.New(64)
	rng := prg.New(prg.SeedFromInt(4))
	failures := 0
	for i := 0; i < 2000; i++ {
		z := rg.FromSigned(int64(rng.Uint64()>>24) - (1 << 39)) // 40 uniform bits
		z0 := rng.Elem(rg)
		z1 := rg.Sub(z, z0)
		got := rg.Signed(rg.Add(TruncShare0(rg, z0, 16), TruncShare1(rg, z1, 16)))
		want := rg.Signed(z) >> 16
		if d := got - want; d < -1 || d > 1 {
			failures++
		}
	}
	// 41-bit values in a 64-bit ring: wrap rate ~ 2^-22, so zero expected.
	if failures > 0 {
		t.Fatalf("%d/2000 64-bit truncations failed (expect 0)", failures)
	}
}
