package plan

import (
	"bytes"
	"testing"

	"abnn2/internal/core"
)

// FuzzUnmarshalPlan: the plan frame is attacker-shaped bytes at the
// server (it rides the client's batch announcement), so arbitrary input
// must never panic the parser, and anything accepted must re-marshal to
// exactly the bytes that were accepted — the encoding is canonical, and
// Unmarshal rejects trailing garbage, so the round trip is an identity.
func FuzzUnmarshalPlan(f *testing.F) {
	mixed := &Plan{Layers: []Choice{
		{Backend: core.BackendABNN2, Scheme: "8(2,2,2,2)"},
		{Backend: core.BackendMiniONN},
		{Backend: core.BackendSecureML},
	}}
	one := Uniform(core.BackendQuotient, 1).Marshal()
	// The rejection boundaries: layer 0's backend byte (offset 6) unknown,
	// its scheme-length byte (offset 7) over MaxSchemeName, a scheme body
	// cut short.
	badBackend := append([]byte{}, one...)
	badBackend[6] = 0xEE
	longScheme := append([]byte{}, one...)
	longScheme[7] = MaxSchemeName + 1
	torn := mixed.Marshal()
	for _, seed := range [][]byte{
		mixed.Marshal(),
		one,
		Uniform(core.BackendABNN2, MaxLayers).Marshal(),
		badBackend,
		longScheme,
		torn[:len(torn)-3],
		[]byte("ABP1\x00\x00"),                 // zero layers
		[]byte("ABP1\xff\xff"),                 // over MaxLayers
		append(append([]byte{}, one...), 0x00), // trailing byte
		[]byte("ABP1"),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		re := p.Marshal()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted plan does not round-trip: got %x, want %x", re, data)
		}
		// Derived forms must not panic on any accepted frame.
		_ = p.Fingerprint()
		_ = p.String()
		if _, uni := p.IsUniform(); uni && len(p.Layers) == 0 {
			t.Fatal("empty plan reported uniform")
		}
	})
}
