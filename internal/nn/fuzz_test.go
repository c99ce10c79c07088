package nn

import (
	"testing"

	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

// FuzzUnmarshalQuantized: arbitrary bytes must never panic the parser,
// anything accepted must evaluate on a zero input and survive a
// marshal/unmarshal round trip.
func FuzzUnmarshalQuantized(f *testing.F) {
	m := NewModel(3, 2)
	qm := Quantize(m, quant.Uniform(2, 2), 4)
	good, _ := MarshalQuantized(qm)
	f.Add(good)
	f.Add([]byte(`{"frac":8,"layers":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"frac":8,"layers":[{"in":1,"out":1,"w":[9],"b":[0],"scale":1,"scheme":"ternary"}]}`))
	f.Add([]byte(`{"frac":4,"layers":[` +
		`{"in":4,"out":3,"w":[1,0,1,0,1,0,1,0,1,0,1,0],"b":[0,0,0],"scale":1,"relu":true,"scheme":"binary"},` +
		`{"in":5,"out":2,"w":[1,0,1,0,1,0,1,0,1,0],"b":[0,0],"scale":1,"relu":false,"scheme":"binary"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		qm, err := UnmarshalQuantized(data)
		if err != nil {
			return
		}
		_ = qm.ForwardRing(ring.New(64), make(ring.Vec, qm.InputSize())) // must not panic on accepted models
		re, err := MarshalQuantized(qm)
		if err != nil {
			t.Fatalf("accepted model failed to marshal: %v", err)
		}
		if _, err := UnmarshalQuantized(re); err != nil {
			t.Fatalf("remarshalled model rejected: %v", err)
		}
	})
}

// FuzzUnmarshalModel: same contract for float models.
func FuzzUnmarshalModel(f *testing.F) {
	m := NewModel(3, 2)
	good, _ := MarshalModel(m)
	f.Add(good)
	f.Add([]byte(`{"layers":[{"in":2,"out":1,"w":[1,2],"b":[0],"relu":true}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"layers":[{"in":-3,"out":0,"w":[],"b":[],"relu":false}]}`))
	// A conv whose padding makes a ~4*10^12-position output grid.
	f.Add([]byte(`{"layers":[{"in":25,"out":1,"w":[0,0,0,0],"b":[0],"conv":{"ci":1,"h":5,"w":5,"kh":2,"kw":2,"stride":1,"pad":1000000}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalModel(data)
		if err != nil {
			return
		}
		x := make([]float64, m.Layers[0].In)
		_ = m.Forward(x) // must not panic on accepted models
	})
}
