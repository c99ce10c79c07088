package nn

import (
	"encoding/json"
	"fmt"

	"abnn2/internal/quant"
)

// Wire formats for models, used by cmd/abnn2-train and the server binary.

type layerJSON struct {
	In   int       `json:"in"`
	Out  int       `json:"out"`
	W    []float64 `json:"w"`
	B    []float64 `json:"b"`
	ReLU bool      `json:"relu"`
	Conv *ConvSpec `json:"conv,omitempty"`
	Pool *PoolSpec `json:"pool,omitempty"`
}

type modelJSON struct {
	Layers []layerJSON `json:"layers"`
}

// MarshalModel serialises a float model to JSON.
func MarshalModel(m *Model) ([]byte, error) {
	mj := modelJSON{}
	for _, l := range m.Layers {
		mj.Layers = append(mj.Layers, layerJSON{In: l.In, Out: l.Out, W: l.W, B: l.B, ReLU: l.ReLU, Conv: l.Conv, Pool: l.Pool})
	}
	return json.Marshal(mj)
}

// UnmarshalModel parses a float model from JSON, validating shapes.
func UnmarshalModel(data []byte) (*Model, error) {
	var mj modelJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return nil, fmt.Errorf("nn: parse model: %w", err)
	}
	m := &Model{}
	for _, lj := range mj.Layers {
		m.Layers = append(m.Layers, &Layer{
			Shape: Shape{In: lj.In, Out: lj.Out, ReLU: lj.ReLU, Conv: lj.Conv, Pool: lj.Pool},
			W:     lj.W, B: lj.B,
		})
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

type qLayerJSON struct {
	In     int       `json:"in"`
	Out    int       `json:"out"`
	W      []int64   `json:"w"`
	B      []int64   `json:"b"`
	Scale  float64   `json:"scale"`
	ReLU   bool      `json:"relu"`
	Scheme string    `json:"scheme"`
	ReqC   uint64    `json:"reqc,omitempty"`
	ReqT   uint      `json:"reqt,omitempty"`
	Conv   *ConvSpec `json:"conv,omitempty"`
	Pool   *PoolSpec `json:"pool,omitempty"`
}

type qModelJSON struct {
	Layers []qLayerJSON `json:"layers"`
	Frac   uint         `json:"frac"`
}

// MarshalQuantized serialises a quantized model.
func MarshalQuantized(qm *QuantizedModel) ([]byte, error) {
	mj := qModelJSON{Frac: qm.Frac}
	for _, l := range qm.Layers {
		mj.Layers = append(mj.Layers, qLayerJSON{
			In: l.In, Out: l.Out, W: l.W, B: l.B,
			Scale: l.Scale, ReLU: l.ReLU, Scheme: l.Scheme.Name(),
			ReqC: l.ReqC, ReqT: l.ReqT, Conv: l.Conv, Pool: l.Pool,
		})
	}
	return json.Marshal(mj)
}

// UnmarshalQuantized parses a quantized model, resolving scheme names and
// validating every weight against its scheme.
func UnmarshalQuantized(data []byte) (*QuantizedModel, error) {
	var mj qModelJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return nil, fmt.Errorf("nn: parse quantized model: %w", err)
	}
	qm := &QuantizedModel{Frac: mj.Frac}
	for i, lj := range mj.Layers {
		scheme, err := quant.Parse(lj.Scheme)
		if err != nil {
			return nil, fmt.Errorf("nn: quantized layer %d: %w", i, err)
		}
		if _, err := quant.DecomposeAll(scheme, lj.W); err != nil {
			return nil, fmt.Errorf("nn: quantized layer %d: %w", i, err)
		}
		ql := &QuantizedLayer{
			Shape: Shape{In: lj.In, Out: lj.Out, ReLU: lj.ReLU, ReqC: lj.ReqC, ReqT: lj.ReqT, Conv: lj.Conv, Pool: lj.Pool},
			W:     lj.W, B: lj.B, Scale: lj.Scale, Scheme: scheme,
		}
		if err := ql.CheckParams(len(ql.W), len(ql.B)); err != nil {
			return nil, fmt.Errorf("nn: quantized layer %d: %w", i, err)
		}
		qm.Layers = append(qm.Layers, ql)
	}
	if err := ValidateShapes(qm.Frac, qm.Shapes()); err != nil {
		return nil, err
	}
	return qm, nil
}
