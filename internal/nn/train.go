package nn

import (
	"math"

	"abnn2/internal/prg"
)

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      uint64
}

// DefaultTrainConfig is tuned for the synthetic dataset: a few epochs
// reach high accuracy on the 3-layer network.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 5, BatchSize: 32, LR: 0.05, Seed: 1}
}

// Train fits the model with minibatch SGD on softmax cross-entropy loss.
// It returns the final average loss. Deterministic for a fixed seed.
// Works for both fully connected and convolutional models (backprop runs
// through im2col and max-pool argmax routing).
func (m *Model) Train(xs [][]float64, labels []int, cfg TrainConfig) float64 {
	rng := prg.New(prg.SeedFromInt(cfg.Seed))
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Fisher-Yates shuffle with deterministic randomness.
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
		var epochLoss float64
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			epochLoss += m.step(xs, labels, idx[start:end], cfg.LR)
		}
		lastLoss = epochLoss / float64((n+cfg.BatchSize-1)/cfg.BatchSize)
	}
	return lastLoss
}

// step runs one minibatch update and returns the batch loss.
func (m *Model) step(xs [][]float64, labels []int, batch []int, lr float64) float64 {
	nl := len(m.Layers)
	gW := make([][]float64, nl)
	gB := make([][]float64, nl)
	for li, l := range m.Layers {
		gW[li] = make([]float64, len(l.W))
		gB[li] = make([]float64, len(l.B))
	}
	var loss float64
	for _, s := range batch {
		// Forward with traces.
		states := make([]layerState, nl)
		x := xs[s]
		for li, l := range m.Layers {
			states[li] = l.forwardLayer(x, true)
			x = states[li].act
		}
		// Softmax cross-entropy on the final activations.
		logits := states[nl-1].act
		probs := softmax(logits)
		loss += -math.Log(math.Max(probs[labels[s]], 1e-12))
		// dAct on the final layer output.
		dAct := make([]float64, len(logits))
		copy(dAct, probs)
		dAct[labels[s]] -= 1
		// Backward.
		for li := nl - 1; li >= 0; li-- {
			l := m.Layers[li]
			st := states[li]
			nIn, p := l.ColRows(), l.Cols()
			// Through pooling: scatter each pooled gradient to its argmax.
			dZ := dAct
			if l.Pool != nil {
				dZ = make([]float64, len(st.z))
				for wi, src := range st.poolIdx {
					dZ[src] += dAct[wi]
				}
			}
			// Through ReLU.
			if l.ReLU {
				masked := make([]float64, len(dZ))
				for i := range dZ {
					if st.z[i] > 0 {
						masked[i] = dZ[i]
					}
				}
				dZ = masked
			}
			// Weight and bias gradients: dW = dZ * xcol^T.
			for o := 0; o < l.Out; o++ {
				gwRow := gW[li][o*nIn : (o+1)*nIn]
				for j := 0; j < p; j++ {
					d := dZ[o*p+j]
					if d == 0 {
						continue
					}
					gB[li][o] += d
					for i := 0; i < nIn; i++ {
						gwRow[i] += d * st.xcol[i*p+j]
					}
				}
			}
			// Input gradient for the next (earlier) layer.
			if li > 0 {
				dCol := make([]float64, nIn*p)
				for i := 0; i < nIn; i++ {
					for j := 0; j < p; j++ {
						var acc float64
						for o := 0; o < l.Out; o++ {
							acc += l.W[o*nIn+i] * dZ[o*p+j]
						}
						dCol[i*p+j] = acc
					}
				}
				if l.Conv != nil {
					dAct = l.Conv.Col2ImFloat(dCol)
				} else {
					dAct = dCol
				}
			}
		}
	}
	scale := lr / float64(len(batch))
	for li, l := range m.Layers {
		for i := range l.W {
			l.W[i] -= scale * gW[li][i]
		}
		for i := range l.B {
			l.B[i] -= scale * gB[li][i]
		}
	}
	return loss / float64(len(batch))
}

func softmax(v []float64) []float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	out := make([]float64, len(v))
	var sum float64
	for i, x := range v {
		out[i] = math.Exp(x - m)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
