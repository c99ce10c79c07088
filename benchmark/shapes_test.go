package main

import "testing"

func shapesOf(t *testing.T, model string, batch int, private bool) requestShape {
	t.Helper()
	qm, err := buildModel(model)
	if err != nil {
		t.Fatal(err)
	}
	a := qm.Arch()
	fragN, err := schemeFragments(a.SchemeName)
	if err != nil {
		t.Fatal(err)
	}
	return deriveShapes(a, fragN, batch, private)
}

// Fig. 4 at scheme 4(2,2): gamma = 2 fragments of N = 4, and
// 2 * (784*128 + 128*128 + 128*10) = 236032 OTs whatever the batch.
func TestShapesFig4(t *testing.T) {
	for _, batch := range []int{1, 32} {
		rs := shapesOf(t, modelFig4, batch, false)
		if len(rs.FragN) != 2 || rs.maxFragN() != 4 {
			t.Fatalf("gamma %d, N %d; want 2, 4", len(rs.FragN), rs.maxFragN())
		}
		total, multi := rs.ots()
		if total != 236032 {
			t.Errorf("batch %d: %d OTs, want 236032", batch, total)
		}
		if want := map[int]int{1: 0, 32: 236032}[batch]; multi != want {
			t.Errorf("batch %d: %d multi-batch OTs, want %d", batch, multi, want)
		}
		if relu, pooled := rs.activations(); relu != 256*batch || pooled != 0 {
			t.Errorf("batch %d: %d ReLU and %d pooled values, want %d and 0", batch, relu, pooled, 256*batch)
		}
		if got, want := rs.oracleCalls(), 236032*5; got != want {
			t.Errorf("batch %d: %d pad derivations, want %d", batch, got, want)
		}
		if l := rs.Layers[0]; l.M != 128 || l.N != 784 || l.O != batch {
			t.Errorf("batch %d: first layer is %dx%d times %d columns", batch, l.M, l.N, l.O)
		}
		// 196 + 32 + 3 full or partial rounds of 4096 OTs.
		if got := len(rs.extendRounds()); got != 49+8+1 {
			t.Errorf("batch %d: %d extension rounds, want 58", batch, got)
		}
		if rs.ArgmaxN != 0 {
			t.Errorf("plain finish has argmax over %d classes", rs.ArgmaxN)
		}
	}
}

// The small CNN: the convolution is a 4x25 matrix over 576 positions
// (multi-batch even at batch 1) with a fused ReLU + 2x2 pool, the FC a
// one-batch 10x576; the private finish is an argmax over 10 classes.
func TestShapesCNN(t *testing.T) {
	rs := shapesOf(t, modelCNN, 1, true)
	if len(rs.FragN) != 4 {
		t.Fatalf("gamma %d, want 4", len(rs.FragN))
	}
	conv, fc := rs.Layers[0], rs.Layers[1]
	if conv.M != 4 || conv.N != 25 || conv.O != 576 {
		t.Errorf("conv is %dx%d times %d columns, want 4x25 times 576", conv.M, conv.N, conv.O)
	}
	if conv.PoolWindows != 576 || conv.PoolWin != 4 || !conv.PoolReLU || conv.ReLUNeurons != 0 {
		t.Errorf("conv activation: %+v", conv)
	}
	if fc.M != 10 || fc.N != 576 || fc.O != 1 || fc.ReLUNeurons != 0 || fc.PoolWindows != 0 {
		t.Errorf("fc: %+v", fc)
	}
	total, multi := rs.ots()
	if total != 4*(100+5760) || multi != 400 {
		t.Errorf("%d OTs, %d multi-batch; want 23440, 400", total, multi)
	}
	if relu, pooled := rs.activations(); relu != 0 || pooled != 2304 || rs.ArgmaxN != 10 {
		t.Errorf("%d ReLU and %d pooled values, argmax over %d", relu, pooled, rs.ArgmaxN)
	}
}
