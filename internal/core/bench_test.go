package core

import (
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// benchTriplets measures offline triplet generation throughput for one
// scheme and shape.
func benchTriplets(b *testing.B, scheme quant.Scheme, sh MatShape, mode Mode) {
	benchTripletsWorkers(b, scheme, sh, mode, 0)
}

func benchTripletsWorkers(b *testing.B, scheme quant.Scheme, sh MatShape, mode Mode, workers int) {
	p := Params{Ring: ring.New(32), Scheme: scheme, Workers: workers}
	ca, cb := transport.Pipe()
	defer ca.Close()
	var (
		ct  *ClientTriplets
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ct, err = NewClientTriplets(ca, p, 1, prg.New(prg.SeedFromInt(1)))
	}()
	st, serr := NewServerTripletsSeeded(cb, p, 1, prg.New(prg.NewSeed()))
	wg.Wait()
	if err != nil || serr != nil {
		b.Fatalf("setup: %v %v", err, serr)
	}
	rng := prg.New(prg.SeedFromInt(2))
	min, max := scheme.Range()
	span := int(max - min + 1)
	W := make([]int64, sh.M*sh.N)
	for i := range W {
		W[i] = min + int64(rng.Intn(span))
	}
	R := rng.Mat(p.Ring, sh.N, sh.O)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cwg sync.WaitGroup
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			if _, err := ct.GenerateClient(sh, R, mode); err != nil {
				b.Error(err)
			}
		}()
		if _, err := st.GenerateServer(sh, W, mode); err != nil {
			b.Fatal(err)
		}
		cwg.Wait()
	}
	b.ReportMetric(float64(p.NumOTs(sh)), "OTs/op")
}

func BenchmarkTripletsOneBatch8bit(b *testing.B) {
	benchTriplets(b, quant.Uniform(2, 4), MatShape{M: 128, N: 128, O: 1}, OneBatch)
}

// The first layer of the paper's Fig. 4 MLP at batch 1 under 4(2,2):
// 200 704 OTs in 49 chunks on one worker per party, which is where the
// mlp_b1_lan workload of the repository benchmark spends its time.
func BenchmarkTripletsOneBatchFig4FC1(b *testing.B) {
	benchTripletsWorkers(b, quant.Uniform(2, 2), MatShape{M: 128, N: 784, O: 1}, OneBatch, 1)
}

func BenchmarkTripletsOneBatchBinary(b *testing.B) {
	benchTriplets(b, quant.Binary(), MatShape{M: 128, N: 128, O: 1}, OneBatch)
}

func BenchmarkTripletsOneBatchTernary(b *testing.B) {
	benchTriplets(b, quant.Ternary(), MatShape{M: 128, N: 128, O: 1}, OneBatch)
}

// The bank's fill unit on mlp_b32_banked: the first Fig. 4 layer at
// o = 32 under 4(2,2), 200 704 multi-batch OTs of four 128-byte
// candidates each, on one worker per party.
func BenchmarkTripletsMultiBatchFig4FC1x32(b *testing.B) {
	benchTripletsWorkers(b, quant.Uniform(2, 2), MatShape{M: 128, N: 784, O: 32}, MultiBatch, 1)
}

// cnn_b1_lan's convolution: 1 -> 4 channels, 5x5 kernels under
// 8(2,2,2,2), 400 OTs at o = 576 positions, 2,304-byte pads, one chunk
// split over two workers per party.
func BenchmarkTripletsConvLongPads(b *testing.B) {
	benchTripletsWorkers(b, quant.Uniform(2, 4), MatShape{M: 4, N: 25, O: 576}, MultiBatch, 2)
}

func BenchmarkTripletsMultiBatch16(b *testing.B) {
	benchTriplets(b, quant.Uniform(2, 4), MatShape{M: 128, N: 128, O: 16}, MultiBatch)
}

// benchReLU measures the non-linear protocols.
func benchReLU(b *testing.B, variant ReLUVariant, n int) {
	rg := ring.New(32)
	ca, cb := transport.Pipe()
	defer ca.Close()
	var (
		cn  *ClientNonlinear
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cn, err = NewClientNonlinear(ca, rg, 5, prg.New(prg.SeedFromInt(1)))
	}()
	sn, serr := NewServerNonlinear(cb, rg, 5, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	if err != nil || serr != nil {
		b.Fatalf("setup: %v %v", err, serr)
	}
	rng := prg.New(prg.SeedFromInt(3))
	y0 := rng.Vec(rg, n)
	y1 := rng.Vec(rg, n)
	z1 := rng.Vec(rg, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cwg sync.WaitGroup
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			if err := cn.ReLUClient(variant, y1, z1); err != nil {
				b.Error(err)
			}
		}()
		if _, err := sn.ReLUServer(variant, y0); err != nil {
			b.Fatal(err)
		}
		cwg.Wait()
	}
	b.ReportMetric(float64(n), "neurons/op")
}

func BenchmarkReLUGC256(b *testing.B)        { benchReLU(b, ReLUGC, 256) }
func BenchmarkReLUOptimized256(b *testing.B) { benchReLU(b, ReLUOptimized, 256) }

// benchMaxPool measures the GC pooling protocol over 2x2 windows.
func BenchmarkMaxPool256Windows(b *testing.B) {
	rg := ring.New(32)
	ca, cb := transport.Pipe()
	defer ca.Close()
	var (
		cn  *ClientNonlinear
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cn, err = NewClientNonlinear(ca, rg, 5, prg.New(prg.SeedFromInt(1)))
	}()
	sn, serr := NewServerNonlinear(cb, rg, 5, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	if err != nil || serr != nil {
		b.Fatalf("setup: %v %v", err, serr)
	}
	const nWin = 256
	rng := prg.New(prg.SeedFromInt(3))
	y0 := rng.Vec(rg, nWin*4)
	y1 := rng.Vec(rg, nWin*4)
	z1 := rng.Vec(rg, nWin)
	windows := make([][]int, nWin)
	for i := range windows {
		windows[i] = []int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cwg sync.WaitGroup
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			if err := cn.MaxPoolClient(y1, z1, windows, true); err != nil {
				b.Error(err)
			}
		}()
		if _, err := sn.MaxPoolServer(y0, windows, true); err != nil {
			b.Fatal(err)
		}
		cwg.Wait()
	}
	b.ReportMetric(nWin, "windows/op")
}
