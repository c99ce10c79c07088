package otext

import (
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// benchPair builds a connected sender/receiver without testing.T.
func benchPair(b *testing.B, code Code) (*Sender, *Receiver, func()) {
	b.Helper()
	ca, cb := transport.Pipe()
	var (
		snd *Sender
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		snd, err = NewSender(ca, code, 7, prg.New(prg.SeedFromInt(1)))
	}()
	rcv, rerr := NewReceiver(cb, code, 7, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	if err != nil || rerr != nil {
		b.Fatalf("setup: %v %v", err, rerr)
	}
	return snd, rcv, func() { ca.Close() }
}

func benchExtend(b *testing.B, code Code, m int) { benchExtendWorkers(b, code, m, 0) }

// benchExtendWorkers pins both parties to a worker count; workers=1 is
// the sequential baseline the parallel kernels are compared against.
// Both sides release their blocks each round, as the triplet kernels do,
// so a round reuses the row matrix the last one transposed into.
func benchExtendWorkers(b *testing.B, code Code, m, workers int) {
	snd, rcv, done := benchPair(b, code)
	defer done()
	snd.SetWorkers(workers)
	rcv.SetWorkers(workers)
	choices := make([]int, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			blk, err := snd.Extend(m)
			if err != nil {
				b.Error(err)
				return
			}
			blk.Release()
		}()
		blk, err := rcv.Extend(choices)
		if err != nil {
			b.Fatal(err)
		}
		blk.Release()
		wg.Wait()
	}
	b.ReportMetric(float64(m)*float64(b.N), "OTs-total")
}

func BenchmarkExtendIKNP4096(b *testing.B)  { benchExtend(b, WalshHadamardCode(2), 4096) }
func BenchmarkExtendKK13x4096(b *testing.B) { benchExtend(b, WalshHadamardCode(16), 4096) }

// N = 4, the 192-column code every benchmark workload's layers run.
func BenchmarkExtendKK13N4x4096(b *testing.B) { benchExtend(b, WalshHadamardCode(4), 4096) }

// Workers=1 vs Workers=8 on a large KK13 round: the ratio is the
// speedup quoted in EXPERIMENTS.md.
func BenchmarkExtendKK13x65536Workers1(b *testing.B) {
	benchExtendWorkers(b, WalshHadamardCode(256), 65536, 1)
}
func BenchmarkExtendKK13x65536Workers8(b *testing.B) {
	benchExtendWorkers(b, WalshHadamardCode(256), 65536, 8)
}

// One op is one OT on the sender: the index step once, then all N
// candidate pads of padBytes each.
func benchPadDerivation(b *testing.B, code Code, padBytes int) {
	snd, rcv, done := benchPair(b, code)
	defer done()
	const m = 1024
	var (
		sb *SenderBlock
		wg sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sb, _ = snd.Extend(m)
	}()
	if _, err := rcv.Extend(make([]int, m)); err != nil {
		b.Fatal(err)
	}
	wg.Wait()
	d := sb.NewDeriver()
	pads := make([]byte, code.N()*padBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(pads)
		d.XORPadsRun(pads, padBytes, i%m, code.N())
	}
}

// N = 16 with 64-byte pads: a multi-batch payload, expansion included.
func BenchmarkPadDerivation(b *testing.B) { benchPadDerivation(b, WalshHadamardCode(16), 64) }

// N = 4 with 4-byte pads: the inner loop of a one-batch triplet at
// 4(2,2) over a 32-bit ring, which is all of mlp_b1_lan's offline phase.
func BenchmarkPadDerivationN4(b *testing.B) { benchPadDerivation(b, WalshHadamardCode(4), 4) }

// extendedPair runs one m-OT extension round at code and returns both
// blocks, the receiver's under all-zero choices.
func extendedPair(b *testing.B, code Code, m int) (*SenderBlock, *ReceiverBlock) {
	snd, rcv, done := benchPair(b, code)
	b.Cleanup(done)
	var (
		sb *SenderBlock
		wg sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sb, _ = snd.Extend(m)
	}()
	rb, err := rcv.Extend(make([]int, m))
	wg.Wait()
	if err != nil || sb == nil {
		b.Fatalf("extend: %v", err)
	}
	return sb, rb
}

// One op is one OT of a 4096-OT run on the sender at N = 4 with 4-byte
// pads: BenchmarkPadDerivationN4's OT, derived as the one-batch client
// derives it, a run at a time.
func BenchmarkPadRunN4(b *testing.B) {
	const m = 4096
	sb, _ := extendedPair(b, WalshHadamardCode(4), m)
	d := sb.NewDeriver()
	pads := make([]byte, m*4*4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += m {
		d.XORPadsRun(pads, 4, 0, 4)
	}
}

// One op is one OT of a 4096-OT run on the receiver at N = 4 with the
// 16-byte short pad the one-batch server derives per OT.
func BenchmarkReceiverPadRun(b *testing.B) {
	const m = 4096
	_, rb := extendedPair(b, WalshHadamardCode(4), m)
	d := rb.NewDeriver()
	pads := make([]byte, m*16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += m {
		d.XORPadsRun(pads, 16, 0)
	}
}

func BenchmarkBaseOTSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, done := benchPair(b, WalshHadamardCode(2))
		done()
	}
}
