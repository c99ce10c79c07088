package main

// Every call from the benchmark into the program is in this file: the
// root abnn2 package for sessions and banks, internal/serve for the
// serving runtime, and the exported constructors of the layer packages
// for the kernel replay. When a later change collapses an API (one bank,
// one session constructor), this is the one file to follow it.

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"abnn2"
	"abnn2/internal/bitmat"
	"abnn2/internal/core"
	"abnn2/internal/gc"
	"abnn2/internal/metrics"
	"abnn2/internal/otext"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/serve"
	"abnn2/internal/transport"
)

// The program's types the rest of the benchmark handles, so that no other
// file imports the program.
type (
	arch        = abnn2.Arch
	wireStats   = abnn2.Stats
	traceSpan   = abnn2.TraceSpan
	traceFlight = abnn2.TraceFlight
	traceSink   = abnn2.TraceSink
	quantModel  = abnn2.QuantizedModel
)

const (
	ringBits = 32 // l of the share ring in every workload
	fracBits = 8  // input fixed-point precision; leaves 5 bits of headroom in Z_2^32
	// roundTimeout turns a wedged session into an error instead of a hang.
	roundTimeout = time.Minute
)

// Model names of the workload table.
const (
	modelFig4  = "fig4"  // the paper's Fig. 4 MLP 784-128-128-10, scheme 4(2,2)
	modelCNN   = "cnn"   // NewSmallCNN(4), scheme 8(2,2,2,2)
	modelSmall = "small" // MLP 64-32-10, scheme 4(2,2): cheap enough that session set-up dominates
)

// buildModel builds and quantises a workload's model. Weights are the
// seeded Xavier initialisation: the protocol's cost does not depend on
// weight values, and correctness is bit-identity against plaintext.
func buildModel(name string) (*abnn2.QuantizedModel, error) {
	switch name {
	case modelFig4:
		return abnn2.Fig4Network().Quantize("4(2,2)", fracBits)
	case modelCNN:
		return abnn2.NewSmallCNN(4).Quantize("8(2,2,2,2)", fracBits)
	case modelSmall:
		return abnn2.NewMLP(64, 32, 10).Quantize("4(2,2)", fracBits)
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

// generateInputs makes n inputs of the model's size from the workload
// seed. The synthetic images are 784 values; a smaller model samples
// them evenly.
func generateInputs(n, size int, seed uint64) [][]float64 {
	ds := abnn2.SyntheticDataset(n, seed)
	if size == len(ds.Inputs[0]) {
		return ds.Inputs
	}
	out := make([][]float64, n)
	for k, img := range ds.Inputs {
		x := make([]float64, size)
		for i := range x {
			x[i] = img[i*len(img)/size]
		}
		out[k] = x
	}
	return out
}

// schemeFragments returns the candidate count N of every weight fragment
// of a scheme designation such as "4(2,2)".
func schemeFragments(name string) ([]int, error) {
	s, err := quant.Parse(name)
	if err != nil {
		return nil, err
	}
	n := make([]int, s.Gamma())
	for i := range n {
		n[i] = s.FragmentN(i)
	}
	return n, nil
}

// partySeeds derives the two parties' Config.Seed from the workload seed
// (both non-zero, so the whole transcript repeats byte for byte).
func partySeeds(seed uint64) (server, client uint64) {
	return 2*seed + 1, 2*seed + 2
}

// ---- one long session over TCP loopback ----

type sessionOpts struct {
	Seed    uint64
	Workers int
	Bank    *bankEnv        // non-nil: both parties draw from it, OfflineBanked
	Shaper  *shaper         // non-nil: both directions pass through it
	Trace   abnn2.TraceSink // both parties' span sink, nil on untraced runs
}

// session is one server and one client joined by a real TCP connection.
type session struct {
	client   *abnn2.Client
	ln       net.Listener
	served   chan error
	DialTime time.Duration // wall of abnn2.Dial: session set-up including base OTs
}

func (o sessionOpts) configs() (server, client abnn2.Config) {
	sseed, cseed := partySeeds(o.Seed)
	server = abnn2.Config{RingBits: ringBits, Seed: sseed, Workers: o.Workers,
		RoundTimeout: roundTimeout, Trace: o.Trace}
	client = abnn2.Config{RingBits: ringBits, Seed: cseed, Workers: o.Workers,
		RoundTimeout: roundTimeout, Trace: o.Trace}
	if o.Bank != nil {
		server.Bank, server.OfflineMode = o.Bank.bank, abnn2.OfflineBanked
		client.Bank, client.OfflineMode, client.BankModel = o.Bank.bank, abnn2.OfflineBanked, o.Bank.id
	}
	return server, client
}

// loopbackPair returns the two ends of a fresh TCP loopback connection,
// shaped when sh is non-nil, and the listener that produced it.
func loopbackPair(sh *shaper) (ln net.Listener, server, client net.Conn, err error) {
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-ch
		return nil, nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		ln.Close()
		return nil, nil, nil, a.err
	}
	server = a.c
	if sh != nil {
		server, client = sh.wrap(server), sh.wrap(client)
	}
	return ln, server, client, nil
}

func openSession(qm *abnn2.QuantizedModel, o sessionOpts) (*session, error) {
	ln, sconn, cconn, err := loopbackPair(o.Shaper)
	if err != nil {
		return nil, err
	}
	scfg, ccfg := o.configs()
	s := &session{ln: ln, served: make(chan error, 1)}
	go func() {
		_, err := abnn2.Serve(abnn2.Stream(sconn), qm, scfg)
		sconn.Close() // Serve leaves the connection to its caller
		s.served <- err
	}()
	start := time.Now()
	s.client, err = abnn2.Dial(abnn2.Stream(cconn), qm.Arch(), ccfg)
	s.DialTime = time.Since(start)
	if err != nil {
		cconn.Close()
		<-s.served
		ln.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return s, nil
}

// predict runs one request: Classify, or ClassifyPrivate when private.
func (s *session) predict(inputs [][]float64, private bool) ([]int, error) {
	if private {
		return s.client.ClassifyPrivate(inputs)
	}
	return s.client.Classify(inputs)
}

func (s *session) stats() abnn2.Stats { return s.client.Stats() }

// close hangs up and waits for the server side to end.
func (s *session) close() error {
	cerr := s.client.Close()
	serr := <-s.served
	s.ln.Close()
	if serr != nil {
		return fmt.Errorf("server: %w", serr)
	}
	return cerr
}

// ---- correlation bank ----

type bankEnv struct {
	bank *abnn2.Bank
	id   string
	key  abnn2.BankKey
}

// newBank returns an empty bank able to hold capacity correlations for
// batches of the given size of qm.
func newBank(qm *abnn2.QuantizedModel, seed uint64, workers, batch, capacity int) (*bankEnv, error) {
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: capacity, Low: 1, Workers: workers, Seed: seed})
	id, err := abnn2.RegisterBankModel(b, qm)
	if err != nil {
		b.Close()
		return nil, err
	}
	return &bankEnv{bank: b, id: id, key: abnn2.BankKey{Model: id, Scheme: qm.Scheme(),
		RingBits: ringBits, Batch: batch, Backend: abnn2.BankSessionBackend}}, nil
}

// fill generates n correlations one at a time and returns each one's
// wall, then stops background replenishment so that timed requests share
// the processor with nothing.
func (b *bankEnv) fill(n int) ([]float64, error) {
	per := make([]float64, 0, n)
	for depth := 1; depth <= n; depth++ {
		start := time.Now()
		if err := b.bank.Prewarm(b.key, depth); err != nil {
			return nil, err
		}
		per = append(per, time.Since(start).Seconds())
	}
	return per, b.bank.Drain(context.Background())
}

func (b *bankEnv) counters() (hits, misses int64) {
	st := b.bank.Snapshot()
	return st.Hits, st.Misses
}

func (b *bankEnv) close() { b.bank.Close() }

// ---- serving runtime ----

type runtimeEnv struct {
	rt      *serve.Runtime
	m       *serve.Metrics
	ln      net.Listener
	conns   sync.WaitGroup
	Workers int
	Seed    uint64
}

// serveCounters are the runtime's own counts of what it did.
type serveCounters struct {
	Handshakes, Admitted, Rejections, Degraded int64
}

// openRuntime starts a serve.Runtime behind a real listener, one
// HandleConn goroutine per accepted connection.
func openRuntime(qm *abnn2.QuantizedModel, seed uint64, workers int, trace abnn2.TraceSink) (*runtimeEnv, error) {
	reg := serve.NewRegistry()
	if _, err := reg.Add(modelSmall, qm); err != nil {
		return nil, err
	}
	sseed, _ := partySeeds(seed)
	m := serve.NewMetrics(metrics.NewRegistry())
	rt, err := serve.New(serve.Options{Registry: reg, Metrics: m,
		Session: abnn2.Config{RingBits: ringBits, Seed: sseed, Workers: workers,
			RoundTimeout: roundTimeout, Trace: trace}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &runtimeEnv{rt: rt, m: m, ln: ln, Workers: workers, Seed: seed}
	r.conns.Add(1)
	go func() {
		defer r.conns.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			r.conns.Add(1)
			go func() {
				defer r.conns.Done()
				// The client sees a failed session as its own error.
				_ = rt.HandleConn(context.Background(), abnn2.Stream(c), c.RemoteAddr().String())
			}()
		}
	}()
	return r, nil
}

// churnTimes splits one churn request.
type churnTimes struct {
	Handshake float64 // serve.DialModelInfo: TCP connect, hello, admission
	Dial      float64 // abnn2.Dial: base OTs
}

// churnOnce is one whole client visit: handshake, session set-up, one
// Classify, hang-up.
func (r *runtimeEnv) churnOnce(ctx context.Context, input []float64, trace abnn2.TraceSink) (class int, st abnn2.Stats, t churnTimes, err error) {
	start := time.Now()
	conn, info, err := serve.DialModelInfo(ctx, r.ln.Addr().String(), modelSmall)
	if err != nil {
		return 0, st, t, fmt.Errorf("handshake: %w", err)
	}
	t.Handshake = time.Since(start).Seconds()
	_, cseed := partySeeds(r.Seed)
	start = time.Now()
	cl, err := abnn2.DialContext(ctx, conn, info.Arch, abnn2.Config{RingBits: ringBits, Seed: cseed,
		Workers: r.Workers, RoundTimeout: roundTimeout, SessionID: info.SessionID, Trace: trace})
	if err != nil {
		conn.Close()
		return 0, st, t, fmt.Errorf("dial: %w", err)
	}
	t.Dial = time.Since(start).Seconds()
	classes, err := cl.Classify([][]float64{input})
	st = cl.Stats()
	if cerr := cl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, st, t, err
	}
	return classes[0], st, t, nil
}

func (r *runtimeEnv) counters() serveCounters {
	c := serveCounters{Handshakes: r.m.Handshakes.Value(), Degraded: r.m.Degraded.Value(),
		Admitted: r.m.SessionsTotal.With(modelSmall).Value()}
	for _, code := range []string{serve.RejectSaturated, serve.RejectBankDry, serve.RejectDraining,
		serve.RejectUnknownModel, serve.RejectBadHello, serve.RejectBadPlan} {
		c.Rejections += r.m.Shed.With(code).Value()
	}
	return c
}

// close stops accepting, lets admitted sessions finish and waits for
// every goroutine the runtime was given.
func (r *runtimeEnv) close() error {
	r.ln.Close()
	err := r.rt.Drain(context.Background())
	r.conns.Wait()
	return err
}

// ---- transport probes ----

// echoPair is a framed connection pair with an echo loop on the far end,
// over the workload's link.
type echoPair struct {
	ln     net.Listener
	near   abnn2.Conn
	echoed chan error
}

func openEcho(sh *shaper) (*echoPair, error) {
	ln, sconn, cconn, err := loopbackPair(sh)
	if err != nil {
		return nil, err
	}
	e := &echoPair{ln: ln, near: abnn2.Stream(cconn), echoed: make(chan error, 1)}
	far := abnn2.Stream(sconn)
	go func() {
		defer far.Close()
		for {
			msg, err := far.Recv()
			if err != nil {
				e.echoed <- nil // the near end hung up
				return
			}
			// A 1-byte frame acknowledges a streamed frame; anything
			// else comes back whole.
			if len(msg) > 1<<16 {
				msg = msg[:1]
			}
			if err := far.Send(msg); err != nil {
				e.echoed <- err
				return
			}
		}
	}()
	return e, nil
}

// roundTrip sends one frame and waits for the answer.
func (e *echoPair) roundTrip(msg []byte) error {
	if err := e.near.Send(msg); err != nil {
		return err
	}
	_, err := e.near.Recv()
	return err
}

// stream sends frames copies of msg back to back, then collects the
// far end's acknowledgements.
func (e *echoPair) stream(msg []byte, frames int) error {
	for i := 0; i < frames; i++ {
		if err := e.near.Send(msg); err != nil {
			return err
		}
	}
	for i := 0; i < frames; i++ {
		if _, err := e.near.Recv(); err != nil {
			return err
		}
	}
	return nil
}

func (e *echoPair) close() error {
	e.near.Close()
	err := <-e.echoed
	e.ln.Close()
	return err
}

// netModelPredict is the analytic link model's wall for a request that
// takes compute seconds unshaped and moves st over link l.
func netModelPredict(l link, compute float64, st abnn2.Stats) float64 {
	nm := transport.NetModel{Name: "bench", BandwidthBytes: l.BytesPerSec, RTT: l.RTT}
	return nm.TotalTime(time.Duration(compute*float64(time.Second)), st).Seconds()
}

// lanModel is the program's own LAN preset, used where no link is shaped.
var lanModel = link{BytesPerSec: transport.LAN.BandwidthBytes, RTT: transport.LAN.RTT}

// ---- kernel replay: prg, bitmat, ring ----

// kernelPRGFill expands total bytes in calls of chunk bytes, as OT
// extension does per code column.
func kernelPRGFill(total, chunk int) {
	g := prg.New(prg.SeedFromInt(1))
	buf := make([]byte, chunk)
	for done := 0; done < total; done += chunk {
		g.Fill(buf)
	}
}

// kernelOracle derives calls pads of outBytes from one code-width row.
func kernelOracle(calls, outBytes int) {
	o := prg.NewFastOracle("benchmark/replay")
	row := make([]byte, codeWidthBits/8)
	for i := 0; i < calls; i++ {
		_ = o.Hash(1, uint64(i), 0, row, outBytes)
	}
}

// transposeInput is a rows x cols bit matrix ready for kernelTranspose.
func transposeInput(rows, cols int) *bitmat.Matrix {
	m := bitmat.New(rows, cols)
	prg.New(prg.SeedFromInt(2)).Fill(m.Data)
	return m
}

func kernelTranspose(m *bitmat.Matrix, times int) {
	for i := 0; i < times; i++ {
		_ = bitmat.Transpose(m)
	}
}

// mulMatInput holds random operands for every layer's online W*X.
type mulMatInput struct {
	rg   ring.Ring
	w, x []*ring.Mat
}

func newMulMatInput(rs requestShape) mulMatInput {
	in := mulMatInput{rg: ring.New(ringBits)}
	g := prg.New(prg.SeedFromInt(3))
	for _, l := range rs.Layers {
		in.w = append(in.w, g.Mat(in.rg, l.M, l.N))
		in.x = append(in.x, g.Mat(in.rg, l.N, l.O))
	}
	return in
}

func kernelMulMat(in mulMatInput) {
	for i := range in.w {
		_ = in.rg.MulMat(in.w[i], in.x[i])
	}
}

// ---- kernel replay: baseot + otext ----

// otPair is an OT-extension sender and receiver joined by a metered pipe.
type otPair struct {
	snd   *otext.Sender
	rcv   *otext.Receiver
	meter *transport.Meter
	conn  transport.Conn
}

// together runs the two roles of a two-party step concurrently and
// returns the first error. A role that fails closes conn, so that its
// peer, blocked on the pipe, fails too instead of hanging.
func together(conn io.Closer, a, b func() error) error {
	role := func(f func() error) error {
		err := f()
		if err != nil {
			conn.Close()
		}
		return err
	}
	ch := make(chan error, 1)
	go func() { ch <- role(a) }()
	berr := role(b)
	if aerr := <-ch; aerr != nil {
		return aerr
	}
	return berr
}

// openOTPair runs the base-OT set-up of both roles (baseot.setup_s is the
// wall of this call) with workers kernel goroutines per party.
func openOTPair(workers int) (*otPair, error) {
	ca, cb, meter := transport.MeteredPipe()
	p := &otPair{meter: meter, conn: ca}
	code := otext.WalshHadamardCode(codeWidthBits)
	err := together(ca, func() (err error) {
		p.snd, err = otext.NewSender(ca, code, 1, prg.New(prg.SeedFromInt(4)))
		return err
	}, func() (err error) {
		p.rcv, err = otext.NewReceiver(cb, code, 1, prg.New(prg.SeedFromInt(5)))
		return err
	})
	if err != nil {
		ca.Close()
		return nil, err
	}
	p.snd.SetWorkers(workers)
	p.rcv.SetWorkers(workers)
	return p, nil
}

// extend runs one extension round per entry of rounds; choices must be as
// long as the largest round.
func (p *otPair) extend(rounds []int, choices []int) error {
	return together(p.conn, func() error {
		for _, m := range rounds {
			if _, err := p.snd.Extend(m); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for _, m := range rounds {
			if _, err := p.rcv.Extend(choices[:m]); err != nil {
				return err
			}
		}
		return nil
	})
}

func (p *otPair) close() { p.conn.Close() }

// ---- kernel replay: gc ----

// gcWork is the garbled circuits of one request, in the chunks the
// engine cuts them into, with zero input bits.
type gcWork struct {
	circs        []*gc.Circuit
	gbits, ebits [][]byte
	ANDGates     int
	TableBytes   int
}

func newGCWork(rs requestShape) gcWork {
	var w gcWork
	add := func(c *gc.Circuit) {
		w.circs = append(w.circs, c)
		w.gbits = append(w.gbits, make([]byte, c.NumGarbler))
		w.ebits = append(w.ebits, make([]byte, c.NumEvaluator))
		w.ANDGates += c.NumAND()
		w.TableBytes += c.TableBytes()
	}
	// Chunks of one size share a circuit, as the engine's cache has it.
	relu := map[int]*gc.Circuit{}
	pool := map[[2]int]*gc.Circuit{}
	for _, l := range rs.Layers {
		for left := l.ReLUNeurons; left > 0; left -= reluChunk {
			n := min(left, reluChunk)
			if relu[n] == nil {
				relu[n] = gc.BatchReLUCircuit(ringBits, n)
			}
			add(relu[n])
		}
		for left := l.PoolWindows; left > 0; left -= poolChunk {
			n := min(left, poolChunk)
			k := [2]int{l.PoolWin, n}
			if pool[k] == nil {
				pool[k] = gc.BatchMaxPoolCircuit(ringBits, l.PoolWin, n, l.PoolReLU)
			}
			add(pool[k])
		}
	}
	return w
}

// garble garbles every circuit once and returns the material, which
// evaluate consumes.
func (w gcWork) garble() ([]*gc.Garbled, error) {
	rng := prg.New(prg.SeedFromInt(6))
	out := make([]*gc.Garbled, len(w.circs))
	for i, c := range w.circs {
		g, err := gc.Garble(c, w.gbits[i], rng)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// evalLabels picks the evaluator's zero-bit label of every input wire.
func evalLabels(garbled []*gc.Garbled) [][]gc.Label {
	labels := make([][]gc.Label, len(garbled))
	for i, g := range garbled {
		labels[i] = make([]gc.Label, len(g.EvalPairs))
		for j := range g.EvalPairs {
			labels[i][j] = g.EvalPairs[j][0]
		}
	}
	return labels
}

func (w gcWork) evaluate(garbled []*gc.Garbled, labels [][]gc.Label) error {
	for i, c := range w.circs {
		g := garbled[i]
		if _, err := gc.Evaluate(c, g.Tables, g.GarblerLabels, labels[i], g.Decode); err != nil {
			return err
		}
	}
	return nil
}

// gcPair is a garbler and an evaluator joined by a pipe.
type gcPair struct {
	g    *gc.Garbler
	e    *gc.Evaluator
	conn transport.Conn
}

func openGCPair(workers int) (*gcPair, error) {
	ca, cb := transport.Pipe()
	p := &gcPair{conn: ca}
	err := together(ca, func() (err error) {
		p.g, err = gc.NewGarbler(ca, 2, prg.New(prg.SeedFromInt(7)))
		return err
	}, func() (err error) {
		p.e, err = gc.NewEvaluator(cb, 2, prg.New(prg.SeedFromInt(8)))
		return err
	})
	if err != nil {
		ca.Close()
		return nil, err
	}
	p.g.SetWorkers(workers)
	p.e.SetWorkers(workers)
	return p, nil
}

// runBatch is the whole two-party garbled-circuit round of the request:
// garble, label OTs, transfer, evaluate.
func (p *gcPair) runBatch(w gcWork) error {
	return together(p.conn, func() error { return p.g.RunBatch(w.circs, w.gbits) },
		func() error { _, err := p.e.RunBatch(w.circs, w.ebits); return err })
}

func (p *gcPair) close() { p.conn.Close() }

// ---- kernel replay: core triplets and activations ----

// corePair holds the protocol roles of internal/core, triplets and
// activations each over a metered pipe of its own so that their traffic
// is told apart.
type corePair struct {
	rg     ring.Ring
	ct     *core.ClientTriplets
	st     *core.ServerTriplets
	cn     *core.ClientNonlinear
	sn     *core.ServerNonlinear
	tMeter *transport.Meter
	nMeter *transport.Meter
	tconn  transport.Conn // triplet pipe
	nconn  transport.Conn // activation pipe

	// Operands per layer, drawn once.
	w      [][]int64
	r      []*ring.Mat
	shapes []core.MatShape
	y0, y1 []ring.Vec // activation input shares per layer
	z1     []ring.Vec // the client's output shares per layer
	wins   [][][]int  // pooling windows per layer
	amax   [2]ring.Vec
}

func openCorePair(rs requestShape, schemeName string, workers int) (*corePair, error) {
	scheme, err := quant.Parse(schemeName)
	if err != nil {
		return nil, err
	}
	p := &corePair{rg: ring.New(ringBits)}
	params := core.Params{Ring: p.rg, Scheme: scheme, Workers: workers}
	ta, tb, tMeter := transport.MeteredPipe()
	na, nb, nMeter := transport.MeteredPipe()
	p.tMeter, p.nMeter, p.tconn, p.nconn = tMeter, nMeter, ta, na
	err = together(p, func() (err error) {
		if p.ct, err = core.NewClientTriplets(ta, params, 1, prg.New(prg.SeedFromInt(9))); err != nil {
			return err
		}
		p.cn, err = core.NewClientNonlinear(na, p.rg, 2, prg.New(prg.SeedFromInt(10)))
		return err
	}, func() (err error) {
		if p.st, err = core.NewServerTripletsSeeded(tb, params, 1, prg.New(prg.SeedFromInt(11))); err != nil {
			return err
		}
		p.sn, err = core.NewServerNonlinear(nb, p.rg, 2, prg.New(prg.SeedFromInt(12)))
		return err
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	p.cn.SetWorkers(workers)
	p.sn.SetWorkers(workers)

	g := prg.New(prg.SeedFromInt(13))
	lo, hi := scheme.Range()
	for _, l := range rs.Layers {
		w := make([]int64, l.M*l.N)
		for i := range w {
			w[i] = lo + int64(g.Intn(int(hi-lo+1)))
		}
		p.w = append(p.w, w)
		p.r = append(p.r, g.Mat(p.rg, l.N, l.O))
		p.shapes = append(p.shapes, core.MatShape{M: l.M, N: l.N, O: l.O})
		in := l.ReLUNeurons + l.PoolWindows*l.PoolWin
		out := l.ReLUNeurons + l.PoolWindows
		p.y0 = append(p.y0, g.Vec(p.rg, in))
		p.y1 = append(p.y1, g.Vec(p.rg, in))
		p.z1 = append(p.z1, g.Vec(p.rg, out))
		wins := make([][]int, l.PoolWindows)
		for i := range wins {
			wins[i] = make([]int, l.PoolWin)
			for j := range wins[i] {
				wins[i][j] = i*l.PoolWin + j
			}
		}
		p.wins = append(p.wins, wins)
	}
	p.amax = [2]ring.Vec{g.Vec(p.rg, rs.ArgmaxN*rs.Batch), g.Vec(p.rg, rs.ArgmaxN*rs.Batch)}
	return p, nil
}

// triplets generates every layer's matrix triplets, one-batch or
// multi-batch as the engine's ModeFor picks.
func (p *corePair) triplets() error {
	return together(p.tconn, func() error {
		for i, sh := range p.shapes {
			if _, err := p.ct.GenerateClient(sh, p.r[i], core.ModeFor(sh.O)); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for i, sh := range p.shapes {
			if _, err := p.st.GenerateServer(sh, p.w[i], core.ModeFor(sh.O)); err != nil {
				return err
			}
		}
		return nil
	})
}

// relu runs the GC ReLU of every layer that has one.
func (p *corePair) relu(rs requestShape) error {
	return together(p.nconn, func() error {
		for i, l := range rs.Layers {
			if l.ReLUNeurons == 0 {
				continue
			}
			if err := p.cn.ReLUClient(core.ReLUGC, p.y1[i], p.z1[i]); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for i, l := range rs.Layers {
			if l.ReLUNeurons == 0 {
				continue
			}
			if _, err := p.sn.ReLUServer(core.ReLUGC, p.y0[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// pool runs the max-pool (with its fused ReLU) of every layer that has one.
func (p *corePair) pool(rs requestShape) error {
	return together(p.nconn, func() error {
		for i, l := range rs.Layers {
			if l.PoolWindows == 0 {
				continue
			}
			if err := p.cn.MaxPoolClient(p.y1[i], p.z1[i], p.wins[i], l.PoolReLU); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for i, l := range rs.Layers {
			if l.PoolWindows == 0 {
				continue
			}
			if _, err := p.sn.MaxPoolServer(p.y0[i], p.wins[i], l.PoolReLU); err != nil {
				return err
			}
		}
		return nil
	})
}

// argmax runs the private argmax finish.
func (p *corePair) argmax(rs requestShape) error {
	return together(p.nconn, func() error {
		_, err := p.cn.ArgmaxClient(p.amax[1], rs.ArgmaxN, rs.Batch)
		return err
	}, func() error { return p.sn.ArgmaxServer(p.amax[0], rs.ArgmaxN, rs.Batch) })
}

func (p *corePair) tripletBytes() int64   { return p.tMeter.Snapshot().TotalBytes() }
func (p *corePair) nonlinearBytes() int64 { return p.nMeter.Snapshot().TotalBytes() }

// Close closes both pipes; either end of a pipe closes it whole.
func (p *corePair) Close() error {
	p.tconn.Close()
	return p.nconn.Close()
}

// ---- trace output ----

// writeTrace writes spans and flights as the JSONL dump the program's
// own tools (abnn2-inspect -trace, -timeline) read.
func writeTrace(w io.Writer, spans []abnn2.TraceSpan, flights []abnn2.TraceFlight) {
	sink := abnn2.NewTraceWriter(w)
	for _, s := range spans {
		sink.Emit(s)
	}
	if fs, ok := sink.(interface{ EmitFlight(abnn2.TraceFlight) }); ok {
		for _, f := range flights {
			fs.EmitFlight(f)
		}
	}
}
