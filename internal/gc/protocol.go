package gc

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"abnn2/internal/otext"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// columnsAhead is how many circuits' label-OT column matrices the
// evaluator sends before it receives a flight: those of circuits 0 to
// columnsAhead-1 back to back, then, after flight k, circuit
// k+columnsAhead's. Garbling circuit k needs its columns — its
// evaluator's zero labels are that label OT's pads — so this is also how
// far the garbler can run ahead of the evaluator. A batch of at most
// columnsAhead circuits is two direction flips, one of columns and one
// of flights; a longer one of n is 2(n-columnsAhead+1). Like core's
// reluChunk and poolChunk it is a constant, not a setting: it fixes the
// transcript and the flight count for every worker count, and it bounds
// each party to columnsAhead live label-OT blocks: 16 bytes of rows per
// evaluator input bit, 512 KiB for core's 1024-neuron ReLU chunk at ring
// width 32 and 1 MiB for its 512-window 2x2 pool chunk.
const columnsAhead = 4

// Garbler drives the garbling side of the two-party GC protocol (the
// client in ABNN2). It owns an OT-extension sender used to deliver the
// evaluator's input labels. Not safe for concurrent use.
type Garbler struct {
	conn    transport.Conn
	ot      *otext.Sender
	rng     *prg.PRG
	workers int
	// The round's flight slots and its producers' evaluator label pairs,
	// kept from batch to batch.
	flights [][]byte
	pairs   [][]byte
	labels  inputLabels  // the garbler inputs' active labels, X_0 onwards
	garbled atomic.Int64 // circuits garbled so far; the run-ahead bound test reads it mid-round
}

// Evaluator drives the evaluating side (the server in ABNN2).
type Evaluator struct {
	conn    transport.Conn
	ot      *otext.Receiver
	workers int
	choices []int       // label-OT choice scratch
	labels  inputLabels // the garbler inputs' active labels, X_0 onwards
}

// NewGarbler sets up the garbling side, running base OTs for the label
// transfers on conn.
func NewGarbler(conn transport.Conn, session uint64, rng *prg.PRG) (*Garbler, error) {
	ot, err := otext.NewSender(conn, otext.WalshHadamardCode(2), session, rng)
	if err != nil {
		return nil, fmt.Errorf("gc: garbler OT setup: %w", err)
	}
	return &Garbler{conn: conn, ot: ot, rng: rng}, nil
}

// NewEvaluator sets up the evaluating side.
func NewEvaluator(conn transport.Conn, session uint64, rng *prg.PRG) (*Evaluator, error) {
	ot, err := otext.NewReceiver(conn, otext.WalshHadamardCode(2), session, rng)
	if err != nil {
		return nil, fmt.Errorf("gc: evaluator OT setup: %w", err)
	}
	return &Evaluator{conn: conn, ot: ot}, nil
}

// SetWorkers bounds the kernel parallelism of RunBatch (and of the OT
// extension rounds underneath). 0, the default, means one worker per
// CPU. The wire bytes are identical for every setting.
func (g *Garbler) SetWorkers(n int) {
	g.workers = n
	g.ot.SetWorkers(n)
}

// SetWorkers mirrors Garbler.SetWorkers.
func (e *Evaluator) SetWorkers(n int) {
	e.workers = n
	e.ot.SetWorkers(n)
}

// flightBytes is the size of c's garbler -> evaluator flight: the garbled
// tables, the packed decode bits and one label-OT ciphertext per
// evaluator input. The garbler's active input labels are not sent: both
// parties derive them (inputLabels).
func flightBytes(c *Circuit) int {
	return c.TableBytes() + (c.numOutputs()+7)/8 + c.NumEvaluator*LabelSize
}

// Run garbles c under the garbler's input bits and sends everything the
// evaluator needs in a single flight, once it has received the label-OT
// column matrix. The protocol per invocation is two flights total:
// evaluator -> garbler (OT columns), garbler -> evaluator (tables,
// decode bits, OT ciphertexts). Run is a round of one circuit garbled
// straight from the garbler's stream.
func (g *Garbler) Run(c *Circuit, garblerBits []byte) error {
	return g.round([]*Circuit{c}, [][]byte{garblerBits}, []*prg.PRG{g.rng})
}

// RunBatch runs the garbler side for a batch of independent circuits: it
// receives each circuit's label-OT columns and sends its flight, in batch
// order, the columns up to columnsAhead circuits ahead of the flights,
// with garbling — the CPU-heavy half — running ahead of the wire. The
// per-circuit randomness is pre-derived sequentially, so the transcript
// is byte-for-byte identical for any worker count. The evaluator must
// mirror the call with RunBatch over the same circuits.
func (g *Garbler) RunBatch(circs []*Circuit, bits [][]byte) error {
	if len(circs) != len(bits) {
		return fmt.Errorf("gc: %d circuits for %d input sets", len(circs), len(bits))
	}
	// One child PRG per circuit, derived in order from the garbler's
	// stream: chunk k's labels do not depend on how many goroutines
	// garble, only on k.
	rngs := make([]*prg.PRG, len(circs))
	for i := range rngs {
		rngs[i] = g.rng.Child(fmt.Sprintf("batch/%d", i))
	}
	return g.round(circs, bits, rngs)
}

// round is the garbler's pipeline. Its wire order is fixed whatever the
// workers do: the columns of the first columnsAhead circuits, then flight
// k and the columns of circuit k+columnsAhead, for k in order. This
// goroutine keeps the wire from flight 0 on; the first columns arrive on
// a goroutine of their own before it. Each circuit's label-OT block goes
// to the producer that garbles the circuit; up to `workers` of them
// garble circuits k+1.. into flight
// buffers while this goroutine sends flight k, so a batch costs about
// garble(first) + max(garble, send) * (rest) instead of garble(all) +
// send(all). At most workers + 1 circuits are garbled (or being garbled)
// and not yet sent, and no more than columnsAhead have their columns:
// that window, not the batch, bounds the garbler's memory — workers + 1
// flights and, per worker, a circuit's evaluator label pairs (2 x
// LabelSize bytes an evaluator input), kept on the Garbler from batch to
// batch, and one kernel's window-group labels (4 x body wires x LabelSize
// bytes), reused from circuit to circuit and dropped with the round.
func (g *Garbler) round(circs []*Circuit, bits [][]byte, rngs []*prg.PRG) error {
	n := len(circs)
	workers := par.NumChunks(g.workers, n)
	window := workers + 1
	kernels := make([]garbling, workers) // one per producer goroutine
	if len(g.flights) < window {
		g.flights = make([][]byte, window)
	}
	if len(g.pairs) < workers {
		g.pairs = make([][]byte, workers)
	}
	flights := g.flights[:window] // circuit i uses slot i mod window
	labels := g.labels.upTo(circs...)
	// blks[i] carries circuit i's label-OT block — nil for a circuit
	// without evaluator inputs — or the error that ended its extension, from
	// the goroutine that receives its columns to its producer.
	blks := make([]chan extended, n)
	for i := range blks {
		blks[i] = make(chan extended, 1)
	}
	extend := func(i int) error {
		var x extended
		if m := circs[i].NumEvaluator; m > 0 {
			if x.blk, x.err = g.ot.Extend(m); x.err != nil {
				x.err = fmt.Errorf("gc: label OT: %w", x.err)
			}
		}
		blks[i] <- x
		return x.err
	}
	// The first columnsAhead circuits' columns are received on a goroutine
	// of its own, so that circuit 0 garbles while circuit 1's arrive.
	// Flight 0 waits for it, and the round waits for it on every path, so
	// that it never outlives the call. A panic there comes back as a
	// *par.ChunkPanic error.
	var headErr error
	headDone := make(chan struct{})
	go func() {
		i := 0
		defer close(headDone)
		defer func() {
			if r := recover(); r != nil {
				headErr = &par.ChunkPanic{Value: r, Stack: debug.Stack()}
				blks[i] <- extended{err: headErr}
			}
		}()
		for ; i < min(columnsAhead, n); i++ {
			if headErr = extend(i); headErr != nil {
				return
			}
		}
	}()
	defer func() { <-headDone }()
	return par.Ahead(workers, window, n,
		func(w, i int, stop <-chan struct{}) ([]byte, error) {
			var x extended
			select {
			case x = <-blks[i]:
			case <-stop: // the round is over; this circuit's columns never come
				return nil, nil
			}
			if x.err != nil {
				return nil, x.err
			}
			// Circuit i-window has been sent — par.Ahead starts no item
			// before then — and Send does not keep the buffer.
			slot, size := i%window, flightBytes(circs[i])
			if cap(flights[slot]) < size {
				flights[slot] = make([]byte, size)
			}
			msg := flights[slot][:size]
			np := circs[i].NumEvaluator * 2 * LabelSize
			if cap(g.pairs[w]) < np {
				g.pairs[w] = make([]byte, np)
			}
			pairs := g.pairs[w][:np]
			if err := kernels[w].flight(circs[i], bits[i], labels, rngs[i], x.blk, msg, pairs); err != nil {
				return nil, err
			}
			g.garbled.Add(1)
			return msg, nil
		},
		func(i int, msg []byte) error {
			if i == 0 {
				<-headDone
				if headErr != nil {
					return headErr
				}
			}
			if err := g.conn.Send(msg); err != nil {
				return fmt.Errorf("gc: send garbled material: %w", err)
			}
			if i+columnsAhead < n {
				return extend(i + columnsAhead)
			}
			return nil
		})
}

// extended is one circuit's label-OT extension as the garbler's producer
// receives it.
type extended struct {
	blk *otext.SenderBlock
	err error
}

// Run evaluates c with the evaluator's input bits and returns the decoded
// output bits.
func (e *Evaluator) Run(c *Circuit, evalBits []byte) ([]byte, error) {
	outs, err := e.RunBatch([]*Circuit{c}, [][]byte{evalBits})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunBatch runs the evaluator side for a batch of independent circuits,
// mirroring Garbler.RunBatch. This goroutine keeps the wire (see
// labelRound): it receives each circuit's flight in batch order, opens
// its labels there, and hands it to an evaluation running behind it, at
// most `workers` at a time, so circuit k evaluates while circuit k+1 is
// received. An evaluation error does not stop the receive loop — the
// garbler is never left blocked in a send mid-batch — and is returned
// after it. Returns the decoded output bits per circuit.
func (e *Evaluator) RunBatch(circs []*Circuit, bits [][]byte) ([][]byte, error) {
	if len(circs) != len(bits) {
		return nil, fmt.Errorf("gc: %d circuits for %d input sets", len(circs), len(bits))
	}
	recv, err := e.labelRound(circs, bits)
	if err != nil {
		return nil, err
	}
	// One kernel per evaluation slot: its window-group labels are reused
	// from circuit to circuit and dropped with the round.
	kernels := make([]evaluating, par.NumChunks(e.workers, len(circs)))
	labels := e.labels.upTo(circs...)
	outs := make([][]byte, len(circs))
	err = par.Behind(e.workers, len(circs), recv,
		func(w, i int, msg []byte) (err error) {
			outs[i], err = kernels[w].flight(circs[i], labels, msg)
			e.conn.Release(msg)
			return err
		})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// labelRound starts the evaluator's side of a round's wire: it sends the
// label-OT columns of the first columnsAhead circuits and returns recv,
// which the caller runs for circuit 0, 1, ... in order. recv(i) receives
// circuit i's flight, opens the evaluator's labels in place of their
// ciphertexts, releases the circuit's block and only then sends the
// columns of circuit i+columnsAhead, so at most columnsAhead blocks are
// live. The flight belongs to the caller, who releases it to the conn.
func (e *Evaluator) labelRound(circs []*Circuit, bits [][]byte) (recv func(i int) ([]byte, error), err error) {
	for i, c := range circs {
		if len(bits[i]) != c.NumEvaluator {
			return nil, fmt.Errorf("gc: %d evaluator bits for %d wires", len(bits[i]), c.NumEvaluator)
		}
	}
	blks := make([]*otext.ReceiverBlock, len(circs))
	extend := func(i int) error {
		if circs[i].NumEvaluator == 0 {
			return nil
		}
		// The block keeps the slice only to answer Choice, which this
		// package never asks, so one buffer serves every round.
		if cap(e.choices) < len(bits[i]) {
			e.choices = make([]int, len(bits[i]))
		}
		choices := e.choices[:len(bits[i])]
		for j, b := range bits[i] {
			choices[j] = int(b & 1)
		}
		blk, err := e.ot.Extend(choices)
		if err != nil {
			return fmt.Errorf("gc: label OT: %w", err)
		}
		blks[i] = blk
		return nil
	}
	for i := range min(columnsAhead, len(circs)) {
		if err := extend(i); err != nil {
			return nil, err
		}
	}
	return func(i int) ([]byte, error) {
		c := circs[i]
		msg, err := e.conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("gc: recv garbled material: %w", err)
		}
		if want := flightBytes(c); len(msg) != want {
			return nil, fmt.Errorf("gc: garbled material is %d bytes, want %d", len(msg), want)
		}
		if blk := blks[i]; blk != nil {
			// Input j's label is its pad where its bit is 0 and its pad
			// XOR the ciphertext, k0 XOR R, where it is 1.
			labels := msg[len(msg)-c.NumEvaluator*LabelSize:]
			for j, b := range bits[i] {
				loadWire(labels[j*LabelSize:]).when(uint64(b & 1)).store(labels[j*LabelSize:])
			}
			blk.NewDeriver().XORPadsRun(labels, LabelSize, 0)
			blk.Release()
			blks[i] = nil
		}
		if i+columnsAhead < len(circs) {
			if err := extend(i + columnsAhead); err != nil {
				return nil, err
			}
		}
		return msg, nil
	}, nil
}

// flight evaluates c over a received flight whose labels labelRound has
// opened: it takes the garbler's active labels from labels (X_0 onwards)
// and the evaluator's as they lie in the frame, walks the body over the
// tables there too, and decodes the outputs.
func (s *evaluating) flight(c *Circuit, labels, msg []byte) ([]byte, error) {
	tb := c.TableBytes()
	decode := msg[tb : tb+(c.numOutputs()+7)/8]
	elabels := msg[tb+len(decode):]
	perm := make([]byte, len(decode))
	if err := s.evaluate(c, msg[:tb], labels, elabels, perm); err != nil {
		return nil, err
	}
	bits := make([]byte, c.numOutputs())
	for i := range bits {
		bits[i] = ((perm[i/8] ^ decode[i/8]) >> (uint(i) % 8)) & 1
	}
	return bits, nil
}
