package gc

import (
	"fmt"
	"sync/atomic"

	"abnn2/internal/otext"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// Garbler drives the garbling side of the two-party GC protocol (the
// client in ABNN2). It owns an OT-extension sender used to deliver the
// evaluator's input labels. Not safe for concurrent use.
type Garbler struct {
	conn    transport.Conn
	ot      *otext.Sender
	rng     *prg.PRG
	workers int
	garbled atomic.Int64 // circuits garbled so far; the run-ahead bound test reads it mid-round
}

// Evaluator drives the evaluating side (the server in ABNN2).
type Evaluator struct {
	conn    transport.Conn
	ot      *otext.Receiver
	workers int
	choices []int // label-OT choice scratch
}

// NewGarbler sets up the garbling side, running base OTs for the label
// transfers on conn.
func NewGarbler(conn transport.Conn, session uint64, rng *prg.PRG) (*Garbler, error) {
	ot, err := otext.NewSender(conn, otext.RepetitionCode(), session, rng)
	if err != nil {
		return nil, fmt.Errorf("gc: garbler OT setup: %w", err)
	}
	return &Garbler{conn: conn, ot: ot, rng: rng}, nil
}

// NewEvaluator sets up the evaluating side.
func NewEvaluator(conn transport.Conn, session uint64, rng *prg.PRG) (*Evaluator, error) {
	ot, err := otext.NewReceiver(conn, otext.RepetitionCode(), session, rng)
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
// tables, the garbler's active input labels, the packed decode bits and
// the evaluator's label pairs under their OT pads.
func flightBytes(c *Circuit) int {
	return c.TableBytes() + c.NumGarbler*LabelSize + (len(c.Outputs)+7)/8 + c.NumEvaluator*2*LabelSize
}

// Run garbles c under the garbler's input bits and sends everything the
// evaluator needs in a single flight (after receiving the OT column
// matrix). The protocol per invocation is two flights total:
// evaluator -> garbler (OT columns), garbler -> evaluator (tables, labels,
// decode bits, OT ciphertexts). Run is a round of one circuit garbled
// straight from the garbler's stream.
func (g *Garbler) Run(c *Circuit, garblerBits []byte) error {
	return g.round([]*Circuit{c}, [][]byte{garblerBits}, []*prg.PRG{g.rng})
}

// RunBatch runs the garbler side for a batch of independent circuits:
// len(circs) consecutive rounds of Run's two flights, in batch order,
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

// round is the garbler's pipeline. Up to `workers` producers garble
// circuits k+1.. into flight buffers while this goroutine runs circuit
// k's label-OT round and sends its flight, so a batch costs about
// garble(first) + max(garble, send) * (rest) instead of garble(all) +
// send(all). At most workers + 1 circuits are garbled (or being garbled)
// and not yet sent: that window, not the batch, bounds the garbler's
// memory — one kernel's wire labels per worker and workers + 1 flights,
// each reused from circuit to circuit and dropped with the round.
func (g *Garbler) round(circs []*Circuit, bits [][]byte, rngs []*prg.PRG) error {
	workers := par.NumChunks(g.workers, len(circs))
	window := workers + 1
	kernels := make([]garbling, workers) // one per producer goroutine
	flights := make([][]byte, window)    // circuit i uses slot i mod window
	return par.Ahead(workers, window, len(circs),
		func(w, i int) ([]byte, error) {
			// Circuit i-window has been sent — par.Ahead starts no item
			// before then — and Send does not keep the buffer.
			slot, n := i%window, flightBytes(circs[i])
			if cap(flights[slot]) < n {
				flights[slot] = make([]byte, n)
			}
			msg := flights[slot][:n]
			if err := kernels[w].flight(circs[i], bits[i], rngs[i], msg); err != nil {
				return nil, err
			}
			g.garbled.Add(1)
			return msg, nil
		},
		func(i int, msg []byte) error { return g.sendGarbled(circs[i], msg) })
}

// flight garbles c into msg, laid out as flightBytes describes, with the
// evaluator's label pairs still in the clear: sendGarbled pads them once
// the label OT has run.
func (s *garbling) flight(c *Circuit, garblerBits []byte, rng *prg.PRG, msg []byte) error {
	if len(garblerBits) != c.NumGarbler {
		return fmt.Errorf("gc: %d garbler bits for %d input wires", len(garblerBits), c.NumGarbler)
	}
	tb := c.TableBytes()
	if err := s.garble(c, rng, msg[:tb]); err != nil {
		return err
	}
	off := tb
	for i, b := range garblerBits {
		s.garblerLabel(i, b).store(msg[off:])
		off += LabelSize
	}
	decode := msg[off : off+(len(c.Outputs)+7)/8]
	clear(decode)
	for i, w := range c.Outputs {
		decode[i/8] |= byte(s.zero[w].lsb()) << (uint(i) % 8)
	}
	off += len(decode)
	for _, z := range s.zero[c.NumGarbler : c.NumGarbler+c.NumEvaluator] {
		z.store(msg[off:])
		z.xor(s.r).store(msg[off+LabelSize:])
		off += 2 * LabelSize
	}
	return nil
}

// sendGarbled performs the communication half of a round: the label OT
// and the single garbled-material flight.
func (g *Garbler) sendGarbled(c *Circuit, msg []byte) error {
	if c.NumEvaluator > 0 {
		blk, err := g.ot.Extend(c.NumEvaluator)
		if err != nil {
			return fmt.Errorf("gc: label OT: %w", err)
		}
		pads := blk.NewDeriver()
		pairs := msg[len(msg)-c.NumEvaluator*2*LabelSize:]
		for i := 0; i < c.NumEvaluator; i++ {
			pads.Seek(i)
			pads.XORPad(0, pairs[:LabelSize])
			pads.XORPad(1, pairs[LabelSize:2*LabelSize])
			pairs = pairs[2*LabelSize:]
		}
	}
	if err := g.conn.Send(msg); err != nil {
		return fmt.Errorf("gc: send garbled material: %w", err)
	}
	return nil
}

// received is one circuit's garbled-material flight and the label-OT
// block that opens the evaluator's labels in it. The evaluation it is
// handed to owns the frame: its tables are read in place.
type received struct {
	msg []byte
	blk *otext.ReceiverBlock
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
// mirroring Garbler.RunBatch. This goroutine keeps the wire: per circuit,
// in batch order, it sends the label-OT columns and receives the flight,
// and hands each flight to an evaluation running behind it, at most
// `workers` at a time, so circuit k evaluates while circuit k+1 is
// received. An evaluation error does not stop the receive loop — the
// garbler is never left blocked in a send mid-batch — and is returned
// after it. Returns the decoded output bits per circuit.
func (e *Evaluator) RunBatch(circs []*Circuit, bits [][]byte) ([][]byte, error) {
	if len(circs) != len(bits) {
		return nil, fmt.Errorf("gc: %d circuits for %d input sets", len(circs), len(bits))
	}
	// One kernel per evaluation slot: its wire labels are reused from
	// circuit to circuit and dropped with the round.
	kernels := make([]evaluating, par.NumChunks(e.workers, len(circs)))
	outs := make([][]byte, len(circs))
	err := par.Behind(e.workers, len(circs),
		func(i int) (received, error) { return e.recvGarbled(circs[i], bits[i]) },
		func(w, i int, rcv received) (err error) {
			outs[i], err = kernels[w].flight(circs[i], bits[i], rcv)
			return err
		})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// recvGarbled performs the communication half of a round: the label OT
// and the receipt of the garbled-material flight.
func (e *Evaluator) recvGarbled(c *Circuit, evalBits []byte) (received, error) {
	if len(evalBits) != c.NumEvaluator {
		return received{}, fmt.Errorf("gc: %d evaluator bits for %d wires", len(evalBits), c.NumEvaluator)
	}
	var rcv received
	if c.NumEvaluator > 0 {
		// The block keeps the slice only to answer Choice, which this
		// package never asks, so one buffer serves every round.
		if cap(e.choices) < len(evalBits) {
			e.choices = make([]int, len(evalBits))
		}
		choices := e.choices[:len(evalBits)]
		for i, b := range evalBits {
			choices[i] = int(b & 1)
		}
		blk, err := e.ot.Extend(choices)
		if err != nil {
			return received{}, fmt.Errorf("gc: label OT: %w", err)
		}
		rcv.blk = blk
	}
	msg, err := e.conn.Recv()
	if err != nil {
		return received{}, fmt.Errorf("gc: recv garbled material: %w", err)
	}
	if want := flightBytes(c); len(msg) != want {
		return received{}, fmt.Errorf("gc: garbled material is %d bytes, want %d", len(msg), want)
	}
	rcv.msg = msg
	return rcv, nil
}

// flight evaluates c over a received flight: it opens the evaluator's
// labels with the OT pads, takes the garbler's as sent, walks the gates
// over the tables where they lie in the frame, and decodes the outputs.
func (s *evaluating) flight(c *Circuit, evalBits []byte, rcv received) ([]byte, error) {
	msg := rcv.msg
	active := s.inputs(c)
	tb := c.TableBytes()
	off := tb
	for i := 0; i < c.NumGarbler; i++ {
		active[i] = loadWire(msg[off:])
		off += LabelSize
	}
	decode := msg[off : off+(len(c.Outputs)+7)/8]
	off += len(decode)
	if c.NumEvaluator > 0 {
		pads := rcv.blk.NewDeriver()
		for i, b := range evalBits {
			// Unpad a copy: the frame stays as it arrived.
			copy(s.label[:], msg[off+int(b&1)*LabelSize:])
			pads.Seek(i)
			pads.XORPad(s.label[:])
			active[c.NumGarbler+i] = loadWire(s.label[:])
			off += 2 * LabelSize
		}
	}
	if err := s.evaluate(c, msg[:tb]); err != nil {
		return nil, err
	}
	bits := make([]byte, len(c.Outputs))
	for i, w := range c.Outputs {
		bits[i] = byte(active[w].lsb()) ^ (decode[i/8]>>(uint(i)%8))&1
	}
	return bits, nil
}
