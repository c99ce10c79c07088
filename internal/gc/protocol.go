package gc

import (
	"fmt"

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
}

// Evaluator drives the evaluating side (the server in ABNN2).
type Evaluator struct {
	conn    transport.Conn
	ot      *otext.Receiver
	workers int
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

// Run garbles c under the garbler's input bits and sends everything the
// evaluator needs in a single flight (after receiving the OT column
// matrix). The protocol per invocation is two flights total:
// evaluator -> garbler (OT columns), garbler -> evaluator (tables, labels,
// decode bits, OT ciphertexts).
func (g *Garbler) Run(c *Circuit, garblerBits []byte) error {
	garbled, err := Garble(c, garblerBits, g.rng)
	if err != nil {
		return err
	}
	return g.sendGarbled(c, garbled)
}

// RunBatch runs the garbler side for a batch of independent circuits.
// Garbling — the CPU-heavy half — fans out across the shared worker
// pool; the per-circuit randomness is pre-derived sequentially and the
// wire flights go out in batch order, so the transcript is byte-for-byte
// identical for any worker count. The evaluator must mirror the call
// with RunBatch over the same circuits.
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
	garbled := make([]*Garbled, len(circs))
	if err := par.ChunksErr(g.workers, len(circs), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			gb, err := Garble(circs[i], bits[i], rngs[i])
			if err != nil {
				return err
			}
			garbled[i] = gb
		}
		return nil
	}); err != nil {
		return err
	}
	// Communication stays sequential in batch order: one OT round plus
	// one garbled-material flight per circuit, exactly as len(circs)
	// consecutive Run calls would produce.
	for i := range circs {
		if err := g.sendGarbled(circs[i], garbled[i]); err != nil {
			return err
		}
	}
	return nil
}

// sendGarbled performs the communication half of Run: the label OT round
// and the single garbled-material flight.
func (g *Garbler) sendGarbled(c *Circuit, garbled *Garbled) error {
	var pads *otext.SenderDeriver
	if c.NumEvaluator > 0 {
		blk, err := g.ot.Extend(c.NumEvaluator)
		if err != nil {
			return fmt.Errorf("gc: label OT: %w", err)
		}
		pads = blk.NewDeriver()
	}
	msg := make([]byte, 0, len(garbled.Tables)+
		c.NumGarbler*LabelSize+(len(c.Outputs)+7)/8+c.NumEvaluator*2*LabelSize)
	msg = append(msg, garbled.Tables...)
	for _, l := range garbled.GarblerLabels {
		msg = append(msg, l[:]...)
	}
	msg = append(msg, packBits(garbled.Decode)...)
	for i := 0; i < c.NumEvaluator; i++ {
		pads.Seek(i)
		for v, label := range garbled.EvalPairs[i] {
			msg = append(msg, label[:]...)
			pads.XORPad(v, msg[len(msg)-LabelSize:])
		}
	}
	if err := g.conn.Send(msg); err != nil {
		return fmt.Errorf("gc: send garbled material: %w", err)
	}
	return nil
}

// received holds one circuit's parsed garbled material, ready to
// evaluate.
type received struct {
	tables        []byte
	garblerLabels []Label
	evalLabels    []Label
	decode        []byte
}

// Run evaluates c with the evaluator's input bits and returns the decoded
// output bits.
func (e *Evaluator) Run(c *Circuit, evalBits []byte) ([]byte, error) {
	rcv, err := e.recvGarbled(c, evalBits)
	if err != nil {
		return nil, err
	}
	return Evaluate(c, rcv.tables, rcv.garblerLabels, rcv.evalLabels, rcv.decode)
}

// RunBatch runs the evaluator side for a batch of independent circuits,
// mirroring Garbler.RunBatch: the per-circuit OT rounds and receives
// happen sequentially in batch order (fixed wire order), then the
// CPU-heavy evaluation fans out across the shared worker pool. Returns
// the decoded output bits per circuit.
func (e *Evaluator) RunBatch(circs []*Circuit, bits [][]byte) ([][]byte, error) {
	if len(circs) != len(bits) {
		return nil, fmt.Errorf("gc: %d circuits for %d input sets", len(circs), len(bits))
	}
	rcvs := make([]received, len(circs))
	for i := range circs {
		rcv, err := e.recvGarbled(circs[i], bits[i])
		if err != nil {
			return nil, err
		}
		rcvs[i] = rcv
	}
	outs := make([][]byte, len(circs))
	if err := par.ChunksErr(e.workers, len(circs), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			out, err := Evaluate(circs[i], rcvs[i].tables, rcvs[i].garblerLabels, rcvs[i].evalLabels, rcvs[i].decode)
			if err != nil {
				return err
			}
			outs[i] = out
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return outs, nil
}

// recvGarbled performs the communication half of Run: the label OT round
// and parsing of the garbled-material flight.
func (e *Evaluator) recvGarbled(c *Circuit, evalBits []byte) (received, error) {
	if len(evalBits) != c.NumEvaluator {
		return received{}, fmt.Errorf("gc: %d evaluator bits for %d wires", len(evalBits), c.NumEvaluator)
	}
	var pads *otext.ReceiverDeriver
	if c.NumEvaluator > 0 {
		choices := make([]int, len(evalBits))
		for i, b := range evalBits {
			choices[i] = int(b & 1)
		}
		blk, err := e.ot.Extend(choices)
		if err != nil {
			return received{}, fmt.Errorf("gc: label OT: %w", err)
		}
		pads = blk.NewDeriver()
	}
	msg, err := e.conn.Recv()
	if err != nil {
		return received{}, fmt.Errorf("gc: recv garbled material: %w", err)
	}
	tb := c.TableBytes()
	decodeBytes := (len(c.Outputs) + 7) / 8
	want := tb + c.NumGarbler*LabelSize + decodeBytes + c.NumEvaluator*2*LabelSize
	if len(msg) != want {
		return received{}, fmt.Errorf("gc: garbled material is %d bytes, want %d", len(msg), want)
	}
	tables := msg[:tb]
	off := tb
	garblerLabels := make([]Label, c.NumGarbler)
	for i := range garblerLabels {
		copy(garblerLabels[i][:], msg[off:])
		off += LabelSize
	}
	decode := unpackBits(msg[off:off+decodeBytes], len(c.Outputs))
	off += decodeBytes
	evalLabels := make([]Label, c.NumEvaluator)
	for i := range evalLabels {
		b := evalBits[i] & 1
		copy(evalLabels[i][:], msg[off+int(b)*LabelSize:])
		pads.Seek(i)
		pads.XORPad(evalLabels[i][:])
		off += 2 * LabelSize
	}
	return received{tables: tables, garblerLabels: garblerLabels, evalLabels: evalLabels, decode: decode}, nil
}

func packBits(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b&1 == 1 {
			out[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}

func unpackBits(b []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = (b[i/8] >> (uint(i) % 8)) & 1
	}
	return out
}
